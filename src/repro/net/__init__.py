"""Network substrate: WaveLAN link, RPC, and remote-server models."""

from repro._lazy import lazy_exports

__all__ = [
    "Link",
    "NetworkError",
    "DisconnectedError",
    "INTERRUPT_PROCESS",
    "RpcChannel",
    "RpcTimeout",
    "Server",
    "BandwidthEstimator",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bandwidth": ("BandwidthEstimator",),
    "link": ("DisconnectedError", "INTERRUPT_PROCESS", "Link", "NetworkError"),
    "rpc": ("RpcChannel", "RpcTimeout"),
    "server": ("Server",),
})
