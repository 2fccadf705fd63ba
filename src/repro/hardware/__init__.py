"""Hardware power models for the simulated IBM ThinkPad 560X testbed."""

from repro._lazy import lazy_exports

__all__ = [
    "Battery",
    "ExternalSupply",
    "SupplyError",
    "PeukertBattery",
    "RecoveryBattery",
    "VoltageCurve",
    "HardwareError",
    "PowerComponent",
    "Cpu",
    "Disk",
    "Display",
    "ZonedDisplay",
    "Rect",
    "WaveLan",
    "Machine",
    "IDLE_PROCESS",
    "MemorySystem",
    "MemoryError_",
    "PowerManager",
    "thinkpad560x",
    "build_machine",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "battery": ("Battery", "ExternalSupply", "SupplyError"),
    "battery_models": ("PeukertBattery", "RecoveryBattery", "VoltageCurve"),
    "component": ("HardwareError", "PowerComponent"),
    "cpu": ("Cpu",),
    "disk": ("Disk",),
    "display": ("Display", "Rect", "ZonedDisplay"),
    "machine": ("IDLE_PROCESS", "Machine"),
    "memory": ("MemoryError_", "MemorySystem"),
    "power_mgmt": ("PowerManager",),
    "wavelan": ("WaveLan",),
    "thinkpad560x": ("build_machine",),
})
