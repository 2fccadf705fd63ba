"""Per-device hardware variation: profiles and deterministic fleets.

The paper's evaluation ran on a single hand-measured ThinkPad 560X;
every controller in this repo trusts that Figure-4 table perfectly.  A
:class:`DeviceProfile` describes how one *physical* device deviates
from the nominal table — per-component wattage multipliers, battery
capacity variation, and the quality of its SmartBattery gauge
(quantization step, noise, sampling period) — so the same scenario can
be replayed on a device whose reality disagrees with the model the
controller believes.

Fleets are generated deterministically: every parameter of every
device is derived from ``sha256(fleet_seed, device_id, field)`` mapped
into a fixed range, so ``generate_fleet(size, seed)`` is byte-stable
across processes, platforms, and time — the property the fleet-matrix
goldens lean on.  Fleets round-trip through canonical JSON files
(:func:`write_fleet` / :func:`load_fleet`) in the spirit of per-device
calibration files.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "DeviceProfile",
    "DEFAULT_COMPONENTS",
    "FLEET_KIND",
    "FLEET_VERSION",
    "generate_device",
    "generate_fleet",
    "load_fleet",
    "write_fleet",
]

FLEET_KIND = "device-fleet"
FLEET_VERSION = 1

#: Component names covered by the generator: the pulse rig's three
#: (platform/codec/radio) plus the ThinkPad 560X build.
DEFAULT_COMPONENTS = (
    "platform", "codec", "radio",
    "base", "cpu", "display", "disk", "wavelan",
)

#: Parameter ranges the generator draws from.  Multipliers straddle
#: 1.0 asymmetrically (components usually run hotter than the bench
#: measurement); battery capacity skews low (aged cells).
MULTIPLIER_RANGE = (0.80, 1.25)
BATTERY_SCALE_RANGE = (0.85, 1.10)
GAUGE_PERIOD_RANGE = (0.5, 2.0)
GAUGE_RESOLUTION_RANGE = (0.10, 0.40)
GAUGE_NOISE_RANGE = (0.0, 0.10)


def _unit(fleet_seed, device_id, field):
    """Deterministic uniform draw in [0, 1) for one device parameter."""
    key = f"{fleet_seed}/{device_id}/{field}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _draw(fleet_seed, device_id, field, lo, hi):
    return round(lo + _unit(fleet_seed, device_id, field) * (hi - lo), 4)


class DeviceProfile:
    """How one device deviates from the nominal power model.

    Parameters
    ----------
    device_id:
        Stable identifier; doubles as the matrix row key.
    multipliers:
        ``{component_name: factor}`` applied to every state wattage of
        that component at :meth:`Machine.attach` time.  Missing
        components default to 1.0 (nominal).
    battery_scale:
        Physical battery capacity as a fraction of the nominal rating.
        Controllers keep believing the nominal rating — the gap is the
        miscalibration under test.
    gauge_period / gauge_resolution_w / gauge_noise_w:
        SmartBattery quality on this device: sampling period, power
        quantization step, and uniform noise amplitude.
    """

    def __init__(self, device_id, multipliers=None, battery_scale=1.0,
                 gauge_period=1.0, gauge_resolution_w=0.25,
                 gauge_noise_w=0.0):
        if not device_id:
            raise ValueError("device_id must be non-empty")
        if battery_scale <= 0:
            raise ValueError(f"battery_scale must be positive: {battery_scale}")
        if gauge_period <= 0:
            raise ValueError(f"gauge_period must be positive: {gauge_period}")
        if gauge_resolution_w <= 0:
            raise ValueError(
                f"gauge_resolution_w must be positive: {gauge_resolution_w}")
        if gauge_noise_w < 0:
            raise ValueError(f"gauge_noise_w must be >= 0: {gauge_noise_w}")
        for name, factor in (multipliers or {}).items():
            if factor <= 0:
                raise ValueError(f"multiplier for {name!r} must be positive")
        self.device_id = str(device_id)
        self.multipliers = dict(multipliers or {})
        self.battery_scale = float(battery_scale)
        self.gauge_period = float(gauge_period)
        self.gauge_resolution_w = float(gauge_resolution_w)
        self.gauge_noise_w = float(gauge_noise_w)

    def multiplier(self, component_name):
        """Wattage factor for one component (1.0 when uncalibrated)."""
        return self.multipliers.get(component_name, 1.0)

    def scale(self, component_name, watts):
        return watts * self.multiplier(component_name)

    def to_dict(self):
        return {
            "device_id": self.device_id,
            "multipliers": {k: self.multipliers[k]
                            for k in sorted(self.multipliers)},
            "battery_scale": self.battery_scale,
            "gauge_period": self.gauge_period,
            "gauge_resolution_w": self.gauge_resolution_w,
            "gauge_noise_w": self.gauge_noise_w,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["device_id"],
            multipliers=data.get("multipliers"),
            battery_scale=data.get("battery_scale", 1.0),
            gauge_period=data.get("gauge_period", 1.0),
            gauge_resolution_w=data.get("gauge_resolution_w", 0.25),
            gauge_noise_w=data.get("gauge_noise_w", 0.0),
        )

    def __repr__(self):
        return (f"DeviceProfile({self.device_id!r}, "
                f"battery_scale={self.battery_scale}, "
                f"multipliers={self.multipliers})")


def generate_device(fleet_seed, device_id, components=DEFAULT_COMPONENTS):
    """One deterministic device: every field from sha256(seed, id, field)."""
    return DeviceProfile(
        device_id,
        multipliers={
            name: _draw(fleet_seed, device_id, f"mult/{name}",
                        *MULTIPLIER_RANGE)
            for name in components
        },
        battery_scale=_draw(fleet_seed, device_id, "battery_scale",
                            *BATTERY_SCALE_RANGE),
        gauge_period=_draw(fleet_seed, device_id, "gauge_period",
                           *GAUGE_PERIOD_RANGE),
        gauge_resolution_w=_draw(fleet_seed, device_id, "gauge_resolution_w",
                                 *GAUGE_RESOLUTION_RANGE),
        gauge_noise_w=_draw(fleet_seed, device_id, "gauge_noise_w",
                            *GAUGE_NOISE_RANGE),
    )


def generate_fleet(size, fleet_seed, components=DEFAULT_COMPONENTS):
    """``size`` byte-stable devices ``dev00..devNN`` for ``fleet_seed``."""
    if size <= 0:
        raise ValueError(f"fleet size must be positive: {size}")
    return [
        generate_device(fleet_seed, f"dev{index:02d}", components=components)
        for index in range(size)
    ]


def write_fleet(profiles, path, fleet_seed=None):
    """Serialize a fleet to a canonical-JSON calibration file."""
    payload = {
        "kind": FLEET_KIND,
        "version": FLEET_VERSION,
        "devices": [profile.to_dict() for profile in profiles],
    }
    if fleet_seed is not None:
        payload["fleet_seed"] = fleet_seed
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_fleet(path):
    """Load a fleet calibration file written by :func:`write_fleet`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("kind") != FLEET_KIND:
        raise ValueError(f"not a device-fleet file: {path}")
    if payload.get("version") != FLEET_VERSION:
        raise ValueError(
            f"unsupported device-fleet version {payload.get('version')}")
    entries = payload.get("devices", [])
    if not isinstance(entries, list):
        raise ValueError(f"fleet file devices must be a list: {path}")
    devices = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "device_id" not in entry:
            raise ValueError(f"device {index} in {path} has no device_id")
        devices.append(DeviceProfile.from_dict(entry))
    if not devices:
        raise ValueError(f"fleet file has no devices: {path}")
    seen = set()
    for device in devices:
        if device.device_id in seen:
            raise ValueError(f"duplicate device_id {device.device_id!r}")
        seen.add(device.device_id)
    return devices
