"""repro.devices: per-device power-model variation and self-calibration.

Three layers (see ``docs/architecture.md``, "Device fleets &
self-calibration"):

- :mod:`repro.devices.profile` — :class:`DeviceProfile` descriptors
  and byte-stable generated fleets (``sha256(fleet_seed, device_id)``).
- :mod:`repro.devices.calibrate` — Sesame-style
  :class:`OnlineCalibrator` recovering per-component power models from
  coarse SmartBattery readings, with injectable mid-run drift.

The per-device × per-policy robustness matrix (``repro sweep
--fleet-size N --diff-against ...``) is the policy diff matrix with a
device axis, :mod:`repro.fleet.diffmatrix`;
:mod:`repro.devices.fleetmatrix` keeps its fleet-named aliases.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CalibratedPowerFeed",
    "DEFAULT_COMPONENTS",
    "DeviceProfile",
    "FleetMatrix",
    "LearnedPowerModel",
    "OnlineCalibrator",
    "fleet_from_result",
    "fleet_from_values",
    "fleet_matrix_campaign",
    "generate_device",
    "generate_fleet",
    "load_fleet",
    "parse_drift",
    "schedule_drift",
    "write_fleet",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "calibrate": ("CalibratedPowerFeed", "LearnedPowerModel",
                  "OnlineCalibrator", "parse_drift", "schedule_drift"),
    "fleetmatrix": ("FleetMatrix", "fleet_from_result", "fleet_from_values",
                    "fleet_matrix_campaign"),
    "profile": ("DEFAULT_COMPONENTS", "DeviceProfile", "generate_device",
                "generate_fleet", "load_fleet", "write_fleet"),
})
