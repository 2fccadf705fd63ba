"""Odyssey core: fidelity adaptation and goal-directed energy management."""

from repro._lazy import lazy_exports

__all__ = [
    "FidelityLadder",
    "FidelityError",
    "Warden",
    "WardenError",
    "Viceroy",
    "Upcall",
    "EnergySupply",
    "DemandPredictor",
    "alpha_for_halflife",
    "AdaptationTrigger",
    "HOLD",
    "DEGRADE",
    "UPGRADE",
    "PriorityLadder",
    "GoalDirectedController",
    "Odyssey",
    "MEASURED_OVERHEAD_W",
    "DiskCache",
    "CacheError",
    "ResourceWindow",
    "ExpectationRegistry",
    "ExpectationMonitor",
    "ExpectationError",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "cache": ("CacheError", "DiskCache"),
    "demand": ("DemandPredictor", "alpha_for_halflife"),
    "expectations": ("ExpectationError", "ExpectationMonitor",
                     "ExpectationRegistry", "ResourceWindow"),
    "fidelity": ("FidelityError", "FidelityLadder"),
    "goal": ("GoalDirectedController",),
    "hysteresis": ("DEGRADE", "HOLD", "UPGRADE", "AdaptationTrigger"),
    "odyssey": ("MEASURED_OVERHEAD_W", "Odyssey"),
    "priority": ("PriorityLadder",),
    "supply": ("EnergySupply",),
    "upcalls": ("Upcall",),
    "viceroy": ("Viceroy",),
    "warden": ("Warden", "WardenError"),
})
