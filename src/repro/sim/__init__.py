"""Discrete-event simulation kernel used by every substrate in the repo.

Public surface:

* :class:`~repro.sim.engine.Simulator` — clock + event queue
* :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.Event` —
  waitable primitives
* :class:`~repro.sim.process.Process` — generator-based processes
* :class:`~repro.sim.resources.Resource` — FIFO contention

Events are recorded by the tracer (:mod:`repro.obs`), which the
simulator resolves at construction; the kernel keeps no record of its
own.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Simulator",
    "Timeout",
    "Event",
    "Waitable",
    "Process",
    "Resource",
    "ResourceGrant",
    "QuantumScheduler",
    "SimulationError",
    "SchedulingError",
    "ProcessError",
    "ResourceError",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "engine": ("Event", "Simulator", "Timeout", "Waitable"),
    "errors": ("ProcessError", "ResourceError", "SchedulingError",
               "SimulationError"),
    "process": ("Process",),
    "resources": ("Resource", "ResourceGrant"),
    "scheduler": ("QuantumScheduler",),
})
