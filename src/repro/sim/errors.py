"""Exception types raised by the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (e.g. yielded a non-waitable)."""


class ResourceError(SimulationError):
    """Invalid resource operation (e.g. releasing a resource not held)."""
