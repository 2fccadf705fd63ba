"""Resource expectations: the original Odyssey adaptation API.

Section 2.2 of the paper: "Odyssey allows each application to specify
the fidelity levels it currently supports, along with a set of API
extensions for expressing resource expectations.  If resource levels
stray beyond an application's expectation, Odyssey notifies it through
an upcall.  The application then adjusts its fidelity to match the new
resource level, and communicates a new set of expectations to Odyssey."

This module implements that loop for an arbitrary scalar resource
(network bandwidth in the initial Odyssey prototype).  Applications
register a :class:`ResourceWindow` plus an upcall; the registry is
checked against the monitored level, and on violation the application's
upcall runs and must return the *new* window (re-registering its
expectation).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ResourceWindow",
    "ExpectationRegistry",
    "ExpectationMonitor",
    "ExpectationError",
]


class ExpectationError(Exception):
    """Invalid expectation registration."""


@dataclass(frozen=True)
class ResourceWindow:
    """A tolerance window [low, high] on a scalar resource level."""

    low: float
    high: float

    def __post_init__(self):
        if self.low < 0 or self.high < self.low:
            raise ExpectationError(
                f"invalid window [{self.low}, {self.high}]"
            )

    def contains(self, level):
        return self.low <= level <= self.high


class _Expectation:
    __slots__ = ("name", "window", "upcall", "violations")

    def __init__(self, name, window, upcall):
        self.name = name
        self.window = window
        self.upcall = upcall
        self.violations = 0


class ExpectationRegistry:
    """Tracks per-application expectations for one resource.

    Parameters
    ----------
    resource_name:
        Resource being tracked (e.g. ``"bandwidth"``), for messages.
    """

    def __init__(self, resource_name):
        self.resource_name = resource_name
        self._expectations = {}
        self.upcalls_delivered = 0

    def register(self, name, window, upcall):
        """Register (or replace) an application's expectation.

        ``upcall(level, window)`` runs on violation and must return the
        application's new :class:`ResourceWindow` (or ``None`` to keep
        the old one, e.g. when the app cannot adapt further).
        """
        if not isinstance(window, ResourceWindow):
            raise ExpectationError(f"{name}: window must be a ResourceWindow")
        self._expectations[name] = _Expectation(name, window, upcall)

    def unregister(self, name):
        self._expectations.pop(name, None)

    def window_of(self, name):
        """The currently registered window for an application."""
        expectation = self._expectations.get(name)
        return expectation.window if expectation else None

    def check(self, level):
        """Compare ``level`` against every expectation; deliver upcalls.

        Returns the list of application names notified.
        """
        notified = []
        for expectation in list(self._expectations.values()):
            if expectation.window.contains(level):
                continue
            expectation.violations += 1
            self.upcalls_delivered += 1
            notified.append(expectation.name)
            new_window = expectation.upcall(level, expectation.window)
            if new_window is not None:
                if not isinstance(new_window, ResourceWindow):
                    raise ExpectationError(
                        f"{expectation.name}: upcall must return a "
                        f"ResourceWindow or None"
                    )
                expectation.window = new_window
        return notified


class ExpectationMonitor:
    """Periodically compares a resource level against a registry.

    This is the viceroy's resource-monitoring loop: ``level_fn()``
    produces the current level (e.g. a bandwidth estimator's EWMA) and
    the registry delivers upcalls to applications whose expectation
    windows it violates.
    """

    def __init__(self, sim, registry, level_fn, period=1.0):
        if period <= 0:
            raise ExpectationError(f"period must be positive, got {period}")
        self.sim = sim
        self.registry = registry
        self.level_fn = level_fn
        self.period = period
        self.checks = 0
        self._running = False
        tracer = getattr(sim, "tracer", None)
        self._trace = tracer.gate("core") if tracer is not None else None

    def start(self):
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.period, self._tick)

    def stop(self):
        self._running = False

    def _tick(self, _time):
        if not self._running:
            return
        level = self.level_fn()
        if level is not None:
            self.checks += 1
            notified = self.registry.check(level)
            if notified and self._trace is not None:
                for name in notified:
                    self._trace.instant(
                        self.sim.now, "core", "expectation.violation",
                        track="expectations",
                        args={
                            "application": name,
                            "resource": self.registry.resource_name,
                            "level": level,
                        },
                    )
        self.sim.schedule(self.period, self._tick)
