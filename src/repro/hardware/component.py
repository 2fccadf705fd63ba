"""Power-state machines for hardware components.

Each component (display, disk, wireless NIC, CPU) is a named set of
power states, each drawing a constant number of watts.  The
:class:`~repro.hardware.machine.Machine` owns the composition: it sums
component draws, applies the superlinear correction the paper measured,
and integrates energy over simulated time.

Components must notify the machine *before* changing state so that the
energy consumed in the outgoing state is integrated at the old power
level — state changes are edges in a piecewise-constant power signal.

Each component keeps its current draw in a plain ``watts`` attribute,
which the machine sums.  The contract for component authors is
``_pre_change`` before, ``watts`` refreshed after: the hook (pointed by
``Machine.attach`` at
:meth:`~repro.hardware.machine.Machine.power_will_change`) integrates
at the old power and invalidates the machine's cached total, and
:meth:`PowerComponent._refresh_watts` recomputes the draw.  Mutate
through ``set_state``, ``ZonedDisplay.set_zone`` or ``scale``; a path
that skips either half corrupts the energy integral or the cached
total.  See docs/architecture.md ("Performance").
"""

from __future__ import annotations

__all__ = ["HardwareError", "PowerComponent"]


class HardwareError(Exception):
    """Invalid hardware operation (unknown state, duplicate name, ...)."""


class PowerComponent:
    """A hardware component with named constant-power states.

    Parameters
    ----------
    name:
        Component name, unique within a machine (e.g. ``"display"``).
    states:
        Mapping of state name to watts drawn in that state.
    initial:
        Starting state name.

    Examples
    --------
    >>> disk = PowerComponent("disk", {"standby": 0.16, "idle": 0.88}, "idle")
    >>> disk.power
    0.88
    >>> disk.set_state("standby")
    >>> disk.power
    0.16
    """

    def __init__(self, name, states, initial):
        if not states:
            raise HardwareError(f"{name}: at least one power state is required")
        for state, watts in states.items():
            if watts < 0:
                raise HardwareError(f"{name}.{state}: negative power {watts}")
        if initial not in states:
            raise HardwareError(f"{name}: unknown initial state {initial!r}")
        self.name = name
        self.states = dict(states)
        self.state = initial
        self._pre_change = None  # set by Machine.attach
        self._observers = []
        self._refresh_watts()

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} state={self.state} {self.power:.2f}W>"

    @property
    def power(self):
        """Watts drawn in the current state."""
        return self.watts

    def _refresh_watts(self):
        """Recompute :attr:`watts` after a power-affecting mutation."""
        self.watts = self.states[self.state]

    def _unknown_state(self, state):
        return HardwareError(f"{self.name}: unknown state {state!r} "
                             f"(valid: {sorted(self.states)})")

    def set_state(self, state):
        """Transition to ``state``, integrating energy up to this instant."""
        if state not in self.states:
            raise self._unknown_state(state)
        if state == self.state:
            return
        if self._pre_change is not None:
            self._pre_change()
        old, self.state = self.state, state
        self._refresh_watts()
        for observer in self._observers:
            observer(self, old, state)

    def scale(self, factor):
        """Multiply every state's watts by ``factor`` (a device profile
        or a drift), integrating energy up to this instant first."""
        if self._pre_change is not None:
            self._pre_change()
        self.states = {state: watts * factor
                       for state, watts in self.states.items()}
        self._refresh_watts()

    def observe(self, callback):
        """Register ``callback(component, old_state, new_state)``."""
        self._observers.append(callback)

    def is_off(self):
        """True when the component draws no power at all."""
        return self.watts == 0.0
