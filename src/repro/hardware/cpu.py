"""CPU power model.

The ThinkPad 560X's baseline ("Other" in the paper's Figure 4) power of
3.20 W already includes the processor halted in the kernel idle loop
(a Pentium ``hlt`` instruction).  The CPU component models the *extra*
draw above that floor in three states:

* ``halt`` — idle with hardware power management: the kernel issues
  ``hlt``; no extra draw (this is the Figure 4 operating point).
* ``poll`` — idle *without* power management: the paper's baseline
  disables hardware power management, which includes the CPU-slowing /
  idle-halt techniques it cites (Weiser et al., Lorch & Smith), so the
  idle loop spins and draws a small extra amount.
* ``busy`` — executing application code.

Which idle state the CPU falls back to after a burst is the *resting
state*, selected by :class:`~repro.hardware.power_mgmt.PowerManager`.
"""

from __future__ import annotations

from repro.hardware.component import PowerComponent

__all__ = ["Cpu"]


class Cpu(PowerComponent):
    """Processor with halt / poll / busy states (watts are extra over base)."""

    HALT = "halt"
    POLL = "poll"
    BUSY = "busy"
    # Backwards-compatible alias: "idle" means the current resting state.
    IDLE = "idle"

    def __init__(self, busy_extra_watts, poll_extra_watts=0.0, name="cpu"):
        super().__init__(
            name,
            states={
                self.HALT: 0.0,
                self.POLL: poll_extra_watts,
                self.BUSY: busy_extra_watts,
            },
            initial=self.HALT,
        )
        self._resting_state = self.HALT

    def set_resting_state(self, state):
        """Select the idle policy (power management chooses halt)."""
        if state not in (self.HALT, self.POLL):
            raise ValueError(f"invalid CPU resting state {state!r}")
        self._resting_state = state
        if self.state != self.BUSY:
            self.set_state(state)

    def set_state(self, state):
        # Resolve the generic "idle" request to the configured policy,
        # then transition inline: every compute burst makes two CPU
        # transitions, so each takes one Python call, not two.
        if state == self.IDLE:
            state = self._resting_state
        states = self.states
        if state not in states:
            raise self._unknown_state(state)
        if state == self.state:
            return
        if self._pre_change is not None:
            self._pre_change()
        old, self.state = self.state, state
        self.watts = states[state]
        for observer in self._observers:
            observer(self, old, state)

    def busy(self):
        """Enter the busy state (a compute burst is executing)."""
        self.set_state(self.BUSY)

    def idle(self):
        """Return to the configured idle state (halt or poll)."""
        self.set_state(self._resting_state)
