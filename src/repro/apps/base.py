"""Base class for adaptive applications.

An adaptive application owns a fidelity ladder and implements the
adaptation protocol the viceroy's priority ladder drives: it can report
whether it may degrade/upgrade, perform the step, and expose its
current level.  Fidelity is read at work-item boundaries (the next
frame, the next utterance, the next fetch), so an upcall takes effect
at the next item exactly as in Odyssey.
"""

from __future__ import annotations

from repro.core.fidelity import FidelityLadder

__all__ = ["AdaptiveApplication"]


class AdaptiveApplication:
    """Common adaptation machinery for the four applications.

    Parameters
    ----------
    name:
        Application name (unique within a viceroy).
    machine:
        The client :class:`~repro.hardware.Machine`.
    levels:
        Fidelity level names, lowest first.
    priority:
        Static user-specified priority (larger = more important).
    start_level:
        Initial fidelity; defaults to the highest.
    """

    #: process name under which this app's CPU time is attributed
    process_name = "app"

    def __init__(self, name, machine, levels, priority=1, start_level=None):
        self.name = name
        self.machine = machine
        self.sim = machine.sim
        self.priority = priority
        self.ladder = FidelityLadder(name, list(levels), start=start_level)
        self.items_completed = 0

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name} fidelity={self.fidelity!r} "
            f"priority={self.priority}>"
        )

    # ------------------------------------------------------------------
    # adaptation protocol (consumed by repro.core.priority)
    # ------------------------------------------------------------------
    @property
    def fidelity(self):
        """Current fidelity level name."""
        return self.ladder.current

    def can_degrade(self):
        return not self.ladder.at_bottom

    def can_upgrade(self):
        return not self.ladder.at_top

    def degrade(self):
        level = self.ladder.degrade()
        self.on_fidelity_change(level)
        return level

    def upgrade(self):
        level = self.ladder.upgrade()
        self.on_fidelity_change(level)
        return level

    def set_fidelity(self, level):
        """Jump straight to a named level (experiment configuration)."""
        result = self.ladder.set_level(level)
        self.on_fidelity_change(result)
        return result

    @property
    def fidelity_level(self):
        return self.ladder.current

    @property
    def fidelity_normalized(self):
        return self.ladder.normalized()

    def on_fidelity_change(self, level):
        """Hook for subclasses (e.g. resize the display window)."""

    # ------------------------------------------------------------------
    # display geometry (consumed by the zoned-backlighting study)
    # ------------------------------------------------------------------
    def window_rect(self):
        """Current on-screen window, or ``None`` for headless apps."""
        return None

    # ------------------------------------------------------------------
    def think(self, seconds):
        """Generator: user think time (idle, content stays visible)."""
        if seconds > 0:
            yield self.sim.timeout(seconds)
