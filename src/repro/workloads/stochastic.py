"""The stochastic bursty workload of paper Section 5.4.

Each of the four applications independently alternates between active
and idle minutes.  During any given minute an application keeps its
state with probability 0.9 and switches with probability 0.1.  An
active application executes a fixed one-minute workload; an idle one
does nothing.  Five different random seeds give the five trials of
Figure 22.
"""

from __future__ import annotations

import random

__all__ = ["BurstySchedule", "generate_schedules"]


class BurstySchedule:
    """A minute-by-minute active/idle schedule for one application."""

    STAY_PROBABILITY = 0.9

    def __init__(self, name, minutes, seed, initially_active=True):
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)
        states = []
        active = initially_active
        for _minute in range(minutes):
            states.append(active)
            if self._rng.random() >= self.STAY_PROBABILITY:
                active = not active
        self.states = states

    def __len__(self):
        return len(self.states)

    def active_in_minute(self, minute):
        """True when the application should run during ``minute``."""
        if not 0 <= minute < len(self.states):
            raise IndexError(f"minute {minute} outside schedule")
        return self.states[minute]

    @property
    def duty_cycle(self):
        """Fraction of minutes active."""
        if not self.states:
            return 0.0
        return sum(self.states) / len(self.states)


def generate_schedules(app_names, minutes, seed):
    """One schedule per application, derived from a single trial seed."""
    return {
        name: BurstySchedule(name, minutes, seed=seed * 1009 + i)
        for i, name in enumerate(app_names)
    }
