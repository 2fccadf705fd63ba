"""User think-time models (paper Sections 3.5–3.6).

Viewing a map or Web page includes a period during which the user
absorbs the content; energy consumed keeping the content visible is
charged to the application.  The paper uses a 5-second default with
sensitivity analysis at 0, 10 and 20 seconds; Section 5's longer
experiments also interleave five-second think times.
"""

from __future__ import annotations

import random

__all__ = ["DEFAULT_THINK_S", "THINK_SWEEP_S", "FixedThinkTime", "RandomThinkTime"]

DEFAULT_THINK_S = 5.0
THINK_SWEEP_S = (0.0, 5.0, 10.0, 20.0)


class FixedThinkTime:
    """Deterministic think time (the paper's experimental control)."""

    def __init__(self, seconds=DEFAULT_THINK_S):
        if seconds < 0:
            raise ValueError(f"think time must be >= 0, got {seconds}")
        self.seconds = seconds

    def next(self):
        """Next think time (always the constant)."""
        return self.seconds


class RandomThinkTime:
    """Uniformly jittered think time for less synthetic workloads."""

    def __init__(self, mean=DEFAULT_THINK_S, spread=0.5, seed=0):
        if mean < 0 or not 0 <= spread <= 1:
            raise ValueError(f"invalid think-time model mean={mean} spread={spread}")
        self.mean = mean
        self.spread = spread
        self.seed = seed
        self._rng = random.Random(seed)

    def next(self):
        low = self.mean * (1 - self.spread)
        high = self.mean * (1 + self.spread)
        return self._rng.uniform(low, high)
