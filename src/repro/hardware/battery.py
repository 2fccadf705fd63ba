"""Energy supplies: an ideal battery and an external power supply.

The paper removed the laptop battery and powered the client externally
to avoid confounding effects of non-ideal battery behaviour, while the
goal-directed experiments (Section 5) still *account* against a fixed
initial energy value.  Both modes are modeled:

* :class:`ExternalSupply` — never exhausts; used when only measuring.
* :class:`Battery` — finite reservoir drained by the machine; exposes
  residual energy and an exhaustion flag so experiments can detect a
  missed battery-duration goal.
"""

from __future__ import annotations

__all__ = ["SupplyError", "ExternalSupply", "Battery"]


class SupplyError(Exception):
    """Invalid supply operation (negative capacity or drain)."""


class ExternalSupply:
    """Wall power: infinite energy, still tracks total drawn."""

    def __init__(self):
        self.drawn = 0.0

    def drain(self, joules):
        if joules < 0:
            raise SupplyError(f"cannot drain negative energy {joules}")
        self.drawn += joules

    @property
    def exhausted(self):
        return False

    @property
    def residual(self):
        return float("inf")


class Battery:
    """An ideal (voltage-flat, rate-independent) energy reservoir.

    The nominal ThinkPad 560X battery holds roughly 90 000 J (the
    paper's Figure 22 uses this as "roughly matching a fully-charged
    ThinkPad 560X battery"); the Section 5 experiments deliberately use
    a small 12 000–13 000 J supply to keep runs short.
    """

    def __init__(self, capacity_joules):
        if capacity_joules <= 0:
            raise SupplyError(f"capacity must be positive, got {capacity_joules}")
        self.capacity = float(capacity_joules)
        self.drawn = 0.0

    def drain(self, joules):
        """Remove ``joules`` from the reservoir (clamps at empty)."""
        if joules < 0:
            raise SupplyError(f"cannot drain negative energy {joules}")
        self.drawn = min(self.capacity, self.drawn + joules)

    def charge(self, joules):
        """Grow the reservoir mid-run (battery swap, revised estimate)."""
        if joules < 0:
            raise SupplyError(f"cannot charge negative energy {joules}")
        self.capacity += joules

    @property
    def residual(self):
        """Joules remaining."""
        return self.capacity - self.drawn

    @property
    def exhausted(self):
        """True once the reservoir is empty."""
        return self.residual <= 0.0

    @property
    def fraction_remaining(self):
        """Residual energy as a fraction of capacity."""
        return self.residual / self.capacity

    # snapshot protocol (repro.snapshot) — no heap entries to claim
    def __snapshot__(self, ctx):
        return {"capacity": self.capacity, "drawn": self.drawn}

    def __restore__(self, state, ctx):
        # Capacity is runtime state, not a build constant: charge() can
        # have grown it between construction and capture.
        self.capacity = state["capacity"]
        self.drawn = state["drawn"]
