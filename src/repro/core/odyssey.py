"""The Odyssey facade: one object wiring the whole platform together.

Composes the machine's online power feed, the viceroy, and (optionally)
a goal-directed controller, so applications and experiments interact
with a single entry point — the shape of the client architecture in the
paper's Figure 3.
"""

from __future__ import annotations

from repro.core.goal import GoalDirectedController
from repro.core.viceroy import Viceroy
from repro.powerscope.online import OnlinePowerMonitor

__all__ = ["Odyssey", "MEASURED_OVERHEAD_W"]

# Paper Section 5.1.4: the measured prediction overhead of the prototype
# is 4 mW; with a SmartBattery-style measurement source the total power
# overhead is expected to stay under 14 mW.
MEASURED_OVERHEAD_W = 0.004


class Odyssey:
    """Energy-aware adaptation platform bound to one client machine."""

    def __init__(self, machine, sample_period=0.1, model_overhead=False,
                 monitor=None):
        self.machine = machine
        self.sim = machine.sim
        # The viceroy shares the machine's metrics registry and stamps
        # its trace events with the machine's power-journal span ids.
        self.viceroy = Viceroy(
            self.sim, machine=machine,
            metrics=getattr(machine, "metrics", None),
        )
        self.metrics = self.viceroy.metrics
        # Power source: the on-line PowerScope by default, or any object
        # with the same subscribe/start interface — e.g. the coarse
        # SmartBatteryGauge the paper proposes for deployment (§5.1.1).
        self.monitor = monitor or OnlinePowerMonitor(machine, period=sample_period)
        self.controller = None
        if model_overhead:
            # Charge Odyssey's own prediction cost to the machine, as
            # an always-on component — completeness over significance
            # (4 mW is 0.07 % of background power).
            from repro.hardware.component import PowerComponent

            machine.attach(
                PowerComponent(
                    "odyssey-overhead", {"on": MEASURED_OVERHEAD_W}, "on"
                )
            )

    # ------------------------------------------------------------------
    # delegation to the viceroy
    # ------------------------------------------------------------------
    def register_warden(self, warden):
        return self.viceroy.register_warden(warden)

    def register_application(self, application):
        return self.viceroy.register_application(application)

    # ------------------------------------------------------------------
    # goal-directed adaptation
    # ------------------------------------------------------------------
    def set_goal(self, initial_energy, goal_seconds, **controller_kwargs):
        """Create (but do not start) a goal-directed controller."""
        self.controller = GoalDirectedController(
            self.viceroy,
            self.monitor,
            initial_energy=initial_energy,
            goal_seconds=goal_seconds,
            **controller_kwargs,
        )
        return self.controller

    def start(self):
        """Start adaptation (requires :meth:`set_goal` first)."""
        if self.controller is None:
            raise RuntimeError("set_goal must be called before start")
        self.controller.start()

    def summary(self):
        """Experiment summary from the active controller."""
        if self.controller is None:
            raise RuntimeError("no goal-directed controller configured")
        return self.controller.summary()
