"""Edge-case tests for the goal-directed controller."""

import pytest

from repro.core import GoalDirectedController, Viceroy
from repro.hardware import ExternalSupply, Machine, PowerComponent
from repro.powerscope import OnlinePowerMonitor
from repro.sim import Simulator


def bare_controller(goal_seconds=60.0, initial_energy=1000.0, **kwargs):
    sim = Simulator()
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 5.0}, "on"))
    viceroy = Viceroy(sim)
    monitor = OnlinePowerMonitor(machine, period=0.1)
    controller = GoalDirectedController(
        viceroy, monitor, initial_energy=initial_energy,
        goal_seconds=goal_seconds, **kwargs,
    )
    return sim, machine, controller


class TestControllerEdges:
    def test_negative_goal_rejected(self):
        with pytest.raises(ValueError):
            bare_controller(goal_seconds=-1.0)

    def test_double_start_is_idempotent(self):
        sim, machine, controller = bare_controller()
        controller.start()
        controller.start()
        sim.run(until=5.0)
        assert controller.decisions > 0

    def test_stop_halts_decisions(self):
        sim, machine, controller = bare_controller()
        controller.start()
        sim.run(until=5.0)
        count = controller.decisions
        controller.stop()
        sim.run(until=20.0)
        assert controller.decisions == count

    def test_time_remaining_before_start(self):
        _sim, _machine, controller = bare_controller(goal_seconds=60.0)
        assert controller.time_remaining == 60.0

    def test_time_remaining_clamps_at_zero(self):
        sim, machine, controller = bare_controller(goal_seconds=10.0)
        controller.start()
        sim.run(until=15.0)
        assert controller.time_remaining == 0.0
        assert controller.goal_reached

    def test_predicted_demand_zero_before_samples(self):
        _sim, _machine, controller = bare_controller()
        assert controller.predicted_demand() == 0.0

    def test_no_applications_registered_reports_infeasible(self):
        """A bare viceroy can never degrade: an unmeetable goal is
        reported infeasible instead of silently thrashing."""
        alerts = []
        sim, machine, controller = bare_controller(
            goal_seconds=600.0, initial_energy=100.0,  # 5 W needs 3000 J
            on_infeasible=lambda t, d, r: alerts.append(t),
        )
        controller.start()
        sim.run(until=30.0)
        assert controller.infeasible_reported
        assert len(alerts) == 1  # reported once, not repeatedly

    def test_summary_shape_before_start(self):
        _sim, _machine, controller = bare_controller()
        summary = controller.summary()
        assert summary["goal_reached"] is False
        assert summary["decisions"] == 0

    def test_extend_goal_with_energy_credit(self):
        sim, machine, controller = bare_controller(
            goal_seconds=60.0, initial_energy=1000.0
        )
        controller.start()
        sim.run(until=10.0)
        before = controller.supply.residual
        controller.extend_goal(30.0, extra_energy=500.0)
        assert controller.goal_seconds == pytest.approx(90.0)
        assert controller.supply.residual == pytest.approx(before + 500.0)
