"""Tests for the viceroy, upcalls, and the goal-directed controller."""

import pytest

from repro.core import (
    FidelityLadder,
    GoalDirectedController,
    Odyssey,
    Viceroy,
    Warden,
    WardenError,
)
from repro.hardware import Machine, ExternalSupply, PowerComponent, build_machine
from repro.powerscope import OnlinePowerMonitor
from repro.obs import Tracer
from repro.sim import Simulator


class StubApp:
    """Adaptive app whose fidelity directly scales a power component.

    Lets controller tests use a machine whose draw responds to
    adaptation: each degrade step drops the app's component power.
    """

    def __init__(self, name, priority, component, watts_by_level):
        self.name = name
        self.priority = priority
        self.component = component
        self.watts_by_level = watts_by_level
        self.ladder = FidelityLadder(name, list(watts_by_level))
        self._apply()

    def _apply(self):
        self.component.set_state(self.ladder.current)

    def can_degrade(self):
        return not self.ladder.at_bottom

    def can_upgrade(self):
        return not self.ladder.at_top

    def degrade(self):
        level = self.ladder.degrade()
        self._apply()
        return level

    def upgrade(self):
        level = self.ladder.upgrade()
        self._apply()
        return level

    def fidelity_level(self):
        return self.ladder.current

    def fidelity_normalized(self):
        return self.ladder.normalized()


def make_adaptive_rig(initial_energy, goal_seconds, levels=None,
                      tracer=None, **kwargs):
    """Machine with one adaptive load + controller, ready to start."""
    levels = levels or {"low": 2.0, "mid": 5.0, "high": 8.0}
    sim = Simulator(tracer=tracer)
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
    load = machine.attach(
        PowerComponent("load", dict(levels), list(levels)[-1])
    )
    viceroy = Viceroy(sim)
    app = StubApp("app", 1, load, levels)
    viceroy.register_application(app)
    monitor = OnlinePowerMonitor(machine, period=0.1)
    controller = GoalDirectedController(
        viceroy, monitor,
        initial_energy=initial_energy,
        goal_seconds=goal_seconds,
        **kwargs,
    )
    return sim, machine, app, controller


class TestViceroy:
    def test_warden_registry(self):
        sim = Simulator()
        viceroy = Viceroy(sim)
        warden = viceroy.register_warden(Warden("video"))
        assert viceroy.warden_for("video") is warden

    def test_duplicate_warden_rejected(self):
        sim = Simulator()
        viceroy = Viceroy(sim)
        viceroy.register_warden(Warden("video"))
        with pytest.raises(WardenError):
            viceroy.register_warden(Warden("video"))

    def test_missing_warden_raises(self):
        with pytest.raises(WardenError):
            Viceroy(Simulator()).warden_for("ghost")

    def test_degrade_upcall_logged_with_time_and_level(self):
        sim = Simulator(start_time=7.0)
        machine = Machine(sim, ExternalSupply())
        comp = machine.attach(PowerComponent("load", {"a": 1.0, "b": 2.0}, "b"))
        viceroy = Viceroy(sim)
        viceroy.register_application(StubApp("app", 1, comp, {"a": 1.0, "b": 2.0}))
        upcall = viceroy.degrade_once()
        assert upcall.time == 7.0
        assert upcall.kind == "degrade"
        assert upcall.application == "app"
        assert upcall.new_level == "a"
        assert viceroy.adaptation_counts() == {"app": 1}

    def test_degrade_returns_none_when_exhausted(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply())
        comp = machine.attach(PowerComponent("load", {"a": 1.0}, "a"))
        viceroy = Viceroy(sim)
        viceroy.register_application(StubApp("app", 1, comp, {"a": 1.0}))
        assert viceroy.degrade_once() is None

    def test_fidelity_recorded_on_timeline(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = Machine(sim, ExternalSupply())
        comp = machine.attach(PowerComponent("load", {"a": 1.0, "b": 2.0}, "b"))
        viceroy = Viceroy(sim)
        viceroy.register_application(StubApp("app", 1, comp, {"a": 1.0, "b": 2.0}))
        viceroy.degrade_once()
        records = [e for e in tracer.events if e.name == "fidelity"]
        assert len(records) == 2  # registration + degrade
        assert records[-1].args["level"] == "a"


class TestGoalDirectedController:
    def test_infeasible_goal_rejected_upfront(self):
        with pytest.raises(ValueError):
            make_adaptive_rig(initial_energy=100.0, goal_seconds=0.0)

    def test_plentiful_energy_keeps_full_fidelity(self):
        # 10 W high fidelity for 60 s = 600 J; give 1000 J.
        sim, machine, app, controller = make_adaptive_rig(1000.0, 60.0)
        controller.start()
        sim.run(until=61.0)
        assert controller.goal_reached
        assert app.ladder.current == "high"

    def test_scarce_energy_forces_degradation(self):
        # 10 W for 60 s needs 600 J; give only 350 J -> must degrade.
        sim, machine, app, controller = make_adaptive_rig(350.0, 60.0)
        controller.start()
        sim.run(until=61.0)
        assert controller.goal_reached
        assert app.ladder.index < app.ladder.levels.index("high")
        # Odyssey's belief must not be exhausted before the goal.
        assert controller.supply.residual > 0.0

    def test_goal_met_within_supply_across_range(self):
        """The headline property: the energy lasts for the duration."""
        for energy in (300.0, 400.0, 500.0):
            sim, machine, app, controller = make_adaptive_rig(energy, 60.0)
            controller.start()
            sim.run(until=61.0)
            assert controller.goal_reached
            assert controller.supply.residual > 0.0, f"failed at {energy} J"

    def test_supply_belief_tracks_machine_ground_truth(self):
        sim, machine, app, controller = make_adaptive_rig(1000.0, 60.0)
        controller.start()
        sim.run(until=30.0)
        machine.advance()
        believed = controller.supply.consumed
        assert believed == pytest.approx(machine.energy_total, rel=0.02)

    def test_upgrades_rate_capped(self):
        # Start at lowest fidelity with abundant energy: upgrades should
        # be spaced at least upgrade_min_interval apart.
        sim, machine, app, controller = make_adaptive_rig(
            10_000.0, 120.0, upgrade_min_interval=15.0
        )
        app.ladder.set_level("low")
        app._apply()
        controller.start()
        sim.run(until=121.0)
        upgrades = [u for u in controller.viceroy.upcalls if u.kind == "upgrade"]
        assert upgrades, "expected at least one upgrade"
        gaps = [b.time - a.time for a, b in zip(upgrades, upgrades[1:])]
        assert all(gap >= 15.0 - 1e-9 for gap in gaps)

    def test_infeasible_duration_reported(self):
        # Even lowest fidelity (4 W total) cannot last 60 s on 30 J.
        alerts = []
        sim, machine, app, controller = make_adaptive_rig(30.0, 60.0)
        controller.on_infeasible = lambda t, demand, residual: alerts.append(t)
        controller.start()
        sim.run(until=20.0)
        assert controller.infeasible_reported
        assert alerts and alerts[0] < 10.0  # alerted early

    def test_extend_goal_moves_deadline(self):
        sim, machine, app, controller = make_adaptive_rig(10_000.0, 60.0)
        controller.start()
        sim.run(until=30.0)
        controller.extend_goal(30.0)
        sim.run(until=61.0)
        assert not controller.goal_reached
        sim.run(until=91.0)
        assert controller.goal_reached

    def test_extend_goal_rejects_negative(self):
        sim, machine, app, controller = make_adaptive_rig(100.0, 60.0)
        with pytest.raises(ValueError):
            controller.extend_goal(-5.0)

    def test_timeline_records_supply_and_demand_series(self):
        tracer = Tracer(categories={"core"})
        sim, machine, app, controller = make_adaptive_rig(
            1000.0, 60.0, tracer=tracer,
        )
        controller.start()
        sim.run(until=61.0)
        events = list(tracer.events)
        times = [e.ts for e in events if e.name == "supply_j"]
        supply = [e.args["value"] for e in events if e.name == "supply_j"]
        demand = [e.args["value"] for e in events if e.name == "demand_j"]
        assert len(times) > 50
        assert supply[0] > supply[-1]  # monotone drain
        # Demand tracks supply closely once adaptation settles (Fig 19).
        assert demand[-1] <= supply[-1] * 1.1 + 1.0

    def test_summary_fields(self):
        sim, machine, app, controller = make_adaptive_rig(1000.0, 60.0)
        controller.start()
        sim.run(until=61.0)
        summary = controller.summary()
        assert summary["goal_reached"] is True
        assert "app" in summary["adaptations"]
        assert summary["decisions"] > 0


class TestOdysseyFacade:
    def test_facade_wires_controller(self):
        sim = Simulator()
        machine = build_machine(sim)
        odyssey = Odyssey(machine)
        odyssey.set_goal(initial_energy=12_000.0, goal_seconds=60.0)
        odyssey.start()
        sim.run(until=61.0)
        assert odyssey.summary()["goal_reached"]

    def test_start_without_goal_raises(self):
        sim = Simulator()
        odyssey = Odyssey(build_machine(sim))
        with pytest.raises(RuntimeError):
            odyssey.start()

    def test_summary_without_controller_raises(self):
        sim = Simulator()
        odyssey = Odyssey(build_machine(sim))
        with pytest.raises(RuntimeError):
            odyssey.summary()

    def test_overhead_component_modeled_when_requested(self):
        sim = Simulator()
        machine = build_machine(sim)
        Odyssey(machine, model_overhead=True)
        assert "odyssey-overhead" in machine
        # Paper: overhead is only 4 mW — 0.25% of background power.
        assert machine["odyssey-overhead"].power < 0.015
