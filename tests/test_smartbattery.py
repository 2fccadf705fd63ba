"""Tests for the SmartBattery-style coarse power gauge (paper §5.1.1)."""

import pytest

from repro.experiments import (
    derive_goals,
    fidelity_runtime_bounds,
    run_goal_experiment,
)
from repro.hardware import ExternalSupply, Machine, PowerComponent
from repro.powerscope import GAUGE_OVERHEAD_W, SmartBatteryGauge
from repro.sim import Simulator


def flat_machine(sim, watts=8.0):
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": watts}, "on"))
    return machine


class TestGaugeBasics:
    def test_publishes_at_configured_period(self):
        sim = Simulator()
        machine = flat_machine(sim)
        gauge = SmartBatteryGauge(machine, period=1.0, averaging_window=4)
        got = []
        gauge.subscribe(lambda t, w, dt: got.append((t, w, dt)))
        gauge.start()
        sim.run(until=5.0)
        assert len(got) == 5
        assert all(dt == pytest.approx(1.0) for _t, _w, dt in got)

    def test_readings_are_quantized(self):
        sim = Simulator()
        machine = flat_machine(sim, watts=8.13)
        gauge = SmartBatteryGauge(machine, resolution_w=0.25)
        got = []
        gauge.subscribe(lambda t, w, dt: got.append(w))
        gauge.start()
        sim.run(until=3.0)
        for reading in got:
            steps = reading / 0.25
            assert steps == pytest.approx(round(steps))
        # 8.13 quantizes to 8.25.
        assert got[0] == pytest.approx(8.25)

    def test_averaging_smooths_bursts(self):
        sim = Simulator()
        machine = flat_machine(sim, watts=4.0)
        load = machine.attach(
            PowerComponent("burst", {"off": 0.0, "on": 8.0}, "off")
        )
        gauge = SmartBatteryGauge(
            machine, period=1.0, averaging_window=4, resolution_w=0.01
        )
        got = []
        gauge.subscribe(lambda t, w, dt: got.append(w))
        gauge.start()
        # Burst on for half of each period.
        sim.schedule(0.1, lambda t: load.set_state("on"))
        sim.schedule(0.6, lambda t: load.set_state("off"))
        sim.run(until=1.0)
        # The published reading reflects a mixture, not the peak.
        assert got and 4.0 < got[0] < 12.0

    def test_stop_halts_publication(self):
        sim = Simulator()
        machine = flat_machine(sim)
        gauge = SmartBatteryGauge(machine, period=1.0)
        got = []
        gauge.subscribe(lambda t, w, dt: got.append(t))
        gauge.start()
        sim.run(until=2.5)
        gauge.stop()
        sim.run(until=10.0)
        assert len(got) == 2

    def test_overhead_component_under_10mw(self):
        """Paper: SmartBattery solutions use less than 10 mW."""
        sim = Simulator()
        machine = flat_machine(sim)
        SmartBatteryGauge(machine, model_overhead=True)
        assert machine["smartbattery-gauge"].power <= GAUGE_OVERHEAD_W
        assert GAUGE_OVERHEAD_W <= 0.010 + 1e-12

    def test_validation(self):
        sim = Simulator()
        machine = flat_machine(sim)
        with pytest.raises(ValueError):
            SmartBatteryGauge(machine, period=0.0)
        with pytest.raises(ValueError):
            SmartBatteryGauge(machine, period=-1.0)
        with pytest.raises(ValueError):
            SmartBatteryGauge(machine, resolution_w=0.0)
        with pytest.raises(ValueError):
            SmartBatteryGauge(machine, averaging_window=0)
        with pytest.raises(ValueError):
            SmartBatteryGauge(machine, noise_w=-0.01)


class TestGaugeEdgeCases:
    def test_quantization_boundary_is_half_up(self):
        """A mean landing exactly on a step boundary (8.125 W at 0.25 W
        resolution = 32.5 steps) must round half-up to 8.25, not bounce
        to 8.0 with banker's rounding."""
        sim = Simulator()
        machine = flat_machine(sim, watts=8.125)
        gauge = SmartBatteryGauge(machine, resolution_w=0.25)
        got = []
        gauge.subscribe(lambda t, w, dt: got.append(w))
        gauge.start()
        sim.run(until=3.0)
        assert got == pytest.approx([8.25, 8.25, 8.25])

    def test_quantize_is_stable_across_step_parity(self):
        """Every exact boundary rounds the same direction: no
        flip-flopping with the parity of the step index."""
        sim = Simulator()
        machine = flat_machine(sim)
        gauge = SmartBatteryGauge(machine, resolution_w=0.25)
        assert gauge._quantize(8.125) == pytest.approx(8.25)   # 32.5 steps
        assert gauge._quantize(8.375) == pytest.approx(8.50)   # 33.5 steps
        assert gauge._quantize(0.125) == pytest.approx(0.25)

    def test_noise_is_deterministic_per_seed(self):
        def readings(seed):
            sim = Simulator()
            machine = flat_machine(sim, watts=6.0)
            gauge = SmartBatteryGauge(machine, resolution_w=0.01,
                                      noise_w=0.5, noise_seed=seed)
            got = []
            gauge.subscribe(lambda t, w, dt: got.append(w))
            gauge.start()
            sim.run(until=8.0)
            return got

        first = readings("devA")
        assert first == readings("devA")
        assert first != readings("devB")
        # The noise actually moves readings off the noiseless value.
        assert any(w != pytest.approx(6.0) for w in first)

    def test_noise_never_produces_negative_reading(self):
        """A noise excursion below zero draw clamps to 0.0: the gauge
        reports consumption, never charge."""
        sim = Simulator()
        machine = flat_machine(sim, watts=0.05)
        gauge = SmartBatteryGauge(machine, resolution_w=0.01,
                                  noise_w=1.0, noise_seed=3)
        got = []
        gauge.subscribe(lambda t, w, dt: got.append(w))
        gauge.start()
        sim.run(until=32.0)
        assert got
        assert all(w >= 0.0 for w in got)
        assert any(w == 0.0 for w in got), (
            "1 W noise over a 0.05 W draw never clamped — the clamp "
            "path was not exercised"
        )

    def test_sample_hooks_fire_per_internal_sample(self):
        sim = Simulator()
        machine = flat_machine(sim, watts=8.0)
        gauge = SmartBatteryGauge(machine, period=1.0, averaging_window=4)
        samples = []
        gauge.sample_hooks.append(lambda t, w: samples.append((t, w)))
        published = []
        gauge.subscribe(lambda t, w, dt: published.append(t))
        gauge.start()
        sim.run(until=2.0)
        # 4 internal samples per published reading.
        assert len(samples) == 4 * len(published) == 8
        assert all(w == pytest.approx(8.0) for _t, w in samples)


class TestGoalAdaptationOnGauge:
    """The deployment question the paper leaves open: does goal-directed
    adaptation still work on coarse on-board readings?"""

    def test_goals_nearly_met_with_coarse_gauge(self):
        """The measured cost of coarse deployment readings: on 1 s
        quantized (0.25 W) readings, goals are met or missed by under
        1 % of the duration — persistent quantization under-reading can
        delay the final degradations by a few control periods."""
        energy = 5_000.0
        t_hi, t_lo = fidelity_runtime_bounds(energy)
        goals = derive_goals(t_hi, t_lo, count=3)
        met = 0
        for goal in goals:
            result = run_goal_experiment(
                goal,
                initial_energy=energy,
                monitor_factory=lambda machine: SmartBatteryGauge(
                    machine, period=1.0, resolution_w=0.25
                ),
            )
            met += result.goal_met
            assert result.survived_seconds >= 0.99 * goal
        assert met >= 2  # most goals met outright

    def test_even_very_coarse_gauge_meets_midrange_goal(self):
        energy = 5_000.0
        t_hi, t_lo = fidelity_runtime_bounds(energy)
        goal = derive_goals(t_hi, t_lo, count=3)[1]
        result = run_goal_experiment(
            goal,
            initial_energy=energy,
            monitor_factory=lambda machine: SmartBatteryGauge(
                machine, period=2.0, resolution_w=1.0
            ),
        )
        assert result.goal_met

    def test_gauge_residual_tracking_close_to_truth(self):
        """The gauge's quantization error stays small when integrated:
        Odyssey's residual belief lands near the machine ground truth."""
        energy = 5_000.0
        t_hi, t_lo = fidelity_runtime_bounds(energy)
        goal = derive_goals(t_hi, t_lo, count=3)[1]
        result = run_goal_experiment(
            goal,
            initial_energy=energy,
            monitor_factory=lambda machine: SmartBatteryGauge(
                machine, period=1.0, resolution_w=0.25
            ),
        )
        # Battery ground truth and believed residual agree within 5%.
        supply_series = [
            row[3] for row in result.series if row[2] == "supply"
        ]
        assert supply_series[-1] == pytest.approx(
            result.residual_energy, abs=0.05 * energy
        )
