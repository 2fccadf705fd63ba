"""Unit and integration tests for the composite machine model."""

import pytest

from repro.hardware import (
    Battery,
    Disk,
    Display,
    ExternalSupply,
    HardwareError,
    Machine,
    PowerComponent,
    PowerManager,
    SupplyError,
    WaveLan,
    build_machine,
)
from repro.hardware import thinkpad560x as tp
from repro.sim import Simulator


def simple_machine(sim, supply=None):
    machine = Machine(sim, supply=supply or ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
    return machine


class TestMachinePower:
    def test_power_sums_components(self):
        sim = Simulator()
        machine = simple_machine(sim)
        machine.attach(PowerComponent("lamp", {"on": 3.0, "off": 0.0}, "on"))
        assert machine.power == pytest.approx(5.0)

    def test_correction_term_added(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply(), correction=lambda m: 0.5)
        machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
        assert machine.power == pytest.approx(2.5)

    def test_current_is_power_over_voltage(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply(), voltage=16.0)
        machine.attach(PowerComponent("base", {"on": 8.0}, "on"))
        assert machine.current == pytest.approx(0.5)

    def test_duplicate_component_rejected(self):
        sim = Simulator()
        machine = simple_machine(sim)
        with pytest.raises(HardwareError):
            machine.attach(PowerComponent("base", {"on": 1.0}, "on"))

    def test_component_lookup(self):
        sim = Simulator()
        machine = simple_machine(sim)
        assert machine["base"].name == "base"
        assert "base" in machine
        assert "ghost" not in machine


class TestEnergyIntegration:
    def test_constant_power_integrates_exactly(self):
        sim = Simulator()
        machine = simple_machine(sim)
        sim.run(until=10.0)
        assert machine.finish() == pytest.approx(20.0)  # 2 W * 10 s

    def test_state_change_integrates_piecewise(self):
        sim = Simulator()
        machine = simple_machine(sim)
        lamp = machine.attach(PowerComponent("lamp", {"on": 3.0, "off": 0.0}, "on"))
        sim.schedule(4.0, lambda t: lamp.set_state("off"))
        sim.run(until=10.0)
        # 5 W * 4 s + 2 W * 6 s = 32 J
        assert machine.finish() == pytest.approx(32.0)

    def test_supply_is_drained(self):
        sim = Simulator()
        battery = Battery(100.0)
        machine = simple_machine(sim, supply=battery)
        sim.run(until=10.0)
        machine.finish()
        assert battery.residual == pytest.approx(80.0)

    def test_energy_by_component_tracks_split(self):
        sim = Simulator()
        machine = simple_machine(sim)
        machine.attach(PowerComponent("lamp", {"on": 3.0}, "on"))
        sim.run(until=2.0)
        machine.finish()
        assert machine.energy_by_component["base"] == pytest.approx(4.0)
        assert machine.energy_by_component["lamp"] == pytest.approx(6.0)

    def test_correction_energy_has_own_row(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply(), correction=lambda m: 1.0)
        machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
        sim.run(until=3.0)
        machine.finish()
        assert machine.energy_by_component["(superlinear)"] == pytest.approx(3.0)

    def test_advance_is_idempotent_at_same_instant(self):
        sim = Simulator()
        machine = simple_machine(sim)
        sim.run(until=5.0)
        machine.advance()
        machine.advance()
        assert machine.energy_total == pytest.approx(10.0)


class TestAttribution:
    def test_idle_by_default(self):
        sim = Simulator()
        machine = simple_machine(sim)
        sim.run(until=10.0)
        report = machine.energy_report()
        assert report == {"Idle": pytest.approx(20.0)}

    def test_context_attributes_whole_machine_power(self):
        sim = Simulator()
        machine = simple_machine(sim)
        sim.run(until=2.0)
        token = machine.push_context("app", "render")
        sim.run(until=5.0)
        machine.pop_context(token)
        sim.run(until=6.0)
        report = machine.energy_report()
        assert report["app"] == pytest.approx(6.0)   # 2 W * 3 s
        assert report["Idle"] == pytest.approx(6.0)  # 2 W * (2 + 1) s
        assert machine.energy_by_procedure[("app", "render")] == pytest.approx(6.0)

    def test_nested_contexts_restore_outer(self):
        sim = Simulator()
        machine = simple_machine(sim)
        outer = machine.push_context("outer")
        sim.run(until=1.0)
        inner = machine.push_context("inner")
        sim.run(until=2.0)
        machine.pop_context(inner)
        sim.run(until=3.0)
        machine.pop_context(outer)
        report = machine.energy_report()
        assert report["outer"] == pytest.approx(4.0)
        assert report["inner"] == pytest.approx(2.0)

    def test_pop_with_bad_token_raises(self):
        sim = Simulator()
        machine = simple_machine(sim)
        with pytest.raises(HardwareError):
            machine.pop_context(999)

    def test_overlay_splits_energy(self):
        sim = Simulator()
        machine = simple_machine(sim)
        handle = machine.add_overlay(0.25, "Interrupts-WaveLAN")
        sim.run(until=4.0)
        machine.remove_overlay(handle)
        report = machine.energy_report()
        assert report["Interrupts-WaveLAN"] == pytest.approx(2.0)  # 25% of 8 J
        assert report["Idle"] == pytest.approx(6.0)

    def test_overlay_fraction_bounds_checked(self):
        sim = Simulator()
        machine = simple_machine(sim)
        with pytest.raises(HardwareError):
            machine.add_overlay(1.5, "x")
        with pytest.raises(HardwareError):
            machine.add_overlay(-0.1, "x")

    def test_remove_unknown_overlay_raises(self):
        sim = Simulator()
        machine = simple_machine(sim)
        with pytest.raises(HardwareError):
            machine.remove_overlay(42)

    def test_attribution_conserves_energy(self):
        sim = Simulator()
        machine = simple_machine(sim)
        machine.add_overlay(0.3, "ints")
        token = machine.push_context("app")
        sim.run(until=7.0)
        machine.pop_context(token)
        report = machine.energy_report()
        assert sum(report.values()) == pytest.approx(machine.energy_total)


class TestCompute:
    def test_compute_marks_cpu_busy_and_attributes(self):
        sim = Simulator()
        machine = build_machine(sim)

        def app():
            yield from machine.compute(2.0, "myapp", "decode")

        sim.spawn(app())
        sim.run(until=10.0)
        report = machine.energy_report()
        assert report["myapp"] > 0
        # CPU extra energy = 7.1 W * 2 s
        assert machine.energy_by_component["cpu"] == pytest.approx(
            tp.CPU_BUSY_EXTRA_W * 2.0
        )

    def test_concurrent_computes_serialize(self):
        sim = Simulator()
        machine = build_machine(sim)
        spans = []

        def app(tag):
            yield from machine.compute(2.0, tag)
            spans.append((tag, sim.now))

        sim.spawn(app("a"))
        sim.spawn(app("b"))
        sim.run()
        assert spans == [("a", 2.0), ("b", 4.0)]


class TestThinkpadCalibration:
    def test_full_on_total_matches_figure4(self):
        sim = Simulator()
        machine = build_machine(sim)
        # Bright display, disk and network idle, CPU idle.
        assert machine.power == pytest.approx(tp.FULL_ON_TOTAL_W, abs=0.02)

    def test_background_power_matches_paper(self):
        sim = Simulator()
        machine = build_machine(sim)
        machine["display"].dim()
        machine["disk"].standby()
        machine["wavelan"].set_resting_state(WaveLan.STANDBY)
        assert machine.power == pytest.approx(tp.BACKGROUND_W, abs=0.01)

    def test_superlinearity_is_positive(self):
        """Paper: power usage is slightly but consistently superlinear."""
        sim = Simulator()
        machine = build_machine(sim)
        component_sum = sum(c.power for c in machine.components.values())
        assert machine.power > component_sum

    def test_zoned_build(self):
        sim = Simulator()
        machine = build_machine(sim, zoned=(2, 4))
        assert machine["display"].zones == 8

    def test_everything_off_leaves_base_power(self):
        sim = Simulator()
        machine = build_machine(sim)
        machine["display"].off()
        machine["disk"].set_state(Disk.OFF)
        machine["wavelan"].set_resting_state(WaveLan.OFF)
        # Base 3.20 W + 0.11 W correction: the "last row of Figure 4".
        assert machine.power == pytest.approx(tp.BASE_W + 0.11, abs=0.01)


class TestBattery:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SupplyError):
            Battery(0.0)

    def test_drain_and_residual(self):
        battery = Battery(100.0)
        battery.drain(30.0)
        assert battery.residual == pytest.approx(70.0)
        assert battery.fraction_remaining == pytest.approx(0.7)
        assert not battery.exhausted

    def test_drain_clamps_at_empty(self):
        battery = Battery(10.0)
        battery.drain(25.0)
        assert battery.residual == 0.0
        assert battery.exhausted

    def test_negative_drain_rejected(self):
        with pytest.raises(SupplyError):
            Battery(10.0).drain(-1.0)

    def test_external_supply_never_exhausts(self):
        supply = ExternalSupply()
        supply.drain(1e9)
        assert not supply.exhausted
        assert supply.residual == float("inf")
        assert supply.drawn == pytest.approx(1e9)


class TestPowerManager:
    def test_disabled_keeps_everything_on(self):
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=False)
        pm.apply_initial_states()
        assert machine["display"].state == Display.BRIGHT
        assert machine["disk"].state == Disk.IDLE
        assert machine["wavelan"].resting_state == WaveLan.IDLE

    def test_enabled_puts_nic_in_standby(self):
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=True)
        pm.apply_initial_states()
        assert machine["wavelan"].state == WaveLan.STANDBY

    def test_enabled_starts_disk_in_standby(self):
        """Paper §3.3.2: the disk stays in standby the whole experiment."""
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=True, disk_spindown_timeout=10.0)
        pm.apply_initial_states()
        assert machine["disk"].state == Disk.STANDBY

    def test_activity_spins_down_again_after_timeout(self):
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=True, disk_spindown_timeout=10.0)
        pm.apply_initial_states()

        def access():
            machine["disk"].set_state(Disk.IDLE)  # spin-up side effect
            pm.note_disk_activity()

        sim.schedule(5.0, lambda t: access())
        sim.run(until=14.0)
        assert machine["disk"].state == Disk.IDLE  # deadline is 15 s
        sim.run(until=16.0)
        assert machine["disk"].state == Disk.STANDBY

    def test_late_activity_defers_earlier_spindown_deadline(self):
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=True, disk_spindown_timeout=10.0)
        pm.apply_initial_states()
        machine["disk"].set_state(Disk.IDLE)
        pm.note_disk_activity()           # deadline 10 s
        sim.schedule(8.0, lambda t: pm.note_disk_activity())  # deadline 18 s
        sim.run(until=12.0)
        assert machine["disk"].state == Disk.IDLE
        sim.run(until=19.0)
        assert machine["disk"].state == Disk.STANDBY

    def test_display_off_policy_for_speech(self):
        sim = Simulator()
        machine = build_machine(sim)
        pm = PowerManager(machine, enabled=True, display_policy="off")
        pm.apply_initial_states()
        assert machine["display"].state == Display.OFF

    def test_invalid_display_policy_rejected(self):
        sim = Simulator()
        machine = build_machine(sim)
        with pytest.raises(ValueError):
            PowerManager(machine, enabled=True, display_policy="sepia")

    def test_timeline_records_state_changes(self):
        sim = Simulator(start_time=3.0)
        machine = build_machine(sim)
        timeline = []
        for component in machine.components.values():
            component.observe(
                lambda comp, old, new: timeline.append(
                    (sim.now, comp.name, old, new)
                )
            )
        machine["display"].dim()
        assert timeline == [(3.0, "display", Display.BRIGHT, Display.DIM)]
