"""Golden determinism: the lazy multimeter replays a per-sample ticker.

The multimeter synthesizes its sample streams from the machine's
segment journal instead of scheduling 600 events per second.  These
tests drive the same workload under the meter and under
:class:`ReferenceSampler` — one simulator event per sample, the way the
HP 3458a's trigger line works — and require *exact* equality: same
floating-point timestamps, same current values, same RNG-resolved
attributions, across seeds, rates and start/stop windows.  The fold
path (``Multimeter.profile``) must reproduce ``correlate()`` bit for
bit, and ``tests/goldens/profile-video.json`` pins the ``repro
profile`` tables.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ExternalSupply, Machine, PowerComponent
from repro.powerscope import (
    CorrelationError,
    CurrentSample,
    Multimeter,
    SystemMonitor,
    correlate,
)
from repro.sim import Simulator
from tests.golden_scenarios import (
    PROFILE_VARIANTS,
    profile_golden_path,
    run_profile_scenario,
)

RATE_HZ = 150.0


class ReferenceSampler:
    """One simulator event per sample: the stream the meter must replay."""

    def __init__(self, machine, rate_hz, monitor):
        self.machine, self.monitor = machine, monitor
        self.period = 1.0 / rate_hz
        self.samples = []
        self.entry = None

    def start(self):
        if self.entry is None:
            self.entry = self.machine.sim.schedule(self.period, self.tick)

    def stop(self):
        if self.entry is not None:
            self.machine.sim.cancel(self.entry)
            self.entry = None

    def tick(self, _time):
        machine = self.machine
        machine.advance()
        self.samples.append(CurrentSample(machine.sim.now, machine.current))
        self.monitor.sample()
        self.entry = machine.sim.schedule(self.period, self.tick)

    def profile(self):
        return correlate(self.samples, self.monitor.samples,
                         self.machine.voltage, period=self.period)


def scripted_run(sampler, seed, until=3.0, stop=True):
    """One fixed workload: bursts, context changes, and an overlay."""
    sim = Simulator()
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
    cpu = machine.attach(
        PowerComponent("cpu", {"idle": 1.0, "busy": 5.0}, "idle")
    )
    monitor = SystemMonitor(machine, seed=seed)
    meter = sampler(machine, rate_hz=RATE_HZ, monitor=monitor)

    def workload():
        yield sim.timeout(0.4)
        token = machine.push_context("app", "work")
        cpu.set_state("busy")
        handle = machine.add_overlay(0.3, "Interrupts-WaveLAN")
        yield sim.timeout(1.3)
        machine.remove_overlay(handle)
        cpu.set_state("idle")
        machine.pop_context(token)
        yield sim.timeout(0.7)

    sim.spawn(workload())
    meter.start()
    sim.run(until=until)
    if stop:
        meter.stop()
    machine.advance()
    return sim, machine, meter, monitor


class TestGoldenDeterminism:
    @pytest.mark.parametrize("seed", range(5))
    def test_sample_streams_bit_identical(self, seed):
        _, _, ref_meter, ref_monitor = scripted_run(ReferenceSampler, seed)
        _, _, lazy_meter, lazy_monitor = scripted_run(Multimeter, seed)
        assert lazy_meter.samples == ref_meter.samples
        assert lazy_monitor.samples == ref_monitor.samples

    @pytest.mark.parametrize("seed", range(5))
    def test_profiles_bit_identical(self, seed):
        _, _, ref_meter, _ = scripted_run(ReferenceSampler, seed)
        _, _, lazy_meter, _ = scripted_run(Multimeter, seed)
        assert lazy_meter.profile().as_table() == ref_meter.profile().as_table()

    def test_fold_profile_matches_correlate_of_materialized_streams(self):
        # Materialize one lazy run's streams and correlate them by hand…
        _, machine, meter, monitor = scripted_run(Multimeter, seed=3)
        via_correlate = correlate(
            meter.samples, monitor.samples, machine.voltage,
            period=meter.period,
        )
        # …then fold a fresh identical run straight from the journal.
        _, _, fresh_meter, _ = scripted_run(Multimeter, seed=3)
        assert fresh_meter.profile().as_table() == via_correlate.as_table()

    def test_profile_covers_samples_materialized_mid_run(self):
        sim, machine, meter, monitor = scripted_run(
            Multimeter, seed=1, until=1.0, stop=False
        )
        # Still running: materialize a prefix, then keep sampling.
        assert meter.sample_count > 0  # forces synthesis at t=1.0
        sim.run(until=3.0)
        meter.stop()
        lazy_profile = meter.profile()
        _, _, ref_meter, _ = scripted_run(ReferenceSampler, seed=1)
        assert lazy_profile.as_table() == ref_meter.profile().as_table()


class TestMeterLifecycle:
    def test_lazy_meter_schedules_no_events(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply())
        machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
        meter = Multimeter(
            machine, rate_hz=600.0, monitor=SystemMonitor(machine)
        )
        meter.start()
        assert sim.peek() is None

    def test_start_after_stop_does_not_double_sample(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply())
        machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
        meter = Multimeter(
            machine, rate_hz=10.0, monitor=SystemMonitor(machine)
        )
        meter.start()
        sim.run(until=0.5)
        meter.stop()
        sim.run(until=1.0)
        meter.start()
        sim.run(until=1.5)
        meter.stop()
        times = [s.time for s in meter.samples]
        assert times == sorted(times)
        assert len(times) == len(set(times))
        # No samples land in the stopped window (0.5, 1.0].
        assert not [t for t in times if 0.5 < t <= 1.0]
        # Both windows contributed.
        assert [t for t in times if t <= 0.5]
        assert [t for t in times if t > 1.0]

    def test_stop_is_idempotent(self):
        _, _, meter, _ = scripted_run(Multimeter, seed=0)
        count = meter.sample_count
        meter.stop()
        meter.stop()
        assert meter.sample_count == count

    def test_lazy_stop_releases_journal_pin_on_read(self):
        _, machine, meter, _ = scripted_run(Multimeter, seed=0)
        # scripted_run stopped the meter; consuming the stream must
        # release the pin so the journal can compact again.
        meter.samples
        machine.energy_by_process
        assert len(machine.journal) <= 1

    def test_profile_requires_monitor(self):
        sim = Simulator()
        machine = Machine(sim, ExternalSupply())
        machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
        meter = Multimeter(machine, rate_hz=10.0)
        with pytest.raises(CorrelationError):
            meter.profile()

    def test_midrun_reads_continue_consistently(self):
        sim, machine, meter, monitor = scripted_run(
            Multimeter, seed=2, until=1.0, stop=False
        )
        first = list(meter.samples)
        sim.run(until=3.0)
        meter.stop()
        full = meter.samples
        assert full[: len(first)] == first
        assert len(full) > len(first)
        _, _, ref_meter, _ = scripted_run(ReferenceSampler, seed=2)
        assert full == ref_meter.samples


#: One script step: advance ``ticks`` ms plus an offset, then act.  The
#: 37 us offset keeps every workload instant off every sample instant
#: (at 50-1000 Hz they could only meet after 125 steps), so the
#: reference ticker never races a change at the same instant.
ACTIONS = ("toggle", "push", "pop", "overlay", "unoverlay",
           "start", "stop", "read")
SCRIPT = st.lists(
    st.tuples(st.integers(1, 300), st.sampled_from(ACTIONS)),
    min_size=1, max_size=40,
)


def run_script(sampler, script, rate_hz, seed, fold=False):
    """Drive ``script`` against ``sampler``; return its observations."""
    sim = Simulator()
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0}, "on"))
    cpu = machine.attach(
        PowerComponent("cpu", {"idle": 1.0, "busy": 5.0}, "idle")
    )
    monitor = SystemMonitor(machine, seed=seed)
    meter = sampler(machine, rate_hz=rate_hz, monitor=monitor)
    meter.start()
    tokens, handles, reads = [], [], []
    for ticks, action in script:
        sim.run(until=sim.now + ticks * 1e-3 + 37e-6)
        if action == "toggle":
            cpu.set_state("idle" if cpu.state == "busy" else "busy")
        elif action == "push":
            tokens.append(machine.push_context(f"app{len(tokens)}", "work"))
        elif action == "pop" and tokens:
            machine.pop_context(tokens.pop(0))
        elif action == "overlay" and len(handles) < 3:
            handles.append(machine.add_overlay(0.25, f"irq{len(handles)}"))
        elif action == "unoverlay" and handles:
            machine.remove_overlay(handles.pop())
        elif action == "start":
            meter.start()
        elif action == "stop":
            meter.stop()
        elif action == "read":
            reads.append((list(meter.samples), list(monitor.samples)))
    meter.stop()
    if fold:  # fold the pending window without materializing it
        return reads, meter.profile().as_table()
    return reads, meter.samples, monitor.samples, meter.profile().as_table()


@given(script=SCRIPT, rate_hz=st.integers(50, 1000),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_meter_matches_reference_sampler(script, rate_hz, seed):
    """Samples, mid-run reads and folded tables all equal the ticker's."""
    ref = run_script(ReferenceSampler, script, rate_hz, seed)
    assert run_script(Multimeter, script, rate_hz, seed) == ref
    folded = run_script(Multimeter, script, rate_hz, seed, fold=True)
    assert folded == (ref[0], ref[3])


class TestProfileGolden:
    @pytest.fixture(scope="class")
    def tables(self):
        return run_profile_scenario()

    @pytest.mark.parametrize("variant", [v for v, _ in PROFILE_VARIANTS])
    def test_repro_profile_tables_match_golden(self, tables, variant):
        with open(profile_golden_path(), encoding="utf-8") as handle:
            golden = json.load(handle)
        assert tables[variant] == golden[variant]
        assert tables[variant]["sample_count"] == 12_000
