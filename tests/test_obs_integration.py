"""Integration tests: tracing instrumented through sim, core, PowerScope,
and the fleet, with the event↔energy join resolving end to end."""

import json

import pytest

from repro.fleet import CampaignSpec, FleetRunner, Task
from repro.hardware import PowerComponent
from repro.hardware.machine import Machine
from repro.obs import MetricsRegistry, Tracer, current_tracer, installed
from repro.obs.export import join_power, power_spans, validate_chrome_trace, chrome_trace
from repro.obs.tracer import NULL_TRACER
from repro.powerscope import Multimeter, SystemMonitor
from repro.sim import Simulator


class Supply:
    def __init__(self):
        self.drained = 0.0

    def drain(self, joules):
        self.drained += joules


def _machine(sim, metrics=None):
    machine = Machine(sim, supply=Supply(), voltage=16.0, metrics=metrics)
    machine.attach(PowerComponent("cpu", {"idle": 1.0, "busy": 4.0}, "idle"))
    return machine


class TestSimTracing:
    def test_dispatch_cancel_tombstone_events(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        entry = sim.schedule(1.0, lambda _t: None)
        sim.schedule(2.0, lambda _t: None)
        sim.cancel(entry)
        sim.run()
        names = [e.name for e in tracer.events if e.cat == "sim"]
        assert "cancel" in names
        assert "tombstone" in names
        assert "dispatch" in names

    def test_uninstalled_tracer_records_nothing(self):
        assert current_tracer() is NULL_TRACER
        sim = Simulator()
        assert sim.tracer is NULL_TRACER
        assert sim._trace is None
        sim.schedule(1.0, lambda _t: None)
        sim.run()  # no tracer anywhere to receive events

    def test_installed_tracer_reaches_inner_simulators(self):
        tracer = Tracer()
        with installed(tracer):
            sim = Simulator()
            assert sim.tracer is tracer
        assert Simulator().tracer is NULL_TRACER


class TestMachineTracing:
    def test_journal_spans_carry_sid_watts_joules(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = _machine(sim, metrics=MetricsRegistry())
        cpu = machine["cpu"]
        sim.now = 1.0
        cpu.set_state("busy")
        sim.now = 3.0
        machine.advance()
        tracer.flush()
        spans = power_spans(tracer.events)
        assert spans, "no power spans emitted"
        sids = sorted(spans)
        assert sids == list(range(sids[0], sids[0] + len(sids)))
        total = sum(s["joules"] for s in spans.values())
        assert total == pytest.approx(machine.energy_total)

    def test_flush_hook_emits_open_segment_exactly_once(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = _machine(sim, metrics=MetricsRegistry())
        sim.now = 2.0
        machine.advance()
        tracer.flush()
        tracer.flush()
        spans = [e for e in tracer.events
                 if e.cat == "power" and e.name == "span"]
        assert len(spans) == 1

    def test_power_span_id_joins_forward_and_backward(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = _machine(sim, metrics=MetricsRegistry())
        # Before any time passes the journal is empty: forward reference.
        first = machine.power_span_id()
        sim.now = 1.0
        machine.advance()
        assert machine.journal[-1].sid == first
        assert machine.power_span_id() == first

    def test_spans_with_equal_splits_share_one_read_only_components_dict(
            self):
        from repro.experiments import run_goal_experiment
        from repro.obs import compute_signature
        from repro.obs.diff import decision_spine

        tracer = Tracer()
        with installed(tracer):
            run_goal_experiment(30.0, initial_energy=450.0)
            tracer.flush()
        events = tracer.events
        payloads = [e.args["components"] for e in events
                    if e.cat == "power" and e.name == "span"]
        # One dict per exact split: json.dumps tells -0.0 from 0.0.
        by_split = {}
        for components in payloads:
            by_split.setdefault(json.dumps(components), set()).add(
                id(components))
        assert all(len(ids) == 1 for ids in by_split.values())
        assert len(by_split) < len(payloads) // 10
        shared = {id(c): (c, list(c.items())) for c in payloads}

        power_spans(events)
        join_power(events)
        decision_spine(events)
        compute_signature(events, metrics=MetricsRegistry())
        for components, items in shared.values():
            assert list(components.items()) == items

    def test_negative_zero_watts_keep_their_own_payload(self):
        """Spans share a components dict only when the split prints the
        same: ``-0.0`` watts (equal to ``0.0``) get their own, and a
        float subclass, which has no exact key, shares nothing."""
        class Watts(float):
            pass

        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = _machine(sim, metrics=MetricsRegistry())
        radio = machine.attach(PowerComponent(
            "radio", {"off": 0.0, "parked": -0.0, "on": 2.0,
                      "boost": Watts(3.0)}, "off"))
        machine.pin_journal()
        for now, state in enumerate(["parked", "off", "on", "parked",
                                     "boost", "off", "parked"], 1):
            sim.now = float(now)
            radio.set_state(state)
        sim.now = 8.0
        machine.advance()
        tracer.flush()
        segments = {segment.sid: segment for segment in machine.journal}
        spans = [e for e in tracer.events
                 if e.cat == "power" and e.name == "span"]
        assert len(spans) == len(segments) == 8
        written = set()
        for span in spans:
            segment = segments[span.args["sid"]]
            reference = dict(segment.comp_powers)
            if segment.correction:
                reference["(superlinear)"] = segment.correction
            text = json.dumps(span.args["components"])
            assert text == json.dumps(reference)
            written.add(text)
        assert written == {'{"cpu": 1.0, "radio": 0.0}',
                           '{"cpu": 1.0, "radio": -0.0}',
                           '{"cpu": 1.0, "radio": 2.0}',
                           '{"cpu": 1.0, "radio": 3.0}'}

    def test_metrics_count_segments(self):
        registry = MetricsRegistry()
        sim = Simulator()
        machine = _machine(sim, metrics=registry)
        sim.now = 1.0
        machine["cpu"].set_state("busy")
        sim.now = 2.0
        machine.finish()
        snap = registry.snapshot()
        assert snap["counters"]["machine.segments"] >= 2
        assert snap["gauges"]["machine.energy_j"] == pytest.approx(
            machine.energy_total
        )


class TestGoalRunTracing:
    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.experiments import run_goal_experiment

        tracer = Tracer()
        with installed(tracer):
            result = run_goal_experiment(120.0, initial_energy=4000.0)
            tracer.flush()
        return tracer, result

    def test_core_events_join_to_power_spans(self, traced_run):
        tracer, _result = traced_run
        joined = join_power(tracer.events)
        core = [j for j in joined if j["event"]["cat"] == "core"]
        assert core, "no core events carry power_span"
        unresolved = [j for j in core if j["span"] is None]
        assert not unresolved
        # Every fidelity transition and upcall references a span.
        names = {j["event"]["name"] for j in core}
        assert "fidelity" in names

    def test_every_category_instrumented(self, traced_run):
        tracer, _result = traced_run
        cats = {e.cat for e in tracer.events}
        assert {"sim", "power", "core", "powerscope"} <= cats

    def test_decision_stream_and_supply_demand_counters(self, traced_run):
        tracer, _result = traced_run
        decisions = [e for e in tracer.events
                     if e.cat == "core" and e.name.startswith("decision.")]
        assert decisions
        assert {e.name for e in decisions} <= {
            "decision.hold", "decision.degrade", "decision.upgrade",
        }
        counters = {e.name for e in tracer.events if e.ph == "C"}
        assert {"supply_j", "demand_j", "watts"} <= counters

    def test_chrome_trace_valid_with_per_component_tracks(self, traced_run):
        tracer, _result = traced_run
        trace = chrome_trace(tracer.events)
        assert not validate_chrome_trace(trace)
        thread_names = {e["args"]["name"]
                        for e in trace["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"engine", "machine", "goal"} <= thread_names

    def test_category_restriction_excludes_other_subsystems(self):
        from repro.experiments import run_goal_experiment

        tracer = Tracer(categories={"core"})
        with installed(tracer):
            run_goal_experiment(60.0, initial_energy=4000.0)
            tracer.flush()
        assert {e.cat for e in tracer.events} == {"core"}


class TestMultimeterTracing:
    def test_meter_lifecycle_and_profile_fold_events(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        machine = _machine(sim, metrics=MetricsRegistry())
        monitor = SystemMonitor(machine, seed=0)
        meter = Multimeter(machine, rate_hz=100.0, monitor=monitor)
        meter.start()
        sim.now = 0.5
        machine.advance()
        meter.stop()
        profile = meter.profile()
        names = [e.name for e in tracer.events if e.cat == "powerscope"]
        assert names.count("meter.start") == 1
        assert names.count("meter.stop") == 1
        fold = next(e for e in tracer.events if e.name == "profile.fold")
        assert fold.args["samples"] == profile.sample_count
        assert fold.args["energy_j"] == pytest.approx(profile.total_energy)


class TestFleetTracing:
    def _spec(self):
        tasks = [
            Task(id=f"t{k}", fn="repro.fleet.library:seeded_value",
                 params={"seed": k})
            for k in range(3)
        ]
        return CampaignSpec(name="traced", tasks=tasks)

    def test_serial_run_emits_campaign_and_task_spans(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        runner = FleetRunner(jobs=1, tracer=tracer, metrics=registry)
        result = runner.run(self._spec())
        assert result.ok
        spans = [e for e in tracer.events if e.ph == "X"]
        assert sum(1 for e in spans if e.name == "task") == 3
        campaign = next(e for e in spans if e.name == "campaign")
        assert campaign.args["name"] == "traced"
        assert campaign.args["succeeded"] == 3
        assert registry.snapshot()["counters"]["fleet.tasks_ok"] == 3

    def test_cached_rerun_emits_cached_instants(self, tmp_path):
        tracer = Tracer()
        runner = FleetRunner(jobs=1, cache=str(tmp_path), tracer=tracer,
                             metrics=MetricsRegistry())
        runner.run(self._spec())
        before = len([e for e in tracer.events if e.name == "task.cached"])
        runner.run(self._spec())
        after = len([e for e in tracer.events if e.name == "task.cached"])
        assert before == 0 and after == 3

    def test_untraced_runner_records_nothing(self):
        runner = FleetRunner(jobs=1, metrics=MetricsRegistry())
        assert runner.tracer is NULL_TRACER
        assert runner._trace is None
        assert runner.run(self._spec()).ok
