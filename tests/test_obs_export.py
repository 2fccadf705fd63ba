"""Tests for the repro.obs exporters and the Chrome-trace validator."""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.obs import MetricsRegistry, Tracer, installed
from repro.obs.export import (
    chrome_trace,
    join_power,
    power_spans,
    read_events_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics,
)


def _sample_tracer():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.instant(0.0, "sim", "dispatch", track="engine", args={"seq": 1})
    tracer.complete(0.0, "power", "span", dur=2.0, track="machine",
                    args={"sid": 1, "watts": 5.0, "joules": 10.0,
                          "process": "Idle", "procedure": "_kernel_idle"})
    tracer.instant(1.0, "core", "upcall.degrade", track="video",
                   args={"application": "video", "power_span": 1})
    tracer.counter(1.5, "power", "watts", 5.0, track="watts")
    return tracer


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "events.jsonl"
        count = write_events_jsonl(tracer.events, path)
        assert count == 4
        records = read_events_jsonl(path)
        assert len(records) == 4
        assert records[0]["name"] == "dispatch"
        assert records[1]["dur"] == 2.0
        assert records[2]["args"]["power_span"] == 1


class TestChromeTrace:
    def test_categories_become_processes_tracks_become_threads(self):
        trace = chrome_trace(_sample_tracer().events)
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert process_names == {"sim", "power", "core"}
        assert {"engine", "machine", "video", "watts"} <= thread_names
        # Same category, different tracks -> same pid, different tid.
        power = [e for e in events
                 if e["ph"] != "M" and e["cat"] == "power"]
        assert len({e["pid"] for e in power}) == 1
        assert len({e["tid"] for e in power}) == 2

    def test_ts_and_dur_scale_to_microseconds(self):
        trace = chrome_trace(_sample_tracer().events)
        span = next(e for e in trace["traceEvents"]
                    if e.get("name") == "span")
        assert span["dur"] == pytest.approx(2e6)
        upcall = next(e for e in trace["traceEvents"]
                      if e.get("name") == "upcall.degrade")
        assert upcall["ts"] == pytest.approx(1e6)

    def test_out_of_order_events_sorted_per_track(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.instant(2.0, "sim", "b", track="engine")
        tracer.instant(1.0, "sim", "a", track="engine")
        trace = chrome_trace(tracer.events)
        assert not validate_chrome_trace(trace)
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "I"]
        assert names == ["a", "b"]

    def test_write_validates_and_emits_valid_json(self, tmp_path):
        path = tmp_path / "out.trace.json"
        count = write_chrome_trace(_sample_tracer().events, path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert not validate_chrome_trace(loaded)


class TestValidator:
    def test_envelope_required(self):
        assert validate_chrome_trace([])
        assert validate_chrome_trace({"events": []})
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert not validate_chrome_trace({"traceEvents": []})

    def test_unknown_phase_flagged(self):
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "ts": 0, "pid": 1, "tid": 1},
        ]}
        assert any("unknown phase" in p for p in validate_chrome_trace(bad))

    def test_missing_keys_flagged(self):
        bad = {"traceEvents": [{"ph": "I", "name": "x", "ts": 0}]}
        assert any("missing" in p for p in validate_chrome_trace(bad))
        bad_meta = {"traceEvents": [{"ph": "M", "name": "process_name"}]}
        assert validate_chrome_trace(bad_meta)

    def test_backwards_ts_within_track_flagged(self):
        bad = {"traceEvents": [
            {"ph": "I", "name": "a", "ts": 5, "pid": 1, "tid": 1},
            {"ph": "I", "name": "b", "ts": 4, "pid": 1, "tid": 1},
        ]}
        assert any("backwards" in p for p in validate_chrome_trace(bad))
        # Different tracks are independent timelines.
        ok = {"traceEvents": [
            {"ph": "I", "name": "a", "ts": 5, "pid": 1, "tid": 1},
            {"ph": "I", "name": "b", "ts": 4, "pid": 1, "tid": 2},
        ]}
        assert not validate_chrome_trace(ok)

    def test_negative_dur_flagged(self):
        bad = {"traceEvents": [
            {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1, "dur": -1},
        ]}
        assert any("negative dur" in p for p in validate_chrome_trace(bad))

    @pytest.mark.parametrize("event, expected", [
        ({"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1, "dur": None},
         "dur must be a number"),
        ({"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1, "dur": "1"},
         "dur must be a number"),
        ({"ph": "M", "name": "process_name", "pid": 1, "args": None},
         "metadata event needs pid and args.name"),
        ({"ph": ["X"], "name": "x", "ts": 0, "pid": 1, "tid": 1},
         "unknown phase"),
        ({"ph": "I", "name": "x", "ts": 0, "pid": [1], "tid": 1},
         "pid and tid must be"),
    ], ids=["null-dur", "string-dur", "null-metadata-args", "list-phase",
            "list-pid"])
    def test_malformed_values_reported_not_raised(self, event, expected):
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert len(problems) == 1
        assert expected in problems[0]


class TestPowerJoin:
    def test_power_spans_indexes_by_sid(self):
        spans = power_spans(_sample_tracer().events)
        assert set(spans) == {1}
        assert spans[1]["watts"] == 5.0
        assert spans[1]["joules"] == 10.0
        assert spans[1]["process"] == "Idle"

    def test_join_resolves_power_span_references(self):
        joined = join_power(_sample_tracer().events)
        assert len(joined) == 1
        assert joined[0]["event"]["name"] == "upcall.degrade"
        assert joined[0]["span"]["watts"] == 5.0

    def test_join_reports_unresolved_as_none(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.instant(0.0, "core", "x", args={"power_span": 99})
        joined = join_power(tracer.events)
        assert joined[0]["span"] is None


class TestMetricsExport:
    def test_accepts_registry_or_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        path = tmp_path / "metrics.json"
        write_metrics(registry, path)
        assert json.loads(path.read_text())["counters"]["c"] == 2
        write_metrics({"counters": {"k": 1}}, path)
        assert json.loads(path.read_text())["counters"]["k"] == 1


class TestJoinSummary:
    def test_all_resolved(self):
        from repro.obs.export import join_summary

        summary = join_summary(join_power(_sample_tracer().events))
        assert summary == {"total": 1, "resolved": 1, "unresolved": 0,
                           "unresolved_sids": []}

    def test_unresolved_joins_reported_not_dropped(self):
        """Regression: a span id referencing a journal segment that
        merged away (or whose span event was ring-dropped / filtered)
        used to surface only as a silent ``span: None`` — the summary
        must count it and name the sid."""
        from repro.obs.export import join_summary

        tracer = Tracer(clock=lambda: 0.0)
        # One resolvable reference...
        tracer.complete(0.0, "power", "span", dur=1.0, track="machine",
                        args={"sid": 7, "watts": 5.0, "joules": 5.0})
        tracer.instant(0.5, "core", "upcall.degrade", track="video",
                       args={"application": "video", "power_span": 7})
        # ...and two events referencing sid 9, whose segment never
        # closed inside the recorded window.
        tracer.instant(0.6, "core", "decision.hold", track="goal",
                       args={"power_span": 9})
        tracer.instant(0.7, "core", "fidelity", track="video",
                       args={"power_span": 9})
        summary = join_summary(join_power(tracer.events))
        assert summary["total"] == 3
        assert summary["resolved"] == 1
        assert summary["unresolved"] == 2
        assert summary["unresolved_sids"] == [9]

    def test_category_filtered_power_spans_all_unresolved(self):
        """Tracing with ``categories={'core'}`` records the references
        but not the spans — every join is unresolved and the summary
        says so (the CLI warns from this)."""
        from repro.obs.export import join_summary

        tracer = Tracer(categories={"core"}, clock=lambda: 0.0)
        gate = tracer.gate("power")
        assert gate is None  # the machine would emit nothing
        tracer.instant(0.5, "core", "upcall.degrade", track="video",
                       args={"application": "video", "power_span": 3})
        summary = join_summary(join_power(tracer.events))
        assert summary["unresolved"] == 1
        assert summary["unresolved_sids"] == [3]


# ----------------------------------------------------------------------
# byte identity: pinned digests and the exporters' reference semantics
# ----------------------------------------------------------------------
#: sha256 of the JSONL and Chrome trace of a 30 s / 450 J goal run under
#: a frozen wall clock.  The exporters may get faster; these bytes may
#: not move (re-pin only for an intended format change).
PINNED_GOAL_JSONL_SHA256 = (
    "c2358ce143537f6867157e6a5dd11bb6736747ce1f73d98e19964253a57aaf75")
PINNED_GOAL_TRACE_SHA256 = (
    "9cc43bec007e667d5c57c2e9009061f44d4cccbc13373ddf63ff7372deca7bb7")


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestPinnedBytes:
    def test_goal_run_exports_match_pinned_digests(self, tmp_path):
        from repro.experiments import run_goal_experiment

        tracer = Tracer(clock=lambda: 0.0)
        with installed(tracer):
            run_goal_experiment(30.0, initial_energy=450.0)
            tracer.flush()
        jsonl = tmp_path / "goal.jsonl"
        trace = tmp_path / "goal.trace.json"
        write_events_jsonl(tracer.events, jsonl)
        write_chrome_trace(tracer.events, trace)
        assert _sha256(jsonl) == PINNED_GOAL_JSONL_SHA256
        assert _sha256(trace) == PINNED_GOAL_TRACE_SHA256


def _reference_order(records):
    """The exporter's documented order: ``(pid, tid, ts, emit index)``,
    with pids and tids numbered in first-appearance order."""
    pids, tids = {}, {}
    for record in records:
        cat = record.get("cat") or "trace"
        track = record.get("track") or cat
        pids.setdefault(cat, len(pids) + 1)
        if (cat, track) not in tids:
            tids[(cat, track)] = sum(1 for c, _t in tids if c == cat) + 1

    def key(indexed):
        index, record = indexed
        cat = record.get("cat") or "trace"
        track = record.get("track") or cat
        return (pids[cat], tids[(cat, track)], record["ts"], index)

    ordered = []
    for _index, record in sorted(enumerate(records), key=key):
        cat = record.get("cat") or "trace"
        track = record.get("track") or cat
        ordered.append((record["name"], pids[cat], tids[(cat, track)],
                        record["ts"] * 1e6))
    return ordered


def _power_args(sid, kind):
    if kind == "span":
        return {"sid": sid, "watts": 5.0, "joules": 2.5 * sid,
                "process": "Idle"}
    if kind == "branch-span":
        return {"sid": sid, "watts": 7.0, "joules": 1.0, "branch": 1}
    if kind == "ref":
        return {"power_span": sid}
    return None


@st.composite
def _event_streams(draw):
    """Mixed dict/TraceEvent streams over several categories and tracks,
    with ``ts`` ties and out-of-order stamps."""
    from repro.obs.tracer import TraceEvent

    size = draw(st.integers(min_value=0, max_value=40))
    events = []
    for index in range(size):
        cat = draw(st.sampled_from(["sim", "power", "core", None]))
        track = draw(st.sampled_from(["engine", "machine", "video", None]))
        ph = draw(st.sampled_from("IBEXC"))
        ts = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.25, 3.0]))
        dur = (draw(st.sampled_from([None, 0.0, 0.75]))
               if ph == "X" else None)
        kind = draw(st.sampled_from(["span", "branch-span", "ref", None]))
        sid = draw(st.integers(min_value=1, max_value=4))
        name = "span" if kind in ("span", "branch-span") else f"e{index}"
        if kind in ("span", "branch-span"):
            cat, ph = "power", "X"
        event = TraceEvent(ts, 0.0, cat, name, ph, track, dur,
                           _power_args(sid, kind))
        events.append(event.to_dict() if draw(st.booleans()) else event)
    return draw(st.permutations(events))


def _dicts(events):
    return [e if isinstance(e, dict) else e.to_dict() for e in events]


class TestExportProperties:
    @settings(max_examples=150, deadline=None)
    @given(_event_streams())
    def test_chrome_order_is_pid_tid_ts_index(self, events):
        trace = chrome_trace(events)
        assert not validate_chrome_trace(trace)
        body = [(e["name"], e["pid"], e["tid"], e["ts"])
                for e in trace["traceEvents"] if e["ph"] != "M"]
        assert body == _reference_order(_dicts(events))
        assert trace == chrome_trace(_dicts(events))

    @settings(max_examples=60, deadline=None)
    @given(_event_streams())
    def test_written_files_equal_the_reference_encoding(self, events):
        with tempfile.TemporaryDirectory() as out_dir:
            trace_path = os.path.join(out_dir, "t.trace.json")
            jsonl_path = os.path.join(out_dir, "t.jsonl")
            write_chrome_trace(events, trace_path)
            write_events_jsonl(events, jsonl_path)
            with open(trace_path, encoding="utf-8") as handle:
                written_trace = handle.read()
            with open(jsonl_path, encoding="utf-8") as handle:
                written_jsonl = handle.read()
        assert written_trace == json.dumps(chrome_trace(events)) + "\n"
        assert written_jsonl == "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in _dicts(events))

    @settings(max_examples=150, deadline=None)
    @given(_event_streams())
    def test_join_is_indifferent_to_input_shape(self, events):
        records = _dicts(events)
        assert power_spans(events) == power_spans(records)
        assert power_spans(events, branch=1) == power_spans(records,
                                                            branch=1)
        assert join_power(events) == join_power(records)


# ----------------------------------------------------------------------
# input boundary: malformed logs fail with one line, never a traceback
# ----------------------------------------------------------------------
class TestReadEventsJsonl:
    @pytest.mark.parametrize("line", ["not json", "[1, 2]", "7", '"s"'])
    def test_bad_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: "):
            read_events_jsonl(path)


def _good_log(tmp_path):
    path = tmp_path / "good.jsonl"
    write_events_jsonl(_sample_tracer().events, path)
    return str(path)


def _garbled_log(tmp_path):
    path = tmp_path / "garbled.jsonl"
    path.write_text('{"ts": 0.0, "cat": "core"}\n{truncated\n')
    return str(path)


@pytest.mark.parametrize("argv, expected", [
    (lambda tmp: ["diff", str(tmp / "missing.jsonl"), _good_log(tmp)],
     "missing.jsonl"),
    (lambda tmp: ["diff", _good_log(tmp), _garbled_log(tmp)],
     "garbled.jsonl:2: "),
    (lambda tmp: ["verify-profile", _garbled_log(tmp), "--against",
                  os.path.join(os.path.dirname(__file__), "goldens",
                               "goal-default.sig.json")],
     "garbled.jsonl:2: "),
], ids=["diff-missing-file", "diff-malformed-line",
        "verify-profile-malformed-line"])
def test_cli_bad_event_log_exits_2_with_one_line(tmp_path, capsys, argv,
                                                 expected):
    assert cli_main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
