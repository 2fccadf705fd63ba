"""Tests for the repro.obs exporters and the Chrome-trace validator."""

import hashlib
import json
import os
import re
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


def _circular_args():
    loop = {}
    loop["self"] = loop
    return loop


#: ``args`` payloads ``json.dumps`` refuses, by test id.
_BAD_ARGS = [
    ("unserializable", lambda: {"x": object()}),
    ("tuple-key", lambda: {(1, 2): 1}),
    ("circular", _circular_args),
]


def _jsonl_reference(events):
    return "".join(json.dumps(event.to_dict(), sort_keys=True) + "\n"
                   for event in events)


def _chrome_reference(events):
    """What ``write_chrome_trace`` writes, or raises, by the reference
    path: build, validate, ``json.dumps``."""
    trace = chrome_trace(events)
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError("generated Chrome trace is invalid: "
                         + "; ".join(problems))
    return json.dumps(trace) + "\n"


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

    @pytest.mark.parametrize("write, reference, make_args", [
        pytest.param(write, reference, make_args, id=prefix + case)
        for prefix, write, reference in [
            ("", write_events_jsonl, _jsonl_reference),
            ("chrome-", write_chrome_trace, _chrome_reference),
        ]
        for case, make_args in _BAD_ARGS
    ])
    def test_bad_args_raise_what_json_dumps_raises(self, tmp_path, write,
                                                   reference, make_args):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.instant(0.0, "sim", "ok", args={"seq": 1})
        tracer.instant(0.5, "sim", "x", args=make_args())
        with pytest.raises((TypeError, ValueError)) as expected:
            reference(tracer.events)
        path = tmp_path / "out"
        with pytest.raises(type(expected.value),
                           match=re.escape(str(expected.value))):
            write(tracer.events, path)
        assert not path.exists()


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


class _EqualToStr:
    """Hashes and compares equal to a ``str`` without being one."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return other == self.text


class TestChromeLabels:
    @pytest.mark.parametrize("label", ["cat", "name", "ph"])
    def test_a_label_equal_to_a_str_is_not_written_as_one(self, tmp_path,
                                                          label):
        from repro.obs.tracer import TraceEvent

        fields = {"cat": "sim", "name": "x", "ph": "I"}
        first = TraceEvent(0.0, 0.0, **fields)
        fields[label] = _EqualToStr(fields[label])
        events = [first, TraceEvent(1.0, 0.0, **fields)]
        with pytest.raises((TypeError, ValueError)) as expected:
            _chrome_reference(events)
        path = tmp_path / "t.trace.json"
        with pytest.raises(type(expected.value),
                           match=re.escape(str(expected.value))):
            write_chrome_trace(events, path)
        assert not path.exists()


class TestNonFiniteStamps:
    @pytest.mark.parametrize("emit", [
        lambda tracer: tracer.instant(float("nan"), "sim", "x"),
        lambda tracer: tracer.complete(0.0, "power", "span",
                                       dur=float("inf")),
        lambda tracer: tracer.instant(True, "sim", "x"),
    ], ids=["nan-ts", "inf-dur", "bool-ts"])
    def test_write_chrome_trace_refuses_the_stamp(self, tmp_path, emit):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.instant(0.0, "sim", "ok")
        emit(tracer)
        with pytest.raises(ValueError, match="generated Chrome trace is "
                                             "invalid"):
            write_chrome_trace(tracer.events, tmp_path / "t.trace.json")
        assert not (tmp_path / "t.trace.json").exists()
        # The JSONL log still writes what json.dumps writes.
        path = tmp_path / "t.jsonl"
        write_events_jsonl(tracer.events, path)
        assert path.read_text() == "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in tracer.events)

    @pytest.mark.parametrize("key, value, expected", [
        ("ts", float("nan"), "ts must be finite, got nan"),
        ("ts", float("inf"), "ts must be finite, got inf"),
        ("ts", float("-inf"), "ts must be finite, got -inf"),
        ("ts", True, "ts must be a number, got True"),
        ("dur", float("nan"), "dur must be finite, got nan"),
        ("dur", float("-inf"), "dur must be finite, got -inf"),
        ("dur", False, "dur must be a number, got False"),
    ])
    def test_validator_reports_one_problem(self, key, value, expected):
        event = {"ph": "X", "name": "x", "ts": 0.0, "pid": 1, "tid": 1,
                 "dur": 1.0}
        event[key] = value
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert problems == [f"traceEvents[0]: {expected}"]


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
#: sha256 of the JSONL and Chrome trace of each run under a frozen wall
#: clock: a 30 s / 450 J goal run, whose events are nearly all compact
#: kinds, and a beam 4x2 pulse run, a third of whose events are generic
#: ``TraceEvent``s (358 ``beam.verdict`` events with list-valued
#: ``schedule`` args).  The exporters may get faster; these bytes may
#: not move (re-pin only for an intended format change).
PINNED_GOAL_JSONL_SHA256 = (
    "c2358ce143537f6867157e6a5dd11bb6736747ce1f73d98e19964253a57aaf75")
PINNED_GOAL_TRACE_SHA256 = (
    "9cc43bec007e667d5c57c2e9009061f44d4cccbc13373ddf63ff7372deca7bb7")
PINNED_BEAM_JSONL_SHA256 = (
    "331144cce1348262aeb52004f39b24591fffd4b7c1a435c37a2c6d1c72f78abb")
PINNED_BEAM_TRACE_SHA256 = (
    "2b8f7c22b0ce444dbcef264656d729cd06ac53740aec7b8c2e50fd5791b8c27a")


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestPinnedBytes:
    def test_goal_run_exports_match_pinned_digests(self, tmp_path):
        from repro.experiments import run_goal_experiment
        from repro.snapshot.scenario import run_pulse_goal

        runs = {
            "goal": lambda: run_goal_experiment(30.0, initial_energy=450.0),
            "beam": lambda: run_pulse_goal(lookahead=True, beam_width=4,
                                           beam_depth=2),
        }
        digests = {}
        for name, run in runs.items():
            tracer = Tracer(clock=lambda: 0.0)
            with installed(tracer):
                run()
                tracer.flush()
            jsonl = tmp_path / f"{name}.jsonl"
            trace = tmp_path / f"{name}.trace.json"
            write_events_jsonl(tracer.events, jsonl)
            write_chrome_trace(tracer.events, trace)
            digests[name] = (_sha256(jsonl), _sha256(trace))
        assert digests == {
            "goal": (PINNED_GOAL_JSONL_SHA256, PINNED_GOAL_TRACE_SHA256),
            "beam": (PINNED_BEAM_JSONL_SHA256, PINNED_BEAM_TRACE_SHA256),
        }


class TestRealClockJsonl:
    def test_real_clock_goal_run_equals_the_reference_encoding(self,
                                                               tmp_path):
        """A live wall clock stamps long float reprs that the frozen-clock
        pins never exercise; batch and streamed files must still equal
        ``json.dumps(record, sort_keys=True)`` line for line."""
        from repro.experiments import run_goal_experiment
        from repro.obs import JsonlSink

        streamed = tmp_path / "streamed.jsonl"
        with JsonlSink(streamed) as sink:
            tracer = Tracer(sink=sink)
            with installed(tracer):
                run_goal_experiment(30.0, initial_energy=450.0)
                tracer.flush()
        batch = tmp_path / "goal.jsonl"
        write_events_jsonl(tracer.events, batch)
        assert any(len(repr(event.wall)) > 12 for event in tracer.events)
        assert batch.read_text(encoding="utf-8") == "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in tracer.events)
        assert streamed.read_bytes() == batch.read_bytes()


class TestStreamedChromeTrace:
    def test_streamed_trace_loads_equal_to_the_buffered_one(self, tmp_path,
                                                            capsys):
        """``repro trace --stream`` builds its Chrome trace from the
        sorted-key JSONL read back, so ``args`` keys come out sorted:
        the same trace object as the buffered run, not the same bytes."""
        argv = ["trace", "goal", "--goal", "30", "--energy", "450"]
        buffered, streamed = tmp_path / "buffered", tmp_path / "streamed"
        assert cli_main(argv + ["--out", str(buffered)]) == 0
        assert cli_main(argv + ["--stream", "--out", str(streamed)]) == 0
        capsys.readouterr()
        with open(f"{buffered}.trace.json", encoding="utf-8") as handle:
            buffered_trace = json.load(handle)
        with open(f"{streamed}.trace.json", encoding="utf-8") as handle:
            streamed_trace = json.load(handle)
        assert buffered_trace["traceEvents"]
        assert streamed_trace == buffered_trace


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


class _LoudFloat(float):
    """A float subclass: ``json`` encodes it by ``float.__repr__``."""

    def __repr__(self):
        return "loud"


#: Payload values that are equal, or hash equal, yet print differently.
_LOOKALIKE_VALUES = [1, 1.0, True, 0.0, -0.0, 0.75, _LoudFloat(0.75)]


def _component_splits():
    """``components``-style dicts for one stream's spans to share by
    reference, as the machine shares them: ``±0.0`` and a repeated
    float inside."""
    return [{"cpu": 0.0, "disk": 0.16, "display": 4.54},
            {"cpu": -0.0, "disk": 0.16, "display": 4.54},
            {"cpu": 9.0, "disk": 0.16, "(superlinear)": 0.21}]


def _power_args(sid, kind, value=None, split=None):
    if kind == "span":
        return {"sid": sid, "watts": 5.0, "joules": 2.5 * sid,
                "process": "Idle"}
    if kind == "split-span":
        return {"sid": sid, "watts": value, "components": split}
    if kind == "ref":
        return {"power_span": sid}
    if kind == "value":
        return {"value": value, "nested": {"watts": value}}
    return None


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]
#: Odd values ``_event_streams(odd_stamps=True)`` draws, by the field
#: they go in: stamps the JSONL shape templates hand to the fallback
#: encoder, stamps that make the Chrome trace invalid, phases outside
#: ``IBEXC`` and names that are not ``str``.
_ODD_VALUES = {
    "ts-type": [0, 3, True, False, _LoudFloat(1.5)],
    "ts-value": _NON_FINITE + [1e303],  # 1e303 s overflows in microseconds
    "dur-type": [0, 3, True, False, _LoudFloat(1.5)],
    "dur-value": _NON_FINITE,
    "dur-negative": [-0.5, -3],
    "ph": ["IB", ""],
    "name": [7, None, ["n"]],
}
#: Labels whose JSON escapes (or ``%``) a template must carry verbatim.
_ODD_LABELS = ["100%", "50%s", 'say "hi"', "back\\slash", "énergie",
               "電力"]


@st.composite
def _event_streams(draw, odd_stamps=False):
    """Mixed dict/TraceEvent streams over several categories and tracks,
    with ``ts`` ties and out-of-order stamps, labels that need escaping
    or are not ``str``, and ``dur`` on any phase.  Each stream's wall
    clock is frozen, at a float or (like ``Tracer(clock=lambda: 0)``) an
    integer.  Repeated floats and ``±0.0`` appear in ``ts``, ``dur``
    and payloads, spans share :func:`_component_splits` by reference,
    and a ``value`` key holds :data:`_LOOKALIKE_VALUES` (``1``, ``1.0``,
    ``True``, a float subclass) at the top level and nested.
    ``odd_stamps`` picks one kind of :data:`_ODD_VALUES` per
    stream and puts one of its values in about one event in three.
    Most kinds can make the Chrome trace invalid; the int and
    float-subclass stamps and the names cannot."""
    from repro.obs.tracer import TraceEvent

    odd_kind = (draw(st.sampled_from(sorted(_ODD_VALUES)))
                if odd_stamps else None)

    def pick(field, pool):
        if (odd_kind and odd_kind.split("-")[0] == field
                and draw(st.integers(0, 2)) == 0):
            return draw(st.sampled_from(_ODD_VALUES[odd_kind]))
        return draw(st.sampled_from(pool))

    wall = draw(st.sampled_from([0.0, 0, 0.30000000000000004]))
    size = draw(st.integers(min_value=0, max_value=40))
    splits = _component_splits()
    events = []
    for index in range(size):
        cat = draw(st.sampled_from(["sim", "power", "core", None]
                                   + _ODD_LABELS))
        track = draw(st.sampled_from(["engine", "machine", "video", None, 7]
                                     + _ODD_LABELS))
        ph = pick("ph", "IBEXC")
        ts = pick("ts", [0.0, -0.0, 0.5, 1.0, 1.0, 2.25, 3.0])
        dur = pick("dur", [None, 0.0, -0.0, 0.75])
        kind = draw(st.sampled_from(["span", "split-span", "ref", "value",
                                     None]))
        sid = draw(st.integers(min_value=1, max_value=4))
        value = draw(st.sampled_from(_LOOKALIKE_VALUES))
        split = draw(st.sampled_from(splits))
        if kind in ("span", "split-span"):
            cat, ph, name = "power", "X", "span"
        else:
            name = pick("name", [f"e{index}" + label
                                 for label in [""] + _ODD_LABELS])
        event = TraceEvent(ts, wall, cat, name, ph, track, dur,
                           _power_args(sid, kind, value, split))
        events.append(event.to_dict() if draw(st.booleans()) else event)
    return draw(st.permutations(events))


def _dicts(events):
    return [e if isinstance(e, dict) else e.to_dict() for e in events]


def _fresh_payloads(events, reference):
    """Yield each event as a new ``TraceEvent`` whose payload holds a
    numbered ``fresh`` dict and numbered copies of its nested dicts,
    appending its reference line to ``reference``.  Nothing keeps a
    copy alive once the writer moves on, and each payload is built
    before its nested dicts, so CPython's dict free list hands a later
    copy the ``id`` of a freed nested dict."""
    from repro.obs.tracer import TraceEvent

    for number, record in enumerate(_dicts(events)):
        args = {}
        args["fresh"] = {"copy": number}
        for key, value in (record.get("args") or {}).items():
            args[key] = ({**value, "copy": number} if type(value) is dict
                         else value)
        event = TraceEvent(record["ts"], record["wall"], record["cat"],
                           record["name"], record["ph"], record.get("track"),
                           record.get("dur"), args)
        reference.append(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        yield event


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_event_streams(), _event_streams(odd_stamps=True)))
    def test_written_files_equal_the_reference_encoding(self, events):
        reference = chrome_trace(events)
        problems = validate_chrome_trace(reference)
        with tempfile.TemporaryDirectory() as out_dir:
            trace_path = os.path.join(out_dir, "t.trace.json")
            jsonl_path = os.path.join(out_dir, "t.jsonl")
            if problems:
                with pytest.raises(ValueError) as raised:
                    write_chrome_trace(events, trace_path)
                assert str(raised.value) == (
                    "generated Chrome trace is invalid: "
                    + "; ".join(problems))
                assert not os.path.exists(trace_path)
                written_trace = None
            else:
                count = write_chrome_trace(events, trace_path)
                assert count == len(reference["traceEvents"])
                with open(trace_path, encoding="utf-8") as handle:
                    written_trace = handle.read()
            write_events_jsonl(events, jsonl_path)
            with open(jsonl_path, encoding="utf-8") as handle:
                written_jsonl = handle.read()
        if written_trace is not None:
            assert written_trace == json.dumps(reference) + "\n"
        assert written_jsonl == "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in _dicts(events))
        # A generator whose nested payloads are freed as the writer
        # moves on: a recycled id must not bring back an old payload.
        fresh_reference = []
        with tempfile.TemporaryDirectory() as out_dir:
            jsonl_path = os.path.join(out_dir, "fresh.jsonl")
            write_events_jsonl(_fresh_payloads(events, fresh_reference),
                               jsonl_path)
            with open(jsonl_path, encoding="utf-8") as handle:
                assert handle.read() == "".join(fresh_reference)

    @settings(max_examples=150, deadline=None)
    @given(_event_streams())
    def test_join_is_indifferent_to_input_shape(self, events):
        records = _dicts(events)
        assert power_spans(events) == power_spans(records)
        assert join_power(events) == join_power(records)


# ----------------------------------------------------------------------
# compact kinds: records read and export exactly as their TraceEvents
# ----------------------------------------------------------------------
_NAN, _INF = float("nan"), float("inf")
#: Field values of the compact records: the usual types, ``±0.0``, int
#: stamps, and labels that are not ``str``.
_COMPACT_VALUES = {
    "ts": [0.0, -0.0, 0.5, 1.0, 2.25, 0, 3],
    "wall": [0.0, 0, 0.30000000000000004, 1.5],
    "dur": [0.0, -0.0, 0.75, 1.0, 2],
    "watts": [0.0, -0.0, 4.5, 4.5, 3],
    "joules": [0.0, -0.0, 1.25, 3.375],
    "sid": [1, 2, 3],
    "label": ["Idle", "_kernel_idle", "xanim", "100%", 'say "hi"',
              "énergie", None, 7],
    "seq": [1, 7, 12],
}
#: Odd values ``_compact_streams(odd=True)`` puts in about one field in
#: five: non-finite stamps and watts, which the exporters must refuse
#: or encode exactly as for a ``TraceEvent``, and bool ids.
_COMPACT_ODD_VALUES = {
    "ts": [1e303, _NAN, _INF],
    "wall": [_NAN, -_INF],
    "dur": [_NAN, _INF, -0.5],
    "watts": [_NAN, -_INF],
    "joules": [_NAN, _INF],
    "sid": [None, True],
    "seq": [True],
}


@st.composite
def _compact_streams(draw, odd=False):
    """``(records, twins)``: compact records of all three kinds, mixed
    with plain events that reference their sids, and for each record a
    :class:`TraceEvent` built from the same fields (plain events are
    shared).  Spans share a few ``components`` dicts by reference."""
    from repro.obs.tracer import (DispatchEvent, SpanEvent, TraceEvent,
                                  WattsEvent)

    def pick(field):
        if (odd and field in _COMPACT_ODD_VALUES
                and draw(st.integers(0, 4)) == 0):
            return draw(st.sampled_from(_COMPACT_ODD_VALUES[field]))
        return draw(st.sampled_from(_COMPACT_VALUES[field]))

    splits = _component_splits() + [{}]
    records, twins = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(["span", "span", "dispatch", "watts",
                                     "ref"]))
        if kind == "ref":
            event = TraceEvent(pick("ts"), 0.0, "core", "decision.hold",
                               "I", "controller", None,
                               {"power_span": draw(st.integers(1, 4))})
            records.append(event)
            twins.append(event)
            continue
        if kind == "span":
            record = SpanEvent(pick("ts"), pick("wall"), pick("dur"),
                               pick("sid"), pick("watts"), pick("joules"),
                               pick("label"), pick("label"),
                               draw(st.sampled_from(splits)))
        elif kind == "dispatch":
            record = DispatchEvent(pick("ts"), pick("wall"), pick("seq"))
        else:
            record = WattsEvent(pick("ts"), pick("wall"), pick("watts"))
        records.append(record)
        twins.append(TraceEvent(record.ts, record.wall, record.cat,
                                record.name, record.ph, record.track,
                                record.dur, record.args))
    return records, twins


def _written(write, events):
    """What ``write(events, path)`` puts on disk, or the error it raises."""
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "out")
        try:
            write(events, path)
        except ValueError as exc:
            return ("error", str(exc))
        with open(path, "rb") as handle:
            return ("bytes", handle.read())


class TestCompactKinds:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_compact_streams(), _compact_streams(odd=True)))
    def test_records_equal_their_trace_events(self, streams):
        from repro.obs.export import jsonl_line

        records, twins = streams
        fields = ("ts", "wall", "cat", "name", "ph", "track", "dur", "args")
        for record, twin in zip(records, twins):
            # Tuples compare items by identity first, so a NaN field
            # equals itself.
            assert (tuple(getattr(record, field) for field in fields)
                    == tuple(getattr(twin, field) for field in fields))
            assert record.to_dict() == twin.to_dict()
            assert list(record.to_dict()) == list(twin.to_dict())
            assert jsonl_line(record) == jsonl_line(twin)
        for write in (write_events_jsonl, write_chrome_trace):
            assert _written(write, records) == _written(write, twins)
        assert power_spans(records) == power_spans(twins)
        assert join_power(records) == join_power(twins)

    def test_spans_share_the_machine_components_dict(self):
        from repro.obs.tracer import SpanEvent

        split = {"cpu": 1.5}
        record = SpanEvent(0.0, 0.0, 1.0, 1, 1.5, 1.5, "Idle", "idle",
                           split)
        assert record.args["components"] is split
        assert power_spans([record])[1]["components"] is split

    def test_ring_tracer_and_sink_see_every_record(self, tmp_path):
        """A ring tracer keeps the last records and counts the drops,
        and its sink streams every record, byte for byte what the
        generic emit methods stream for the same events."""
        from repro.obs import JsonlSink

        split = {"cpu": -0.0, "disk": 0.25}

        def emit(tracer, compact):
            for k in range(12):
                ts = k * 0.5
                if compact:
                    tracer.dispatch(ts, k)
                    tracer.watts(ts, 4.5 - k)
                    tracer.span(ts, 0.5, k + 1, 4.5 - k, (4.5 - k) * 0.5,
                                "Idle", "_kernel_idle", split)
                    continue
                tracer.instant(ts, "sim", "dispatch", track="engine",
                               args={"seq": k})
                tracer.counter(ts, "power", "watts", 4.5 - k, track="watts")
                args = {"sid": k + 1, "watts": 4.5 - k,
                        "joules": (4.5 - k) * 0.5, "process": "Idle",
                        "procedure": "_kernel_idle", "components": split}
                tracer.complete(ts, "power", "span", 0.5, track="machine",
                                args=args)

        streamed = {}
        for compact in (True, False):
            path = tmp_path / f"{compact}.jsonl"
            with JsonlSink(path) as sink:
                tracer = Tracer(capacity=10, sink=sink,
                                clock=lambda: 0.25)
                emit(tracer, compact)
            assert tracer.dropped == 36 - 10 and len(tracer.events) == 10
            assert sink.count == 36
            streamed[compact] = path.read_bytes()
            kept = tmp_path / f"{compact}-kept.jsonl"
            write_events_jsonl(tracer.events, kept)
            assert streamed[compact].endswith(kept.read_bytes())
        assert streamed[True] == streamed[False]


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
