"""Exporters: JSONL events, Chrome trace-event JSON, metrics snapshots.

Three output formats, all built from the same recorded event stream:

* **JSONL** — one JSON object per event, in emit order.  The stable
  machine-readable format; :func:`read_events_jsonl` round-trips it and
  :func:`join_power` runs the event↔energy join against it.
* **Chrome trace-event JSON** — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Domain seconds
  map to microseconds; each category becomes a process, each track a
  thread, so the sim engine, the power signal, every application's
  upcalls, and the fleet coordinator render as separate swim lanes.
  Counter events (supply/demand joules, machine watts) render as
  time-series tracks.
* **Metrics snapshot** — the :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot dict as JSON.

The event↔energy join
---------------------
The machine emits one ``power/span`` complete-event per closed journal
segment, carrying the segment id (``sid``), watts, and joules.  Core
events (upcalls, fidelity moves, goal decisions) carry a ``power_span``
argument — the sid of the journal span covering the instant they fired.
:func:`power_spans` indexes the former; :func:`join_power` annotates the
latter, answering "what was the machine drawing — and what did that
span cost in joules — when this decision happened", the PowerScope
correlation story applied to our own simulator.
"""

from __future__ import annotations

import json
from operator import itemgetter

__all__ = [
    "write_events_jsonl",
    "read_events_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_metrics",
    "power_spans",
    "join_power",
    "join_summary",
]

#: Chrome trace-event phases this exporter emits / the validator accepts.
_PHASES = frozenset("IBEXCM")

#: The one JSONL line encoder, shared with
#: :class:`~repro.obs.tracer.JsonlSink`.  ``json.dumps(record,
#: sort_keys=True)`` builds a new encoder per call; this one is built
#: once and writes the same bytes through the C encoder.
JSONL_ENCODER = json.JSONEncoder(sort_keys=True)

_by_ts = itemgetter(0)


def _as_dict(event):
    return event if isinstance(event, dict) else event.to_dict()


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_events_jsonl(events, path):
    """Write one JSON object per event, in emit order; returns the count."""
    encode = JSONL_ENCODER.encode
    lines = [encode(_as_dict(event)) for event in events]
    with open(path, "w", encoding="utf-8") as handle:
        if lines:
            handle.write("\n".join(lines) + "\n")
    return len(lines)


def read_events_jsonl(path):
    """Load a JSONL event log back into a list of dicts.

    Raises :class:`ValueError` naming ``path:line`` for a line that is
    not a JSON object, so a truncated or foreign log fails with one
    clear message.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg} at "
                                 f"column {exc.colno})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, "
                                 f"got {type(record).__name__}")
            records.append(record)
    return records


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(events):
    """Convert events to the Chrome trace-event JSON object format.

    Categories map to processes and tracks to threads (named via ``M``
    metadata events); ``ts``/``dur`` convert from seconds to
    microseconds.  Within each track, events are sorted by timestamp,
    so a trace assembled from several sources (or several simulators)
    still satisfies per-track monotonicity.
    """
    pids = {}     # cat -> pid, in first-appearance order
    threads = {}  # (cat, track) -> (pid, tid, bucket), first appearance
    tracks = {}   # cat -> its buckets, in tid order
    for event in events:
        if isinstance(event, dict):
            get = event.get
            name, ph, ts = event["name"], event["ph"], event["ts"]
            cat, track, dur, args = (get("cat"), get("track"), get("dur"),
                                     get("args"))
        else:
            name, ph, ts = event.name, event.ph, event.ts
            cat, track = event.cat, event.track
            dur, args = event.dur, event.args
        cat = cat or "trace"
        key = (cat, track or cat)
        thread = threads.get(key)
        if thread is None:
            buckets = tracks.setdefault(cat, [])
            buckets.append([])
            thread = threads[key] = (pids.setdefault(cat, len(pids) + 1),
                                     len(buckets), buckets[-1])
        pid, tid, bucket = thread
        entry = {"name": name, "cat": cat, "ph": ph, "ts": ts * 1e6,
                 "pid": pid, "tid": tid}
        if ph == "X":
            entry["dur"] = (dur or 0.0) * 1e6
        if args is not None:
            entry["args"] = args
        bucket.append((ts, entry))

    trace_events = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "args": {"name": cat}}
        for cat, pid in pids.items()
    ]
    trace_events += [
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
         "args": {"name": track}}
        for (_cat, track), (pid, tid, _bucket) in threads.items()
    ]
    # Buckets are in (pid, tid) order and already in emit order, so a
    # stable sort on ts yields the (pid, tid, ts, emit index) order.
    for buckets in tracks.values():
        for bucket in buckets:
            bucket.sort(key=_by_ts)
            trace_events += [entry for _ts, entry in bucket]
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events, path):
    """Validate and write the Chrome trace JSON; returns the event count.

    Raises :class:`ValueError` listing the problems if the generated
    trace would not satisfy :func:`validate_chrome_trace` — an invalid
    trace on disk is worse than a loud failure.
    """
    trace = chrome_trace(events)
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(
            "generated Chrome trace is invalid: " + "; ".join(problems)
        )
    # json.dumps, not json.dump: dumping to a handle always takes the
    # pure-Python encoder; dumps uses the C one for the same bytes.
    text = json.dumps(trace)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    return len(trace["traceEvents"])


def validate_chrome_trace(trace):
    """Check a Chrome trace object; returns a list of problem strings.

    Enforced: the ``traceEvents`` envelope, per-event required keys
    (``name``/``ph``, plus ``ts``/``pid``/``tid`` for non-metadata
    events and a non-negative ``dur`` for complete events), a known
    phase, and non-decreasing ``ts`` within each ``(pid, tid)`` track.
    An empty list means the trace is valid.  Malformed values are
    reported as problems; the validator never raises on its input.
    """
    problems = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["top-level object must be a dict with a 'traceEvents' list"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    last_ts = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if "name" not in event:
            problems.append(f"{where}: missing 'name'")
        if ph == "M":
            args = event.get("args")
            if ("pid" not in event or not isinstance(args, dict)
                    or "name" not in args):
                problems.append(f"{where}: metadata event needs pid and "
                                f"args.name")
            continue
        missing = [key for key in ("ts", "pid", "tid") if key not in event]
        if missing:
            problems.append(f"{where}: missing {', '.join(missing)}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: ts must be a number, got {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur", 0)
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: dur must be a number, got {dur!r}")
            elif dur < 0:
                problems.append(f"{where}: negative dur")
        key = (event["pid"], event["tid"])
        try:
            previous = last_ts.get(key)
        except TypeError:
            problems.append(f"{where}: pid and tid must be numbers or "
                            f"strings, got {key!r}")
            continue
        if previous is not None and ts < previous:
            problems.append(
                f"{where}: ts {ts} goes backwards on track {key} "
                f"(previous {previous})"
            )
        last_ts[key] = ts
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def write_metrics(registry_or_snapshot, path):
    """Write a metrics snapshot (or a registry's snapshot) as JSON."""
    snapshot = registry_or_snapshot
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# the event↔energy join
# ----------------------------------------------------------------------
def power_spans(events, branch=None):
    """Index the machine's journal-span events by segment id.

    Returns ``{sid: {"t0", "dur", "watts", "joules", "process",
    "procedure", "components"}}`` built from the ``power/span``
    complete-events the machine emits as journal segments close.

    ``branch`` selects whose spans are indexed: ``None`` (the default)
    keeps only trunk spans — segments stamped with a ``branch`` id by a
    lookahead fork's machine are skipped, so a trace that interleaves
    branch journals with the trunk's still folds to trunk-only energy
    (and branch sids can never collide into the trunk index).  Pass a
    branch id to index that branch's spans instead.
    """
    spans = {}
    for event in events:
        if isinstance(event, dict):
            record = event
        elif event.cat == "power" and event.name == "span":
            record = event.to_dict()
        else:
            continue
        if record.get("cat") != "power" or record.get("name") != "span":
            continue
        args = record.get("args") or {}
        if args.get("branch") != branch:
            continue
        sid = args.get("sid")
        if sid is None:
            continue
        spans[sid] = {
            "t0": record["ts"],
            "dur": record.get("dur", 0.0),
            "watts": args.get("watts"),
            "joules": args.get("joules"),
            "process": args.get("process"),
            "procedure": args.get("procedure"),
            "components": args.get("components"),
        }
    return spans


def join_power(events):
    """Join events carrying a ``power_span`` reference to their span.

    Returns a list of ``{"event": <event dict>, "span": <span dict or
    None>}`` — one entry per event whose args include ``power_span``.
    A ``None`` span means the referenced segment never closed inside
    the recorded window (e.g. the tracer's flush hook did not run).
    """
    spans = power_spans(events)
    joined = []
    for event in events:
        if isinstance(event, dict):
            record = event
        elif "power_span" in (event.args or {}):
            record = event.to_dict()
        else:
            continue
        args = record.get("args") or {}
        if "power_span" not in args:
            continue
        joined.append({
            "event": record,
            "span": spans.get(args["power_span"]),
        })
    return joined


def join_summary(joined):
    """Summarize a :func:`join_power` result, surfacing unresolved joins.

    A join is *unresolved* when the referenced journal segment has no
    ``power/span`` event in the recorded window: the sid was a forward
    reference into a segment that merged away, the span event fell out
    of a ring buffer, the ``power`` category was filtered, or the
    tracer's flush hook never ran.  These were previously visible only
    as ``span: None`` entries — easy to miss; the summary makes them a
    first-class count the CLI can warn about.

    Returns ``{"total", "resolved", "unresolved", "unresolved_sids"}``
    where ``unresolved_sids`` is the sorted set of span ids that failed
    to resolve.
    """
    unresolved_sids = set()
    resolved = 0
    for entry in joined:
        if entry["span"] is None:
            args = entry["event"].get("args") or {}
            unresolved_sids.add(args.get("power_span"))
        else:
            resolved += 1
    return {
        "total": len(joined),
        "resolved": resolved,
        "unresolved": len(joined) - resolved,
        "unresolved_sids": sorted(
            sid for sid in unresolved_sids if sid is not None
        ),
    }
