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

Render once per call
--------------------
A goal trace is nearly all compact kinds (``DispatchEvent``,
``WattsEvent`` and ``SpanEvent`` of :mod:`repro.obs.tracer`, 96% of
its events), which build their ``args`` only when it is read.  Each
writer therefore dispatches once on a record's type.  A record whose
fields have their usual types renders from its kind's one constant
line with the payload keys baked in, sorted for JSONL and in insertion
order for Chrome.  A record holding any other value takes the generic
path, so its bytes, and its errors, are those of the equal
:class:`TraceEvent`.  Every other event takes the generic path: a line
template per event shape, with its ``args`` through the writer's one C
encoder.

Within one :func:`write_events_jsonl` or :func:`write_chrome_trace`
call, three things are rendered once and their text reused, each kept
because switching it off was measured to cost time:

* floats by value (:class:`_Reprs`): ``ts`` and ``dur`` (scaled for the
  Chrome trace) and the compact kinds' values.  A run's stamps and
  watts recur, so this saves most of the ``repr`` calls.  Only exact,
  finite, nonzero floats are remembered: ``0.0`` and ``-0.0`` are equal
  but print differently.  ``wall`` stamps never repeat and are printed
  directly.
* a span's ``components`` dict by identity.  It is the machine's shared
  split, so a few dicts serve every span.  The memo holds a reference
  to each dict it encoded, so no other object can take its ``id``
  during the call; emitted payloads are read-only.
* line templates by event shape (``_TEMPLATES`` for JSONL, one
  :func:`_chrome_shape` per shape for Chrome), so labels and keys are
  encoded once per shape.  They pay most on traces with many generic
  events, such as a beam search's.

The float and ``components`` memos live for one call, and a template
holds only a shape's labels.  :func:`jsonl_line`, which the streaming
:class:`~repro.obs.tracer.JsonlSink` calls per event, renders each
event on its own, so streamed bytes never depend on an earlier event.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

from repro.obs.tracer import (COMPACT_KINDS, DispatchEvent, SpanEvent,
                              WattsEvent)

__all__ = [
    "jsonl_line",
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
#: Phases a body entry may carry on the Chrome shape-template path.
_BODY_PHASES = frozenset("IBEXC")

#: The JSONL fallback encoder: what ``json.dumps(record,
#: sort_keys=True)`` writes, for events the shape templates decline.
JSONL_ENCODER = json.JSONEncoder(sort_keys=True)

#: ``args`` encoder of every JSONL template line, called as ``(args,
#: 0)`` for the chunks: ``JSONL_ENCODER``'s settings in one C encoder
#: built once, with no circular-reference markers.  A circular payload
#: overflows the recursion limit here and is re-encoded by the fallback,
#: which raises what ``json.dumps`` raises.
_ARGS_ENCODER = (
    c_make_encoder(None, JSONL_ENCODER.default, encode_basestring_ascii,
                   None, ": ", ", ", True, False, True)
    if c_make_encoder is not None else JSONL_ENCODER.iterencode
)

#: ``args`` encoder of the Chrome shape-template path: what
#: ``json.dumps`` writes for a payload (insertion order, no markers).
#: A circular payload overflows the recursion limit and sends the
#: trace to the reference path, which raises what ``json.dumps`` raises.
_CHROME_ENCODER = json.JSONEncoder()
_CHROME_ARGS_ENCODER = (
    c_make_encoder(None, _CHROME_ENCODER.default, encode_basestring_ascii,
                   None, ": ", ", ", False, False, True)
    if c_make_encoder is not None else _CHROME_ENCODER.iterencode
)

#: Compiled JSONL line templates, keyed on an event's shape; ``None``
#: marks a shape the templates cannot reproduce exactly.
_TEMPLATES = {}
#: The template cache is cleared when it reaches this many shapes.
_MAX_TEMPLATES = 4096

_INF, _NINF = float("inf"), float("-inf")
_by_ts = itemgetter(0)


def _quoted(text):
    """``text`` as a JSON string literal, ``%`` doubled for a template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _payload_template(keys):
    """The JSON object of a payload holding ``keys``, in that order, with
    each value left as a ``%s`` field."""
    return "{" + ", ".join(_quoted(key) + ": %s" for key in keys) + "}"


class _Reprs(dict):
    """Per-call float memo: ``memo[x]`` is ``repr(x)`` for an exact,
    finite float ``x``.  Zeros are never stored: ``0.0 == -0.0`` but they
    print differently."""

    __slots__ = ()

    def __missing__(self, value):
        text = repr(value)
        if value:
            self[value] = text
        return text


#: A span's payload keys in the order its ``args`` holds them.
_SPAN_KEYS = ("sid", "watts", "joules", "process", "procedure",
              "components")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _line_template(cat, name, ph, track, has_args, has_dur, payload="%s"):
    """The sorted-key line for one event shape, with ``args`` (the
    ``payload`` template) and the rendered ``dur`` and ``ts`` left as
    ``%s`` fields and ``wall`` as a ``%r`` field, or ``None`` when a
    label is not exactly a ``str``."""
    labels = (cat, name, ph) if track is None else (cat, name, ph, track)
    if any(type(label) is not str for label in labels):
        return None

    fields = ['"args": ' + payload] if has_args else []
    fields.append('"cat": ' + _quoted(cat))
    if has_dur:
        fields.append('"dur": %s')
    fields += ['"name": ' + _quoted(name), '"ph": ' + _quoted(ph)]
    if track is not None:
        fields.append('"track": ' + _quoted(track))
    fields += ['"ts": %s', '"wall": %r']
    return "{" + ", ".join(fields) + "}\n"


def _compact_line(kind, keys, has_dur=False):
    """The line template of a compact kind whose payload holds ``keys``:
    their values in sorted key order, then ``dur``, ``ts`` and ``wall``."""
    return _line_template(kind.cat, kind.name, kind.ph, kind.track, True,
                          has_dur, _payload_template(sorted(keys)))


_DISPATCH_LINE = _compact_line(DispatchEvent, ("seq",))
_WATTS_LINE = _compact_line(WattsEvent, ("value",))
#: Sorted, a span's payload keys run components, joules, procedure,
#: process, sid, watts.
_SPAN_LINE = _compact_line(SpanEvent, _SPAN_KEYS, has_dur=True)


def _fallback_line(event):
    record = event if isinstance(event, dict) else event.to_dict()
    return JSONL_ENCODER.encode(record) + "\n"


def _jsonl_lines(events):
    """:func:`jsonl_line` of every event, in order, rendering each
    repeated float and ``components`` dict once.  A compact record whose
    fields all have their usual types renders from its kind's line; any
    other event, or a record holding an odd value, takes the generic
    path."""
    floats = _Reprs()
    splits = {}  # id(components dict) -> (the dict, its JSON)
    lines = []
    for event in events:
        kind = type(event)
        try:
            if kind is SpanEvent:
                ts, wall, dur, sid = event.ts, event.wall, event.dur, event.sid
                watts, joules = event.watts, event.joules
                process, procedure = event.process, event.procedure
                components = event.components
                # The sum is finite only if every term is.
                if (type(ts) is type(wall) is type(dur) is type(watts)
                        is type(joules) is float
                        and _NINF < ts + wall + dur + watts + joules < _INF
                        and type(sid) is int
                        and type(process) is type(procedure) is str
                        and type(components) is dict):
                    pinned = splits.get(id(components))
                    if pinned is None:
                        pinned = splits[id(components)] = (
                            components,
                            "".join(_ARGS_ENCODER(components, 0)))
                    values = (pinned[1], floats[joules],
                              encode_basestring_ascii(procedure),
                              encode_basestring_ascii(process), sid,
                              floats[watts], floats[dur], floats[ts], wall)
                    lines.append(_SPAN_LINE % values)
                    continue
            elif kind is DispatchEvent:
                ts, wall, seq = event.ts, event.wall, event.seq
                if (type(ts) is type(wall) is float and type(seq) is int
                        and _NINF < ts + wall < _INF):
                    lines.append(_DISPATCH_LINE % (seq, floats[ts], wall))
                    continue
            elif kind is WattsEvent:
                ts, wall, value = event.ts, event.wall, event.value
                if (type(ts) is type(wall) is type(value) is float
                        and _NINF < ts + wall + value < _INF):
                    lines.append(_WATTS_LINE % (floats[value], floats[ts],
                                                wall))
                    continue
        except (TypeError, ValueError, RecursionError):
            pass  # a components dict the encoder refuses: the generic path
        if isinstance(event, dict):
            lines.append(_fallback_line(event))
            continue
        ts, wall, dur, args = event.ts, event.wall, event.dur, event.args
        if (type(ts) is not float or type(wall) is not float
                or not _NINF < ts < _INF or not _NINF < wall < _INF
                or (dur is not None and (type(dur) is not float
                                         or not _NINF < dur < _INF))):
            lines.append(_fallback_line(event))
            continue
        shape = (event.cat, event.name, event.ph, event.track,
                 args is not None, dur is not None)
        try:
            template = _TEMPLATES[shape]
        except KeyError:
            if len(_TEMPLATES) >= _MAX_TEMPLATES:
                _TEMPLATES.clear()
            template = _TEMPLATES[shape] = _line_template(*shape)
        except TypeError:  # an unhashable label
            template = None
        if template is None:
            lines.append(_fallback_line(event))
            continue
        stamps = ((floats[ts], wall) if dur is None
                  else (floats[dur], floats[ts], wall))
        if args is not None:
            try:
                stamps = ("".join(_ARGS_ENCODER(args, 0)),) + stamps
            except RecursionError:  # circular: let json.dumps say so
                lines.append(_fallback_line(event))
                continue
        lines.append(template % stamps)
    return lines


def jsonl_line(event):
    """One JSONL line, newline included: ``json.dumps(record,
    sort_keys=True) + "\\n"`` for the event's ``to_dict`` record.

    A :class:`~repro.obs.tracer.TraceEvent` whose labels are ``str`` and
    whose ``ts``/``wall``/``dur`` are finite, exactly-``float`` stamps is
    rendered from its shape's template: only the stamps (by
    ``float.__repr__``) and ``args`` are encoded.  Dict inputs and every
    other event take :data:`JSONL_ENCODER`.  The event is rendered on
    its own, so a streamed line never depends on an earlier event.
    """
    return _jsonl_lines((event,))[0]


def write_events_jsonl(events, path):
    """Write one JSON object per event (a :func:`jsonl_line` each), in
    emit order, rendering each repeated value once; returns the count."""
    lines = _jsonl_lines(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))
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
class _TraceLayout:
    """The processes and threads of a Chrome trace: one pid per
    category and one tid per ``(cat, track)``, numbered in first
    appearance order, each thread collecting ``(ts, entry)`` pairs in
    its own bucket."""

    __slots__ = ("pids", "threads", "tracks")

    def __init__(self):
        self.pids = {}     # cat -> pid
        self.threads = {}  # (cat, track) -> (pid, tid, bucket)
        self.tracks = {}   # cat -> its buckets, in tid order

    def thread(self, cat, track):
        """``(cat, (pid, tid, bucket))`` of an event's thread: an unset
        ``cat`` is ``"trace"`` and an unset ``track`` the category's own
        thread.  A first-seen thread is numbered here."""
        cat = cat or "trace"
        key = (cat, track or cat)
        thread = self.threads.get(key)
        if thread is None:
            buckets = self.tracks.setdefault(cat, [])
            buckets.append([])
            thread = self.threads[key] = (
                self.pids.setdefault(cat, len(self.pids) + 1), len(buckets),
                buckets[-1])
        return cat, thread

    def metadata(self):
        """The ``M`` entries naming every process, then every thread."""
        entries = [
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": cat}}
            for cat, pid in self.pids.items()
        ]
        entries += [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": track}}
            for (_cat, track), (pid, tid, _bucket) in self.threads.items()
        ]
        return entries

    def body(self):
        """Every bucket's entries, in ``(pid, tid, ts, emit index)``
        order."""
        # Buckets are in (pid, tid) order and already in emit order, so
        # a stable sort on ts yields the (pid, tid, ts, emit index) order.
        entries = []
        for buckets in self.tracks.values():
            for bucket in buckets:
                bucket.sort(key=_by_ts)
                entries += [entry for _ts, entry in bucket]
        return entries


def chrome_trace(events):
    """Convert events to the Chrome trace-event JSON object format.

    Categories map to processes and tracks to threads (named via ``M``
    metadata events); ``ts``/``dur`` convert from seconds to
    microseconds.  Within each track, events are sorted by timestamp,
    so a trace assembled from several sources (or several simulators)
    still satisfies per-track monotonicity.
    """
    layout = _TraceLayout()
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
        cat, (pid, tid, bucket) = layout.thread(cat, track)
        # A bool stamp passes through unscaled for the validator to flag.
        entry = {"name": name, "cat": cat, "ph": ph,
                 "ts": ts if type(ts) is bool else ts * 1e6,
                 "pid": pid, "tid": tid}
        if ph == "X":
            entry["dur"] = dur if type(dur) is bool else (dur or 0.0) * 1e6
        if args is not None:
            entry["args"] = args
        bucket.append((ts, entry))
    return {"traceEvents": layout.metadata() + layout.body(),
            "displayTimeUnit": "ms"}


def _chrome_shape(layout, cat, track, name, ph, has_args, payload="%s"):
    """``(bucket, template, is_complete)`` for one body-entry shape of
    ``str`` labels (``cat`` may be unset, ``track`` is any thread key),
    or ``None`` when ``ph`` is not a body phase.  The template is the entry's
    ``json.dumps`` text with the rendered ``ts``, then ``dur`` (``X``
    only), then ``args`` (the ``payload`` template) left as ``%s``
    fields; ``pid`` and ``tid`` are baked in."""
    if ph not in _BODY_PHASES:
        return None
    cat, (pid, tid, bucket) = layout.thread(cat, track)
    template = ('{"name": ' + _quoted(name) + ', "cat": ' + _quoted(cat)
                + ', "ph": ' + _quoted(ph) + f', "ts": %s, "pid": {pid}, '
                f'"tid": {tid}')
    is_complete = ph == "X"
    if is_complete:
        template += ', "dur": %s'
    if has_args:
        template += ', "args": ' + payload
    return bucket, template + "}", is_complete


def _compact_shape(layout, kind, keys):
    """:func:`_chrome_shape` of a compact kind whose payload holds
    ``keys``, their values in that (insertion) order."""
    return _chrome_shape(layout, kind.cat, kind.track, kind.name, kind.ph,
                         True, _payload_template(keys))


def _render_chrome(events):
    """``(text, entry count)`` of the Chrome trace, each body entry
    rendered from its shape's template, or ``None`` unless every entry
    is provably valid: ``name``, ``ph`` and a set ``cat`` exactly
    ``str``, a body phase, ``ts`` and ``dur`` non-``bool``
    ``int``/``float`` scaling to finite values, ``dur >= 0``, and an
    ``args`` payload the encoder accepts.  The text is what
    ``json.dumps(chrome_trace(events)) + "\\n"`` writes.  Each repeated
    float and ``components`` dict is rendered once.  A compact
    record whose fields all have their usual types renders from its
    kind's template, compiled when the kind first appears; any other
    event takes the per-shape path."""
    layout = _TraceLayout()
    shapes = {}  # (cat, track, name, ph, has args) -> _chrome_shape
    floats = _Reprs()
    splits = {}  # id(components dict) -> (the dict, its JSON)
    dispatch_shape = watts_shape = span_shape = None
    try:
        for event in events:
            kind = type(event)
            if kind is SpanEvent:
                ts, dur, sid = event.ts, event.dur, event.sid
                watts, joules = event.watts, event.joules
                process, procedure = event.process, event.procedure
                components = event.components
                if (type(ts) is type(dur) is type(watts) is type(joules)
                        is float
                        and type(sid) is int
                        and type(process) is type(procedure) is str
                        and type(components) is dict):
                    scaled, length = ts * 1e6, (dur or 0.0) * 1e6
                    # The sum is finite only if every term is.
                    if (_NINF < scaled + watts + joules < _INF
                            and 0.0 <= length < _INF):
                        pinned = splits.get(id(components))
                        if pinned is None:
                            pinned = splits[id(components)] = (
                                components,
                                "".join(_CHROME_ARGS_ENCODER(components, 0)))
                        values = (floats[scaled], floats[length], sid,
                                  floats[watts], floats[joules],
                                  encode_basestring_ascii(process),
                                  encode_basestring_ascii(procedure),
                                  pinned[1])
                        if span_shape is None:
                            span_shape = _compact_shape(
                                layout, SpanEvent, _SPAN_KEYS)
                        span_shape[0].append((ts, span_shape[1] % values))
                        continue
            elif kind is DispatchEvent:
                ts, seq = event.ts, event.seq
                if type(ts) is float and type(seq) is int:
                    scaled = ts * 1e6
                    if _NINF < scaled < _INF:
                        if dispatch_shape is None:
                            dispatch_shape = _compact_shape(
                                layout, DispatchEvent, ("seq",))
                        dispatch_shape[0].append(
                            (ts, dispatch_shape[1] % (floats[scaled], seq)))
                        continue
            elif kind is WattsEvent:
                ts, value = event.ts, event.value
                if type(ts) is type(value) is float:
                    scaled = ts * 1e6
                    if _NINF < scaled + value < _INF:
                        if watts_shape is None:
                            watts_shape = _compact_shape(layout, WattsEvent,
                                                         ("value",))
                        watts_shape[0].append(
                            (ts, watts_shape[1] % (floats[scaled],
                                                   floats[value])))
                        continue
            if isinstance(event, dict):
                get = event.get
                name, ph, ts = get("name"), get("ph"), get("ts")
                cat, track, dur, args = (get("cat"), get("track"),
                                         get("dur"), get("args"))
            else:
                name, ph, ts = event.name, event.ph, event.ts
                cat, track = event.cat, event.track
                dur, args = event.dur, event.args
            # The labels the entry writes must be exactly str, since a
            # shape's template serves every equal key.  The track only
            # keys the thread, as in chrome_trace.
            if (type(name) is not str or type(ph) is not str
                    or (cat is not None and type(cat) is not str)):
                return None
            key = (cat, track, name, ph, args is not None)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _chrome_shape(layout, *key)
                if shape is None:
                    return None
            if type(ts) is not float and type(ts) is not int:
                return None
            scaled = ts * 1e6
            if not _NINF < scaled < _INF:
                return None
            bucket, template, is_complete = shape
            if not is_complete:
                stamps = (floats[scaled],)
            elif dur is None or type(dur) is float or type(dur) is int:
                span = (dur or 0.0) * 1e6
                if not 0.0 <= span < _INF:
                    return None
                stamps = (floats[scaled], floats[span])
            else:
                return None
            if args is not None:
                stamps += ("".join(_CHROME_ARGS_ENCODER(args, 0)),)
            bucket.append((ts, template % stamps))
        parts = [json.dumps(entry) for entry in layout.metadata()]
    except (AttributeError, TypeError, ValueError, OverflowError,
            RecursionError):
        # Not a TraceEvent or dict, an unhashable or unserializable
        # track, an int stamp too large for a float, or a payload the
        # encoder refuses.
        return None
    parts += layout.body()
    return ('{"traceEvents": [' + ", ".join(parts)
            + '], "displayTimeUnit": "ms"}\n', len(parts))


def write_chrome_trace(events, path):
    """Validate and write the Chrome trace JSON; returns the event count.

    The file holds ``json.dumps(chrome_trace(events)) + "\\n"``.  When
    every event's entry is provably valid, each body entry is rendered
    from a template compiled once per call for each event shape ``(cat,
    track, name, ph, args is not None)`` and only ``ts``, ``dur`` and
    ``args`` are encoded per event, each repeated value once per call.
    Otherwise the whole trace takes the reference path:
    :func:`chrome_trace`, :func:`validate_chrome_trace`, then
    ``json.dumps``.  That path raises :class:`ValueError` listing the
    problems if the trace would not validate — an invalid trace on disk
    is worse than a loud failure — or what ``json.dumps`` raises for an
    unserializable payload; either way no file is written.
    """
    if iter(events) is events:  # a one-shot iterator: both paths read it
        events = list(events)
    rendered = _render_chrome(events)
    if rendered is None:
        trace = chrome_trace(events)
        problems = validate_chrome_trace(trace)
        if problems:
            raise ValueError(
                "generated Chrome trace is invalid: " + "; ".join(problems)
            )
        # json.dumps, not json.dump: dumping to a handle always takes the
        # pure-Python encoder; dumps uses the C one for the same bytes.
        rendered = (json.dumps(trace) + "\n", len(trace["traceEvents"]))
    text, count = rendered
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return count


def validate_chrome_trace(trace):
    """Check a Chrome trace object; returns a list of problem strings.

    Enforced: the ``traceEvents`` envelope, per-event required keys
    (``name``/``ph``, plus ``ts``/``pid``/``tid`` for non-metadata
    events and a non-negative ``dur`` for complete events), a known
    phase, ``ts``/``dur`` that are finite numbers and not ``bool`` (a
    NaN or infinity would be written as ``NaN``/``Infinity``, which is
    not JSON), and non-decreasing ``ts`` within each ``(pid, tid)``
    track.
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
    # Problem strings are formatted only once a problem is found.
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}]: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _PHASES:
            problems.append(f"traceEvents[{index}]: unknown phase {ph!r}")
            continue
        if "name" not in event:
            problems.append(f"traceEvents[{index}]: missing 'name'")
        if ph == "M":
            args = event.get("args")
            if ("pid" not in event or not isinstance(args, dict)
                    or "name" not in args):
                problems.append(f"traceEvents[{index}]: metadata event "
                                f"needs pid and args.name")
            continue
        if "ts" not in event or "pid" not in event or "tid" not in event:
            missing = [key for key in ("ts", "pid", "tid")
                       if key not in event]
            problems.append(f"traceEvents[{index}]: missing "
                            f"{', '.join(missing)}")
            continue
        ts = event["ts"]
        if type(ts) is not float or not _NINF < ts < _INF:
            problem = _stamp_problem("ts", ts)
            if problem:
                problems.append(f"traceEvents[{index}]: {problem}")
                continue
        if ph == "X":
            dur = event.get("dur", 0)
            problem = None
            if type(dur) is not float or not _NINF < dur < _INF:
                problem = _stamp_problem("dur", dur)
            if problem:
                problems.append(f"traceEvents[{index}]: {problem}")
            elif dur < 0:
                problems.append(f"traceEvents[{index}]: negative dur")
        key = (event["pid"], event["tid"])
        try:
            previous = last_ts.get(key)
        except TypeError:
            problems.append(f"traceEvents[{index}]: pid and tid must be "
                            f"numbers or strings, got {key!r}")
            continue
        if previous is not None and ts < previous:
            problems.append(
                f"traceEvents[{index}]: ts {ts} goes backwards on track "
                f"{key} (previous {previous})"
            )
        last_ts[key] = ts
    return problems


def _stamp_problem(key, value):
    """Why ``value`` is not a valid ``ts``/``dur``, or ``None``."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return f"{key} must be a number, got {value!r}"
    if isinstance(value, float) and not _NINF < value < _INF:
        return f"{key} must be finite, got {value!r}"
    return None


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
def power_spans(events):
    """Index the machine's journal-span events by segment id.

    Returns ``{sid: {"t0", "dur", "watts", "joules", "process",
    "procedure", "components"}}`` built from the ``power/span``
    complete-events the machine emits as journal segments close.  A
    :class:`~repro.obs.tracer.SpanEvent`'s fields are read directly,
    without building its ``args``.
    """
    spans = {}
    for event in events:
        kind = type(event)
        if kind is SpanEvent:
            sid = event.sid
            if sid is None:
                continue
            dur = event.dur
            spans[sid] = {
                "t0": event.ts,
                "dur": 0.0 if dur is None else dur,
                "watts": event.watts,
                "joules": event.joules,
                "process": event.process,
                "procedure": event.procedure,
                "components": event.components,
            }
            continue
        if kind is DispatchEvent or kind is WattsEvent:
            continue
        if isinstance(event, dict):
            if event.get("cat") != "power" or event.get("name") != "span":
                continue
            ts, dur = event["ts"], event.get("dur", 0.0)
            args = event.get("args") or {}
        elif event.cat == "power" and event.name == "span":
            ts, dur = event.ts, event.dur
            if dur is None:
                dur = 0.0
            args = event.args or {}
        else:
            continue
        sid = args.get("sid")
        if sid is None:
            continue
        spans[sid] = {
            "t0": ts,
            "dur": dur,
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
        if type(event) in COMPACT_KINDS:
            continue  # no compact payload carries a power_span
        is_dict = isinstance(event, dict)
        args = (event.get("args") if is_dict else event.args) or {}
        if "power_span" not in args:
            continue
        joined.append({
            "event": event if is_dict else event.to_dict(),
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
