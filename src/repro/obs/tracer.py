"""Structured event tracing: the recording half of ``repro.obs``.

The tracer is a low-overhead, append-only (or ring-buffered) recorder
of *categorized* events.  Instrumented subsystems — the sim engine, the
Odyssey core, PowerScope, the fleet coordinator — emit events through a
:class:`Tracer`; exporters in :mod:`repro.obs.export` turn the recorded
stream into JSONL, Chrome trace-event JSON (Perfetto-loadable), or a
joined event↔energy view.

Overhead contract
-----------------
Tracing is opt-in and must cost (almost) nothing when off:

* The default tracer is :data:`NULL_TRACER`, a singleton whose
  ``enabled`` flag is ``False`` and whose emit methods are no-ops.
* Instrumented hot paths do **not** call emit methods per event.  At
  construction they resolve a *gate*::

      self._trace = tracer.gate("sim")   # tracer, or None when off

  and the per-event cost of disabled tracing is one attribute load and
  one ``is not None`` branch.  ``gate`` returns ``None`` both for the
  null tracer and for categories excluded by the tracer's category
  filter, so partial tracing is as cheap as no tracing for the
  excluded subsystems.
* ``python -m repro bench`` includes a ``tracer_overhead`` benchmark
  whose disabled-path time is regression-gated at 3 % in CI.

Timestamps
----------
Every event carries two stamps: ``ts`` — the *domain* time, simulated
seconds for sim-driven subsystems and wall seconds since tracer
creation for the fleet coordinator — supplied by the caller, and
``wall`` — wall seconds since tracer creation, stamped by the tracer.
Exporters map ``ts`` to microseconds for the Chrome trace format.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager

from repro.obs.export import JSONL_ENCODER

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "install",
    "uninstall",
    "installed",
    "current_tracer",
]

#: Event phases, matching the Chrome trace-event ``ph`` vocabulary.
INSTANT, BEGIN, END, COMPLETE, COUNTER = "I", "B", "E", "X", "C"


class TraceEvent:
    """One recorded event.

    Attributes
    ----------
    ts:
        Domain timestamp in seconds (simulated time for sim-driven
        subsystems, wall time since tracer creation for the fleet).
    wall:
        Wall seconds since tracer creation, stamped at emit time.
    cat:
        Subsystem category (``"sim"``, ``"power"``, ``"core"``,
        ``"powerscope"``, ``"fleet"``).
    name:
        Event name within the category.
    ph:
        Phase: ``"I"`` instant, ``"B"``/``"E"`` span begin/end,
        ``"X"`` complete span (with ``dur``), ``"C"`` counter.
    track:
        Display track (component / application / process); exporters
        map one track to one Chrome trace thread.
    dur:
        Span duration in seconds (``"X"`` events only).
    args:
        Optional payload dict (JSON-serializable values).
    """

    __slots__ = ("ts", "wall", "cat", "name", "ph", "track", "dur", "args")

    def __init__(self, ts, wall, cat, name, ph, track=None, dur=None,
                 args=None):
        self.ts = ts
        self.wall = wall
        self.cat = cat
        self.name = name
        self.ph = ph
        self.track = track
        self.dur = dur
        self.args = args

    def to_dict(self):
        """JSONL-shaped dict (``dur``/``args``/``track`` omitted if unset)."""
        record = {
            "ts": self.ts,
            "wall": self.wall,
            "cat": self.cat,
            "name": self.name,
            "ph": self.ph,
        }
        if self.track is not None:
            record["track"] = self.track
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args is not None:
            record["args"] = self.args
        return record

    def __repr__(self):
        return (f"<TraceEvent {self.ph} {self.cat}/{self.name} "
                f"ts={self.ts:.6f} track={self.track}>")


class JsonlSink:
    """Streaming sink: append events to disk as they are emitted.

    Attach to a :class:`Tracer` via its ``sink=`` parameter and every
    event reaches disk *at emit time*, before any ring-buffer eviction
    — so an unbounded Figure-22-length run can be traced (and later
    diffed) with a small ring, without losing the prefix.  The on-disk
    format is exactly :func:`repro.obs.export.write_events_jsonl`'s:
    one sorted-key JSON object per line, in emit order.
    """

    def __init__(self, path):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self.count = 0

    def write(self, event):
        self._handle.write(JSONL_ENCODER.encode(event.to_dict()) + "\n")
        self.count += 1

    def flush(self):
        if self._handle is not None:
            self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class Tracer:
    """Recording tracer.

    Parameters
    ----------
    capacity:
        ``None`` for an unbounded append-only log; an integer for a
        ring buffer keeping the most recent ``capacity`` events
        (overflow increments :attr:`dropped`).
    categories:
        ``None`` traces every category; an iterable of category names
        restricts tracing to those subsystems (``gate`` returns
        ``None`` for the rest, so excluded paths pay nothing).
    sink:
        Optional streaming sink (anything with ``write(event)``, e.g.
        :class:`JsonlSink`).  Every emitted event is forwarded before
        ring eviction can drop it; :meth:`flush` also flushes the sink
        when it has a ``flush`` method.
    clock:
        Wall clock; injectable for tests.
    """

    enabled = True

    def __init__(self, capacity=None, categories=None, sink=None,
                 clock=time.perf_counter):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.events = deque(maxlen=capacity) if capacity else []
        self.categories = frozenset(categories) if categories else None
        self.sink = sink
        self.dropped = 0
        self._clock = clock
        self.t0_wall = clock()
        self._flush_hooks = []

    # ------------------------------------------------------------------
    # gating
    # ------------------------------------------------------------------
    def gate(self, category):
        """This tracer if ``category`` is traced, else ``None``.

        Instrumented classes resolve the gate once and keep the result;
        hot paths then pay one ``is not None`` check when tracing is
        off (see the module docstring's overhead contract).
        """
        if self.categories is None or category in self.categories:
            return self
        return None

    def wall(self):
        """Wall seconds since tracer creation (the fleet's ``ts`` domain)."""
        return self._clock() - self.t0_wall

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(self, event):
        events = self.events
        if self.capacity is not None and len(events) == self.capacity:
            self.dropped += 1
        events.append(event)
        if self.sink is not None:
            self.sink.write(event)
        return event

    def instant(self, ts, cat, name, track=None, args=None):
        """Record a point event."""
        return self._emit(
            TraceEvent(ts, self.wall(), cat, name, INSTANT, track, None, args)
        )

    def counter(self, ts, cat, name, value, track=None):
        """Record a counter sample (a time series point)."""
        return self._emit(
            TraceEvent(ts, self.wall(), cat, name, COUNTER, track, None,
                       {"value": value})
        )

    def begin(self, ts, cat, name, track=None, args=None):
        """Open a span on ``track`` (close it with :meth:`end`)."""
        return self._emit(
            TraceEvent(ts, self.wall(), cat, name, BEGIN, track, None, args)
        )

    def end(self, ts, cat, name, track=None, args=None):
        """Close the most recent open span of ``name`` on ``track``."""
        return self._emit(
            TraceEvent(ts, self.wall(), cat, name, END, track, None, args)
        )

    def complete(self, ts, cat, name, dur, track=None, args=None):
        """Record a finished span: start ``ts``, duration ``dur`` seconds."""
        return self._emit(
            TraceEvent(ts, self.wall(), cat, name, COMPLETE, track, dur, args)
        )

    def replay(self, record, cat=None, name=None, track=None):
        """Re-emit a previously exported event dict (``to_dict`` shape).

        The domain timestamp, phase, duration, and args are preserved;
        ``wall`` is restamped against this tracer's clock.  ``cat``,
        ``name`` and ``track`` override the record's own values — the
        fleet runner uses this to merge worker ring buffers into the
        coordinator's stream under the ``fleet`` category on per-task
        tracks, without colliding with the coordinator's sim-domain
        tracks.
        """
        return self._emit(TraceEvent(
            record["ts"], self.wall(),
            cat if cat is not None else record.get("cat"),
            name if name is not None else record.get("name"),
            record.get("ph", INSTANT),
            track if track is not None else record.get("track"),
            record.get("dur"),
            record.get("args"),
        ))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def add_flush_hook(self, hook):
        """Register ``hook()`` to run at :meth:`flush` (e.g. a machine
        emitting its still-open journal span before export)."""
        self._flush_hooks.append(hook)

    def flush(self):
        """Run flush hooks (and flush the sink); call once before export."""
        for hook in self._flush_hooks:
            hook()
        sink_flush = getattr(self.sink, "flush", None)
        if sink_flush is not None:
            sink_flush()

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A process-wide singleton (:data:`NULL_TRACER`) stands in wherever
    no tracer was supplied, so instrumented code never needs a ``None``
    check on the tracer object itself — only on the category gate.
    """

    enabled = False
    events = ()
    dropped = 0
    capacity = None
    categories = None

    def gate(self, category):
        return None

    def wall(self):
        return 0.0

    def instant(self, *args, **kwargs):
        return None

    def counter(self, *args, **kwargs):
        return None

    def begin(self, *args, **kwargs):
        return None

    def end(self, *args, **kwargs):
        return None

    def complete(self, *args, **kwargs):
        return None

    def replay(self, *args, **kwargs):
        return None

    def add_flush_hook(self, hook):
        return None

    def flush(self):
        return None

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())


NULL_TRACER = NullTracer()

#: The process-wide installed tracer; :class:`~repro.sim.Simulator` and
#: :class:`~repro.fleet.FleetRunner` resolve it at construction when no
#: explicit tracer is passed, which is how the CLI's ``--trace`` flag
#: reaches every rig an experiment builds.
_installed = NULL_TRACER


def install(tracer):
    """Make ``tracer`` the process-wide default; returns the previous one."""
    global _installed
    previous = _installed
    _installed = tracer if tracer is not None else NULL_TRACER
    return previous


def uninstall():
    """Reset the process-wide default to the null tracer."""
    return install(NULL_TRACER)


def current_tracer():
    """The process-wide default tracer (the null tracer unless installed)."""
    return _installed


@contextmanager
def installed(tracer):
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)
