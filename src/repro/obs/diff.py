"""Trace diffing: align two traced goal runs and report where they part.

The paper's headline claim is that goal-directed adaptation changes
*decisions* — which fidelity moves fire, when, and how much energy each
saves (Figures 18-22).  Scalar endpoints (goal met, residual joules)
hide regressions that shift the decision sequence while landing in the
same place, so this module compares two runs decision by decision:

1. :func:`decision_spine` reduces a recorded event stream to its
   *decision spine*: one :class:`SpineEntry` per goal-controller
   decision, keyed by the controller's stable decision id (``did``) and
   carrying the action taken plus any upcalls it fired.  Decisions run
   on a fixed period from ``start()``, so the k-th decision of two runs
   under different policies lands at the same sim instant — alignment
   is *keyed* on ``did``, never positional, and survives the extra
   events a chattier policy interleaves.
2. :func:`diff_spines` walks the aligned spines and groups contiguous
   disagreements into :class:`DivergenceWindow` runs (a ``gap`` of
   matching decisions may be absorbed to merge near-adjacent windows).
3. :func:`attribute_energy` charges each window with the energy either
   side spent across it, by pro-rating the ``power/span`` journal
   segments (the :func:`repro.obs.export.join_power` span vocabulary)
   that overlap the window's sim-time interval.

:func:`diff_traces` composes the three; ``python -m repro diff`` is the
CLI face and the golden-trace suite (``tests/test_trace_golden.py``)
asserts on :func:`diff_spines` output directly, making behavioural
drift in the controller a test failure instead of a silent plot change.

All output is a pure function of the events' *sim* timestamps and
payloads — wall-clock stamps are never consulted — so two diffs of the
same pair of runs are byte-identical.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right

from repro.obs.export import power_spans

__all__ = [
    "SpineEntry",
    "DivergenceWindow",
    "TraceDiff",
    "decision_spine",
    "diff_spines",
    "diff_traces",
    "diff_row",
    "attribute_energy",
    "attribute_energy_spans",
    "window_energy",
    "write_spine_jsonl",
    "read_spine_jsonl",
]


class SpineEntry:
    """One goal-controller decision: the unit of trace alignment.

    Attributes
    ----------
    did:
        The controller's stable decision id (1-based tick count).
    ts:
        Sim time of the decision.
    action:
        ``"hold"``, ``"degrade"`` or ``"upgrade"`` — the trigger's
        verdict, before delivery (an upgrade verdict with no upgradable
        application still reads ``"upgrade"`` with no upcalls).
    upcalls:
        Tuple of ``(kind, application, level)`` triples delivered under
        this decision, in delivery order.
    infeasible:
        True when this decision first reported the goal infeasible.
    """

    __slots__ = ("did", "ts", "action", "upcalls", "infeasible")

    def __init__(self, did, ts, action, upcalls=(), infeasible=False):
        self.did = did
        self.ts = ts
        self.action = action
        self.upcalls = tuple(tuple(u) for u in upcalls)
        self.infeasible = bool(infeasible)

    def signature(self):
        """What alignment compares: everything except the timestamp."""
        return (self.action, self.upcalls, self.infeasible)

    def to_dict(self):
        record = {"did": self.did, "ts": self.ts, "action": self.action}
        if self.upcalls:
            record["upcalls"] = [list(u) for u in self.upcalls]
        if self.infeasible:
            record["infeasible"] = True
        return record

    @classmethod
    def from_dict(cls, record):
        return cls(
            record["did"], record["ts"], record["action"],
            upcalls=record.get("upcalls", ()),
            infeasible=record.get("infeasible", False),
        )

    def __eq__(self, other):
        return (isinstance(other, SpineEntry)
                and self.did == other.did
                and self.signature() == other.signature())

    def __repr__(self):
        return (f"<SpineEntry did={self.did} t={self.ts:.3f} "
                f"{self.action} upcalls={len(self.upcalls)}>")


def decision_spine(events):
    """Extract the decision spine from a recorded event stream.

    Accepts :class:`~repro.obs.tracer.TraceEvent` objects or the dicts
    :func:`~repro.obs.export.read_events_jsonl` returns.  Decisions are
    keyed by their ``did`` argument; upcall and infeasible events attach
    to the decision whose ``did`` they carry.  Traces recorded before
    decision ids existed fall back to arrival order (positional ids),
    so old JSONL files still diff — just less robustly.
    """
    entries = []
    by_did = {}
    for event in events:
        if isinstance(event, dict):
            if event.get("cat") != "core":
                continue
            name = event.get("name", "")
            args = event.get("args") or {}
        elif event.cat != "core":
            continue
        else:
            name = event.name
            args = event.args or {}
        if name.startswith("decision."):
            did = args.get("did", len(entries) + 1)
            ts = event["ts"] if isinstance(event, dict) else event.ts
            entry = SpineEntry(did, ts, name.split(".", 1)[1])
            entries.append(entry)
            by_did[did] = entry
        elif name.startswith("upcall."):
            entry = by_did.get(args.get("did"))
            if entry is None and entries:
                entry = entries[-1]
            if entry is not None:
                entry.upcalls += (
                    (name.split(".", 1)[1], args.get("application"),
                     args.get("level")),
                )
        elif name == "infeasible":
            entry = by_did.get(args.get("did"))
            if entry is None and entries:
                entry = entries[-1]
            if entry is not None:
                entry.infeasible = True
    entries.sort(key=lambda e: e.did)
    return entries


class DivergenceWindow:
    """A maximal run of decisions where the two traces disagree.

    ``start_did``/``end_did`` bound the window (inclusive); ``t0`` is
    the sim time of the first divergent decision and ``t1`` the time of
    the first decision *after* the window where the traces agree again
    (or the last decision either trace recorded) — the interval energy
    attribution integrates over.  ``entries_a``/``entries_b`` hold each
    side's divergent :class:`SpineEntry` list; a decision only one side
    reached (one run's controller stopped earlier) appears on that side
    alone.  ``energy_a``/``energy_b`` are filled by
    :func:`attribute_energy`; ``energy_delta`` is ``b - a``.
    """

    __slots__ = ("start_did", "end_did", "t0", "t1",
                 "entries_a", "entries_b",
                 "energy_a", "energy_b", "energy_delta", "energy_share")

    def __init__(self, start_did, end_did, t0, t1, entries_a, entries_b):
        self.start_did = start_did
        self.end_did = end_did
        self.t0 = t0
        self.t1 = t1
        self.entries_a = list(entries_a)
        self.entries_b = list(entries_b)
        self.energy_a = None
        self.energy_b = None
        self.energy_delta = None
        self.energy_share = None

    @property
    def decisions(self):
        """Number of divergent decision ids in the window."""
        return self.end_did - self.start_did + 1

    def to_dict(self):
        record = {
            "start_did": self.start_did,
            "end_did": self.end_did,
            "t0": self.t0,
            "t1": self.t1,
            "decisions": self.decisions,
            "entries_a": [e.to_dict() for e in self.entries_a],
            "entries_b": [e.to_dict() for e in self.entries_b],
        }
        if self.energy_delta is not None:
            record["energy_a"] = self.energy_a
            record["energy_b"] = self.energy_b
            record["energy_delta"] = self.energy_delta
        if self.energy_share is not None:
            record["energy_share"] = self.energy_share
        return record

    def __repr__(self):
        return (f"<DivergenceWindow did {self.start_did}..{self.end_did} "
                f"t {self.t0:.1f}..{self.t1:.1f}>")


class TraceDiff:
    """The full diff of two traced runs.

    Attributes
    ----------
    label_a / label_b:
        Display names for the two sides (file paths from the CLI).
    spine_a / spine_b:
        The two decision spines that were aligned.
    windows:
        :class:`DivergenceWindow` list in decision order; empty means
        the runs made identical decisions.
    """

    def __init__(self, label_a, label_b, spine_a, spine_b, windows):
        self.label_a = label_a
        self.label_b = label_b
        self.spine_a = spine_a
        self.spine_b = spine_b
        self.windows = windows
        # Whole-run journal energy per side; filled by attribute_energy.
        self.total_energy_a = None
        self.total_energy_b = None

    @property
    def identical(self):
        return not self.windows

    @property
    def first_divergence(self):
        """The first divergent window, or None when identical."""
        return self.windows[0] if self.windows else None

    @property
    def divergent_decisions(self):
        return sum(w.decisions for w in self.windows)

    @property
    def total_energy_delta(self):
        """Whole-run energy delta (B - A), or None before attribution."""
        if self.total_energy_a is None or self.total_energy_b is None:
            return None
        return self.total_energy_b - self.total_energy_a

    @property
    def energy_share(self):
        """Fraction of either run's energy spent inside divergence
        windows — the larger of the two sides, the same severity measure
        each window carries individually.  None before attribution,
        0.0 when the spines are identical."""
        if self.total_energy_a is None or self.total_energy_b is None:
            return None
        windows_a = sum(w.energy_a for w in self.windows
                        if w.energy_a is not None)
        windows_b = sum(w.energy_b for w in self.windows
                        if w.energy_b is not None)
        return max(
            windows_a / self.total_energy_a if self.total_energy_a > 0
            else 0.0,
            windows_b / self.total_energy_b if self.total_energy_b > 0
            else 0.0,
        )

    def to_dict(self):
        """Deterministic JSON-shaped summary (no wall-clock values)."""
        record = {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "decisions_a": len(self.spine_a),
            "decisions_b": len(self.spine_b),
            "identical": self.identical,
            "divergent_decisions": self.divergent_decisions,
            "windows": [w.to_dict() for w in self.windows],
        }
        if self.total_energy_a is not None:
            record["total_energy_a"] = self.total_energy_a
            record["total_energy_b"] = self.total_energy_b
            record["total_energy_delta"] = self.total_energy_delta
            record["energy_share"] = self.energy_share
        first = self.first_divergence
        if first is not None:
            record["first_divergence"] = {
                "did": first.start_did,
                "ts": first.t0,
                "a": [e.to_dict() for e in first.entries_a[:1]],
                "b": [e.to_dict() for e in first.entries_b[:1]],
            }
        return record

    def render(self, max_windows=10):
        """Human-readable report for the CLI."""
        lines = [f"trace diff: A = {self.label_a}",
                 f"            B = {self.label_b}",
                 f"decisions: {len(self.spine_a)} (A) vs "
                 f"{len(self.spine_b)} (B)"]
        if self.identical:
            lines.append("decision spines are identical")
            return "\n".join(lines)
        lines.append(
            f"{len(self.windows)} divergence window(s), "
            f"{self.divergent_decisions} divergent decision(s)"
        )
        first = self.first_divergence
        lines.append(
            f"first divergence at decision {first.start_did} "
            f"(t={first.t0:.1f}s): "
            f"A={_describe(first.entries_a[:1])} vs "
            f"B={_describe(first.entries_b[:1])}"
        )
        for index, window in enumerate(self.windows):
            if index == max_windows:
                lines.append(
                    f"... {len(self.windows) - max_windows} more window(s)"
                )
                break
            line = (f"  window {index + 1}: decisions "
                    f"{window.start_did}..{window.end_did} "
                    f"(t {window.t0:.1f}..{window.t1:.1f}s) "
                    f"A={_describe(window.entries_a)} "
                    f"B={_describe(window.entries_b)}")
            if window.energy_delta is not None:
                line += (f" energy A {window.energy_a:.1f} J, "
                         f"B {window.energy_b:.1f} J, "
                         f"delta {window.energy_delta:+.1f} J")
            if window.energy_share is not None:
                line += f" [{window.energy_share * 100:.1f}% of run]"
            lines.append(line)
        total = sum(w.energy_delta for w in self.windows
                    if w.energy_delta is not None)
        if any(w.energy_delta is not None for w in self.windows):
            lines.append(f"total attributed energy delta (B - A): "
                         f"{total:+.1f} J")
        if self.total_energy_a is not None:
            lines.append(
                f"run energy: A {self.total_energy_a:.1f} J, "
                f"B {self.total_energy_b:.1f} J "
                f"(delta {self.total_energy_delta:+.1f} J); "
                f"{self.energy_share * 100:.1f}% of run energy inside "
                f"divergence windows"
            )
        return "\n".join(lines)


def _describe(entries):
    """Compact rendering of a window side, e.g. ``degrade>video:3,hold``."""
    if not entries:
        return "(absent)"
    parts = []
    for entry in entries:
        part = entry.action
        for kind, application, level in entry.upcalls:
            part += f">{application}:{level}"
        if entry.infeasible:
            part += "!infeasible"
        parts.append(part)
    if len(parts) > 4:
        parts = parts[:4] + [f"...x{len(entries) - 4}"]
    return ",".join(parts)


def diff_spines(spine_a, spine_b, gap=0, label_a="A", label_b="B"):
    """Align two spines on decision id and group divergences.

    ``gap`` absorbs up to that many *matching* decisions between two
    divergent runs into one window — useful when a single policy change
    flickers across a boundary and you want it reported once.
    """
    index_a = {entry.did: entry for entry in spine_a}
    index_b = {entry.did: entry for entry in spine_b}
    dids = sorted(set(index_a) | set(index_b))

    divergent = []
    for did in dids:
        a, b = index_a.get(did), index_b.get(did)
        if a is None or b is None or a.signature() != b.signature():
            divergent.append(did)

    windows = []
    if divergent:
        # Group divergent dids whose gap (in aligned decisions, not id
        # arithmetic) is <= gap.
        position = {did: k for k, did in enumerate(dids)}
        groups = [[divergent[0]]]
        for did in divergent[1:]:
            if position[did] - position[groups[-1][-1]] - 1 <= gap:
                groups[-1].append(did)
            else:
                groups.append([did])
        for group in groups:
            start, end = group[0], group[-1]
            # ``dids`` is sorted and unique: the window's members are
            # one slice of it, and the next decision follows the slice.
            stop = position[end] + 1
            members = dids[position[start]:stop]
            entries_a = [index_a[d] for d in members if d in index_a]
            entries_b = [index_b[d] for d in members if d in index_b]
            t0 = min(e.ts for e in entries_a + entries_b)
            # The window closes at the next decision where both sides
            # agree again; energy attribution integrates [t0, t1).
            if stop < len(dids):
                nxt = dids[stop]
                t1 = min(e.ts for e in
                         [x for x in (index_a.get(nxt), index_b.get(nxt))
                          if x is not None])
            else:
                t1 = max(e.ts for e in entries_a + entries_b)
            windows.append(
                DivergenceWindow(start, end, t0, t1, entries_a, entries_b)
            )
    return TraceDiff(label_a, label_b, list(spine_a), list(spine_b), windows)


# ----------------------------------------------------------------------
# energy attribution
# ----------------------------------------------------------------------
def window_energy(spans, t0, t1):
    """Joules recorded by ``power/span`` segments inside ``[t0, t1)``.

    ``spans`` is the :func:`repro.obs.export.power_spans` index; spans
    partially overlapping the interval contribute pro-rata (constant
    power within a journal segment, by construction).
    """
    return _window_energy(_span_index(spans), t0, t1)


def _span_index(spans):
    """``spans`` as ``(starts, ends, watts, ordered)`` columns in dict
    order.  ``ordered`` holds when both starts and ends never decrease
    (a journal's spans, which tile sim time in emit order): the spans
    overlapping any window are then one run of positions, found by
    bisect.  Shuffled or nested spans (merged or hand-built dicts) scan
    every position instead."""
    starts = []
    ends = []
    watts = []
    for span in spans.values():
        s0 = span["t0"]
        starts.append(s0)
        ends.append(s0 + (span["dur"] or 0.0))
        watts.append(span["watts"])
    ordered = all(a <= b for column in (starts, ends)
                  for a, b in zip(column, column[1:]))
    return starts, ends, watts, ordered


def _window_energy(index, t0, t1):
    """:func:`window_energy` over a :func:`_span_index`: the same
    products added in the same (dict) order, so the sum is bit-identical
    to scanning every span."""
    starts, ends, watts, ordered = index
    if ordered and t0 == t0 and t1 == t1:  # a NaN edge takes the scan
        lo = bisect_right(ends, t0)
        hi = bisect_left(starts, t1, lo)
    else:
        lo, hi = 0, len(starts)
    total = 0.0
    for k in range(lo, hi):
        overlap = min(ends[k], t1) - max(starts[k], t0)
        if overlap > 0.0 and watts[k] is not None:
            total += watts[k] * overlap
    return total


def _span_total(spans):
    return sum((span["watts"] or 0.0) * (span["dur"] or 0.0)
               for span in spans.values())


def attribute_energy_spans(diff, spans_a, spans_b):
    """:func:`attribute_energy` against prebuilt span indexes.

    Callers that already hold :func:`~repro.obs.export.power_spans`
    indexes (the policy-matrix workers diff one baseline against many
    candidates) skip re-indexing the event streams.  Returns ``diff``.
    """
    total_a = _span_total(spans_a)
    total_b = _span_total(spans_b)
    diff.total_energy_a = total_a
    diff.total_energy_b = total_b
    index_a = _span_index(spans_a)
    index_b = _span_index(spans_b)
    for window in diff.windows:
        window.energy_a = _window_energy(index_a, window.t0, window.t1)
        window.energy_b = _window_energy(index_b, window.t0, window.t1)
        window.energy_delta = window.energy_b - window.energy_a
        window.energy_share = max(
            window.energy_a / total_a if total_a > 0 else 0.0,
            window.energy_b / total_b if total_b > 0 else 0.0,
        )
    return diff


def attribute_energy(diff, events_a, events_b):
    """Fill each window's ``energy_a``/``energy_b``/``energy_delta``.

    Uses the same ``power/span`` journal segments the
    :func:`~repro.obs.export.join_power` event↔energy join resolves
    against, so the delta is exactly the machine-journal energy each
    side spent across the divergent interval.  Each window also gets
    ``energy_share`` — the larger of its two sides' fractions of that
    side's whole-run energy, a severity measure readable at a glance —
    and the diff itself records both sides' whole-run totals.
    Returns ``diff``.
    """
    return attribute_energy_spans(
        diff, power_spans(events_a), power_spans(events_b)
    )


def diff_row(spine_a, spans_a, spine_b, spans_b, gap=0):
    """Diff one (baseline, candidate) pair into a compact row dict.

    The policy-matrix unit: where :func:`diff_traces` returns the full
    report object (every window, every entry), this returns only the
    scalar fields a per-policy scorecard row needs.  Inputs are the
    decision spines plus prebuilt ``power/span`` indexes, so a worker
    holding one baseline record can diff many candidates against it
    without re-deriving either side.  Pure function of sim timestamps —
    rows are byte-deterministic.
    """
    diff = diff_spines(spine_a, spine_b, gap=gap)
    attribute_energy_spans(diff, spans_a, spans_b)
    first = diff.first_divergence
    return {
        "decisions": len(spine_b),
        "divergent_decisions": diff.divergent_decisions,
        "windows": len(diff.windows),
        "first_divergence_did": first.start_did if first else None,
        "energy_total_j": diff.total_energy_b,
        "baseline_energy_j": diff.total_energy_a,
        "energy_delta_j": diff.total_energy_delta,
        "energy_delta_share": (
            diff.total_energy_delta / diff.total_energy_a
            if diff.total_energy_a > 0 else 0.0
        ),
        "window_energy_delta_j": sum(
            w.energy_delta for w in diff.windows
            if w.energy_delta is not None
        ),
        "divergent_energy_share": diff.energy_share,
        "identical": diff.identical,
    }


def diff_traces(events_a, events_b, label_a="A", label_b="B", gap=0,
                attribute=True):
    """Diff two recorded event streams end to end.

    Extracts both decision spines, aligns them on decision id, groups
    divergence windows, and (unless ``attribute`` is False) charges
    each window with both sides' journal energy over its interval.
    """
    diff = diff_spines(
        decision_spine(events_a), decision_spine(events_b),
        gap=gap, label_a=label_a, label_b=label_b,
    )
    if attribute:
        attribute_energy(diff, events_a, events_b)
    return diff


# ----------------------------------------------------------------------
# spine persistence (the golden-trace format)
# ----------------------------------------------------------------------
def write_spine_jsonl(spine, path):
    """Write one JSON object per decision; the golden-trace format."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for entry in spine:
            handle.write(json.dumps(entry.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_spine_jsonl(path):
    """Load a spine written by :func:`write_spine_jsonl`."""
    spine = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spine.append(SpineEntry.from_dict(json.loads(line)))
    return spine
