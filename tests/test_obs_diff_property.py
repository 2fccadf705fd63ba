"""Property-based tests for trace-diff alignment.

Seeded random decision spines (plain ``random.Random`` — deterministic,
no external dependency) exercise the alignment invariants the golden
suite relies on:

* a spine diffed against itself is empty;
* window boundaries are symmetric in the argument order (and energy
  deltas negate);
* a single perturbed decision yields exactly one single-decision
  window at exactly that id.

Hypothesis properties then pin the indexed joins (window slices in
:func:`diff_spines`, bisected spans in :func:`window_energy`, bisected
phases in :func:`fold_phase_energy`) to the plain scans they replace:
the results must be equal with ``==``, floats included, because the
energy signature and the matrix documents are compared byte for byte.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.diff import (
    DivergenceWindow,
    SpineEntry,
    TraceDiff,
    _span_index,
    diff_spines,
    window_energy,
)
from repro.powerscope.phases import fold_phase_energy, spans_to_segments

ACTIONS = ("hold", "degrade", "upgrade")
APPS = ("speech", "video", "map", "web")
LEVELS = ("a", "b", "c")


def random_spine(rng, length=None):
    length = rng.randint(5, 60) if length is None else length
    spine = []
    for index in range(length):
        did = index + 1
        action = rng.choice(ACTIONS)
        upcalls = []
        if action != "hold" and rng.random() < 0.5:
            upcalls.append(
                (action, rng.choice(APPS), rng.choice(LEVELS))
            )
        spine.append(
            SpineEntry(did, 0.5 * did, action, upcalls,
                       infeasible=(rng.random() < 0.02))
        )
    return spine


def copy_spine(spine):
    return [SpineEntry(e.did, e.ts, e.action, e.upcalls, e.infeasible)
            for e in spine]


@pytest.mark.parametrize("seed", range(25))
def test_self_diff_is_empty(seed):
    spine = random_spine(random.Random(seed))
    diff = diff_spines(spine, copy_spine(spine))
    assert diff.identical
    assert diff.windows == []
    assert diff.divergent_decisions == 0


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("gap", [0, 2])
def test_window_boundaries_are_symmetric(seed, gap):
    rng = random.Random(seed)
    a = random_spine(rng)
    b = random_spine(rng)
    forward = diff_spines(a, b, gap=gap)
    backward = diff_spines(b, a, gap=gap)
    bounds = lambda d: [(w.start_did, w.end_did, w.t0, w.t1)
                        for w in d.windows]
    assert bounds(forward) == bounds(backward)
    assert forward.divergent_decisions == backward.divergent_decisions


@pytest.mark.parametrize("seed", range(25))
def test_single_perturbation_yields_exactly_one_window(seed):
    rng = random.Random(seed)
    spine = random_spine(rng)
    perturbed = copy_spine(spine)
    victim = rng.randrange(len(perturbed))
    entry = perturbed[victim]
    # Replace the action with a different one; clearing upcalls keeps
    # the entry self-consistent when flipping to "hold".
    new_action = rng.choice([a for a in ACTIONS if a != entry.action])
    perturbed[victim] = SpineEntry(
        entry.did, entry.ts, new_action, (), entry.infeasible
    )
    diff = diff_spines(spine, perturbed)
    assert len(diff.windows) == 1
    window = diff.windows[0]
    assert window.start_did == window.end_did == entry.did
    assert diff.divergent_decisions == 1
    assert window.t0 == entry.ts


@pytest.mark.parametrize("seed", range(10))
def test_truncation_yields_one_trailing_window(seed):
    rng = random.Random(seed)
    spine = random_spine(rng, length=rng.randint(10, 40))
    cut = rng.randint(1, len(spine) - 1)
    diff = diff_spines(spine, copy_spine(spine)[:cut])
    assert len(diff.windows) == 1
    window = diff.windows[0]
    assert window.start_did == cut + 1
    assert window.end_did == len(spine)
    assert window.entries_b == []


# ----------------------------------------------------------------------
# indexed joins == brute-force scans, bit for bit
# ----------------------------------------------------------------------
def reference_window_energy(spans, t0, t1):
    """The scan of every span that :func:`window_energy` replaced."""
    total = 0.0
    for span in spans.values():
        s0 = span["t0"]
        s1 = s0 + (span["dur"] or 0.0)
        overlap = min(s1, t1) - max(s0, t0)
        if overlap > 0.0 and span["watts"] is not None:
            total += span["watts"] * overlap
    return total


def reference_fold_phase_energy(segments, boundaries):
    """The scan of every phase that :func:`fold_phase_energy` replaced."""
    phases = [
        {"t0": t0, "t1": t1, "joules": 0.0, "components": {}}
        for t0, t1 in zip(boundaries, boundaries[1:])
    ]
    for t0, t1, watts, components in segments:
        if t1 <= t0:
            continue
        for phase in phases:
            overlap = min(t1, phase["t1"]) - max(t0, phase["t0"])
            if overlap <= 0.0:
                continue
            phase["joules"] += watts * overlap
            if components:
                rows = phase["components"]
                for name, comp_watts in components.items():
                    rows[name] = rows.get(name, 0.0) + comp_watts * overlap
    return phases


def reference_diff_spines(spine_a, spine_b, gap=0):
    """The per-window scans of ``dids`` that :func:`diff_spines` replaced."""
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
        position = {did: k for k, did in enumerate(dids)}
        groups = [[divergent[0]]]
        for did in divergent[1:]:
            if position[did] - position[groups[-1][-1]] - 1 <= gap:
                groups[-1].append(did)
            else:
                groups.append([did])
        for group in groups:
            start, end = group[0], group[-1]
            members = [d for d in dids if start <= d <= end]
            entries_a = [index_a[d] for d in members if d in index_a]
            entries_b = [index_b[d] for d in members if d in index_b]
            t0 = min(e.ts for e in entries_a + entries_b)
            after = [d for d in dids if d > end]
            if after:
                nxt = after[0]
                t1 = min(e.ts for e in
                         [x for x in (index_a.get(nxt), index_b.get(nxt))
                          if x is not None])
            else:
                t1 = max(e.ts for e in entries_a + entries_b)
            windows.append(
                DivergenceWindow(start, end, t0, t1, entries_a, entries_b)
            )
    return TraceDiff("A", "B", list(spine_a), list(spine_b), windows)


_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_watts = st.one_of(st.none(),
                   st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
_span_shapes = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.7, 3.0]),  # gap before the span
    st.one_of(st.none(),
              st.floats(min_value=0.0, max_value=15.0, allow_nan=False)),
    _watts,
), max_size=20)


def journal_spans(origin, shapes):
    """A journal-shaped span dict: sids in emit order, each span
    starting where the last ended (or after a gap), some zero-length,
    some without watts."""
    t = origin
    spans = {}
    for sid, (gap, dur, watts) in enumerate(shapes):
        t += gap
        spans[sid] = {"t0": t, "dur": dur, "watts": watts,
                      "components": {"cpu": watts or 0.0, "disk": 0.5}}
        t += dur or 0.0
    return spans


def _edges(spans):
    starts = [span["t0"] for span in spans.values()]
    return starts, [s0 + (span["dur"] or 0.0)
                    for s0, span in zip(starts, spans.values())]


def _probe(data, spans, count):
    """Instants mixed from arbitrary times and span edges, so the
    bisects are probed exactly at ties."""
    starts, ends = _edges(spans)
    pool = (st.one_of(_times, st.sampled_from(starts + ends))
            if starts else _times)
    return data.draw(st.lists(pool, min_size=count, max_size=count))


def _reordered(data, spans):
    """The same spans shuffled, plus (sometimes) one span nested inside
    the run: the dict order no longer tiles sim time."""
    mixed = dict(data.draw(st.permutations(list(spans.items()))))
    if spans and data.draw(st.booleans()):
        first = min(span["t0"] for span in spans.values())
        mixed["nested"] = {"t0": first + 0.25, "dur": 0.5, "watts": 3.0}
    return mixed


def _ordered(spans):
    return all(a <= b for column in _edges(spans)
               for a, b in zip(column, column[1:]))


@settings(max_examples=120, deadline=None)
@given(origin=_times, shapes=_span_shapes, data=st.data())
def test_window_energy_matches_scan_exactly(origin, shapes, data):
    spans = journal_spans(origin, shapes)
    mixed = _reordered(data, spans)
    assert _span_index(spans)[3]
    # Shuffled or nested dicts take the scan (bisect only when ordered).
    assert _span_index(mixed)[3] == _ordered(mixed)
    probes = _probe(data, spans, 8)
    for t0, t1 in zip(probes[::2], probes[1::2]):
        for index in (spans, mixed):
            assert (window_energy(index, t0, t1)
                    == reference_window_energy(index, t0, t1))


def test_window_energy_nested_span_takes_the_scan():
    spans = {1: {"t0": 0.0, "dur": 10.0, "watts": 2.0},
             2: {"t0": 1.0, "dur": 1.0, "watts": 5.0},
             3: {"t0": 2.0, "dur": 1.0, "watts": 7.0}}
    assert not _span_index(spans)[3]
    # Bisecting the ends would have dropped span 1 from [2.5, 3.5).
    assert window_energy(spans, 2.5, 3.5) == 2.0 * 1.0 + 7.0 * 0.5


def test_nan_inputs_fold_as_the_scan():
    """A NaN edge defeats bisection; the joins fall back to the scan
    (NaN joules where the scan had them), not to silently dropped
    spans."""
    nan = float("nan")
    spans = {1: {"t0": 0.0, "dur": 2.0, "watts": 1.0},
             2: {"t0": 2.0, "dur": 2.0, "watts": 3.0}}
    for t0, t1 in ((nan, 3.0), (1.0, nan)):
        assert (window_energy(spans, t0, t1)
                == reference_window_energy(spans, t0, t1))
    cases = [
        ([(0.0, nan, 2.0, None), (1.0, 3.0, 1.0, {"cpu": 1.0})],
         [0.0, 1.5, 4.0]),
        ([(0.0, 2.0, 2.0, None), (2.0, 4.0, 1.0, {"cpu": 1.0})],
         [0.0, nan, 4.0]),
    ]
    for segments, boundaries in cases:
        assert (repr(fold_phase_energy(segments, boundaries))
                == repr(reference_fold_phase_energy(segments, boundaries)))


@settings(max_examples=120, deadline=None)
@given(origin=_times, shapes=_span_shapes, data=st.data())
def test_fold_phase_energy_matches_scan_exactly(origin, shapes, data):
    spans = journal_spans(origin, shapes)
    segments = spans_to_segments(spans)
    # Unsorted segments (one nested) fold the same as by a scan.
    unsorted = data.draw(st.permutations(
        spans_to_segments(_reordered(data, spans))))
    boundaries = sorted(_probe(data, spans, data.draw(st.integers(2, 12))))
    for journal in (segments, unsorted):
        assert (fold_phase_energy(journal, boundaries)
                == reference_fold_phase_energy(journal, boundaries))


#: One decision id of a spine pair: which sides reached it (mostly
#: both), each side's action, and a timestamp jitter.
_decisions = st.lists(
    st.tuples(st.integers(1, 60), st.sampled_from(("ab",) * 8 + ("a", "b")),
              st.sampled_from(ACTIONS), st.sampled_from(ACTIONS),
              st.sampled_from([0.0, 0.125])),
    min_size=1, max_size=40, unique_by=lambda decision: decision[0],
)


def sparse_spines(decisions):
    """Two spines over partly shared, gappy decision ids."""
    spine_a, spine_b = [], []
    for did, sides, action_a, action_b, jitter in sorted(decisions):
        ts = 0.5 * did + jitter
        if sides != "b":  # "a" or "ab": side A reached the decision
            spine_a.append(SpineEntry(did, ts, action_a))
        if sides != "a":
            spine_b.append(SpineEntry(did, ts, action_b))
    return spine_a, spine_b


@settings(max_examples=120, deadline=None)
@given(decisions=_decisions, gap=st.integers(0, 3))
def test_diff_spines_matches_scan_exactly(decisions, gap):
    spine_a, spine_b = sparse_spines(decisions)
    fast = diff_spines(spine_a, spine_b, gap=gap)
    slow = reference_diff_spines(spine_a, spine_b, gap=gap)
    assert ([w.to_dict() for w in fast.windows]
            == [w.to_dict() for w in slow.windows])
