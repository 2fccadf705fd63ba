"""Fork determinism: a restored branch reproduces the parent's future.

The snapshot contract (``repro.snapshot.state``) is byte-level: a stack
captured at time T and advanced to T' must produce *exactly* the run an
uninterrupted stack produces — same decision spine, same power journal,
same accumulated energy, down to float representation.  These tests
enforce the contract end-to-end on the pulse scenario; the snapshot
CLI's ``roundtrip`` mode runs the same check in CI.

Beyond final state, the traced run is checked at stop and capture
instants chosen with no regard for pulse or decision alignment: a run
stopped there and resumed, and the parent's trace up to a capture there
plus the fork's trace after it, must each be the uninterrupted run's
trace.
"""

import functools
import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.fleet.spec import canonical_json
from repro.obs import Tracer
from repro.obs.diff import decision_spine, diff_spines, diff_traces
from repro.snapshot import Snapshot
from repro.snapshot.scenario import DEFAULT_GOAL_SECONDS, build_pulse_scenario

CAPTURE_AT = 120.0

#: The pulse builds a stop or a fork must leave unchanged.
BUILDS = {
    "plain": {},
    "lookahead": {"lookahead": True},
    "beam3": {"lookahead": True, "beam_width": 3},
    "beam4x2": {"lookahead": True, "beam_width": 4, "beam_depth": 2},
}
BEAMS = {name: BUILDS[name] for name in ("beam3", "beam4x2")}


def _final_payload(scenario):
    return canonical_json(Snapshot.capture(scenario.sim).payload)


@pytest.fixture(scope="module")
def runs():
    """One uninterrupted run and one interrupted-at-T run with a fork."""
    reference = build_pulse_scenario().start().run()
    parent = build_pulse_scenario().start().run(until=CAPTURE_AT)
    snapshot = Snapshot.capture(parent.sim)
    fork = snapshot.fork().run()
    parent.run()
    return reference, parent, fork, snapshot


def test_fork_summary_matches_uninterrupted(runs):
    reference, _parent, fork, _snap = runs
    assert canonical_json(fork.summary()) == canonical_json(
        reference.summary())


def test_fork_full_state_byte_identical(runs):
    """The *entire* final state — journal, accumulators, counters,
    pending events — round-trips identically through the fork."""
    reference, _parent, fork, _snap = runs
    assert _final_payload(fork) == _final_payload(reference)


def test_capture_does_not_perturb_parent(runs):
    """Capturing is side-effect free: the parent, resumed after the
    capture, finishes exactly like the run that was never captured."""
    reference, parent, _fork, _snap = runs
    assert canonical_json(parent.summary()) == canonical_json(
        reference.summary())
    assert _final_payload(parent) == _final_payload(reference)


def test_power_journal_identical(runs):
    reference, _parent, fork, _snap = runs
    ref_machine = Snapshot.capture(reference.sim).payload["states"]["machine"]
    fork_machine = Snapshot.capture(fork.sim).payload["states"]["machine"]
    assert fork_machine["journal"] == ref_machine["journal"]
    assert fork_machine["energy_total"] == ref_machine["energy_total"]
    assert fork_machine["energy_by_process"] == (
        ref_machine["energy_by_process"])


def test_repeated_forks_are_identical(runs):
    """A snapshot is a value: every fork of it lands in the same place."""
    _reference, _parent, _fork, snapshot = runs
    first = snapshot.fork().run()
    second = snapshot.fork().run()
    assert _final_payload(first) == _final_payload(second)


def test_decision_spine_and_trace_diff_clean():
    """`repro diff` of an uninterrupted run vs a fork-stitched run
    reports zero divergence — the satellite's acceptance check."""
    tracer_ref = Tracer(categories={"core"})
    build_pulse_scenario(tracer=tracer_ref).start().run()
    tracer_ref.flush()

    tracer_prefix = Tracer(categories={"core"})
    parent = build_pulse_scenario(tracer=tracer_prefix).start()
    parent.run(until=CAPTURE_AT)
    snapshot = Snapshot.capture(parent.sim)
    tracer_suffix = Tracer(categories={"core"})
    snapshot.fork(tracer=tracer_suffix).run()
    tracer_prefix.flush()
    tracer_suffix.flush()

    stitched = list(tracer_prefix.events) + list(tracer_suffix.events)
    spine_diff = diff_spines(decision_spine(tracer_ref.events),
                             decision_spine(stitched))
    assert spine_diff.identical, "\n" + spine_diff.render()
    trace_diff = diff_traces(list(tracer_ref.events), stitched)
    assert trace_diff.identical, "\n" + trace_diff.render()


def test_snapshot_payload_is_json_pure():
    """The payload must survive a JSON round-trip unchanged — the
    on-disk store and the in-memory fork share one representation."""
    import json

    parent = build_pulse_scenario().start().run(until=CAPTURE_AT)
    snapshot = Snapshot.capture(parent.sim)
    rehydrated = json.loads(json.dumps(snapshot.payload))
    assert canonical_json(rehydrated) == canonical_json(snapshot.payload)
    fork = Snapshot(rehydrated).fork().run()
    reference = build_pulse_scenario().start().run()
    assert _final_payload(fork) == _final_payload(reference)


#: Mid-burst for both apps and off the decision and sample grids.
UNALIGNED_AT = 121.3


def _dump(events):
    return json.dumps([event.to_dict() for event in events])


def _traced_run(stop_at=None, **knobs):
    tracer = Tracer(clock=lambda: 0.0)
    scenario = build_pulse_scenario(tracer=tracer, **knobs).start()
    if stop_at is not None:
        scenario.run(until=stop_at)
    scenario.run()
    tracer.flush()
    return list(tracer.events)


@functools.lru_cache(maxsize=None)
def _uninterrupted_dump(build):
    return _dump(_traced_run(**BUILDS[build]))


def _stitched_run(at, **knobs):
    """The parent's trace up to ``at`` plus its fork's trace after."""
    tracer_prefix = Tracer(clock=lambda: 0.0)
    parent = build_pulse_scenario(tracer=tracer_prefix, **knobs).start()
    parent.run(until=at)
    snapshot = Snapshot.capture(parent.sim)
    prefix = list(tracer_prefix.events)

    tracer_suffix = Tracer(clock=lambda: 0.0)
    fork = snapshot.fork(tracer=tracer_suffix)
    # The fork's builder re-emits registration-time instants (fidelity
    # announcements at ts 0.0); the real suffix starts after them.
    skip = len(tracer_suffix.events)
    fork.run()
    tracer_suffix.flush()
    return prefix + list(tracer_suffix.events)[skip:]


@pytest.mark.parametrize("build", list(BUILDS))
def test_stitched_trace_byte_identical(build):
    """Prefix (parent) + suffix (fork) equals the uninterrupted trace
    byte for byte, in stream order, at an unaligned instant."""
    stitched = _stitched_run(UNALIGNED_AT, **BUILDS[build])
    assert _dump(stitched) == _uninterrupted_dump(build)


#: Stop instants: quarter-second multiples include pulse edges and
#: decision and sample instants; arbitrary floats fall between.
stop_instants = st.one_of(
    st.integers(1, int(DEFAULT_GOAL_SECONDS * 4) - 1).map(lambda k: k / 4),
    st.floats(0.05, DEFAULT_GOAL_SECONDS - 0.05, allow_nan=False),
)


# Each example is two whole runs, so a failure is reported as found,
# unshrunk: any failing stop instant is as telling as a smaller one.
@settings(max_examples=24, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(build=st.sampled_from(list(BUILDS)), at=stop_instants)
def test_stop_never_moves_the_trace(build, at):
    """Property: stopped at any instant and resumed, a run traces
    exactly what the uninterrupted run traces, byte for byte and in
    stream order; so does the parent's prefix plus its fork's suffix
    at that instant."""
    reference = _uninterrupted_dump(build)
    assert _dump(_traced_run(stop_at=at, **BUILDS[build])) == reference
    assert _dump(_stitched_run(at, **BUILDS[build])) == reference


@functools.lru_cache(maxsize=None)
def _uninterrupted_payload(beam):
    return _final_payload(build_pulse_scenario(**BEAMS[beam]).start().run())


@pytest.mark.parametrize("at", [60.0, UNALIGNED_AT, 200.0])
@pytest.mark.parametrize("beam", sorted(BEAMS))
def test_beam_fork_full_state_byte_identical(beam, at):
    """The beam planner's state round-trips too: forked at ``at``, the
    fork and the resumed parent both end in the uninterrupted run's
    exact final state."""
    parent = build_pulse_scenario(**BEAMS[beam]).start().run(until=at)
    fork = Snapshot.capture(parent.sim).fork().run()
    parent.run()
    assert _final_payload(fork) == _uninterrupted_payload(beam)
    assert _final_payload(parent) == _uninterrupted_payload(beam)


@settings(max_examples=5, deadline=None)
@given(at=st.floats(min_value=5.0, max_value=80.0,
                    allow_nan=False, allow_infinity=False))
def test_stitched_trace_complete_at_any_instant(at):
    """Property: at *arbitrary* capture instants on a 90 s goal the
    stitched trace contains exactly the reference run's events — none
    lost, none duplicated, none altered.  Stream order is asserted by
    ``test_stop_never_moves_the_trace`` above."""
    def multiset(events):
        return sorted(json.dumps(e.to_dict(), sort_keys=True)
                      for e in events)

    stitched = _stitched_run(at, goal_seconds=90.0)
    assert multiset(stitched) == multiset(_traced_run(goal_seconds=90.0))
