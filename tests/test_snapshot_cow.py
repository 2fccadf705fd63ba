"""Copy-on-write snapshot isolation properties.

The machine journal and the viceroy upcall log travel on the snapshot
shared-structure channel: a capture holds the sealed prefix by
reference instead of copying it, and a restored branch adopts those
references.  These tests pin the contract that makes that safe —
mutating a fork never bleeds into the parent, mutating the parent
never bleeds into an already-taken snapshot, and the materialized
payload stays byte-identical to a non-sharing capture.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hardware.machine as machine_module
from repro.fleet.spec import canonical_json
from repro.hardware.machine import _segment_row
from repro.snapshot import Snapshot
from repro.snapshot.scenario import DEFAULT_GOAL_SECONDS, build_pulse_scenario


def _journal_rows(machine):
    """The full journal in wire format — equality means byte-equality."""
    return [_segment_row(s) for s in machine._journal]


def _upcall_rows(viceroy):
    return [[u.time, u.kind, u.application, u.new_level] for u in viceroy.upcalls]


# ----------------------------------------------------------------------
# fork mutation must never reach the parent
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    capture_t=st.floats(min_value=15.0, max_value=150.0),
    branch_run=st.floats(min_value=5.0, max_value=60.0),
)
def test_fork_mutation_never_touches_parent(capture_t, branch_run):
    parent = build_pulse_scenario().start()
    parent.run(until=capture_t)
    snapshot = Snapshot.capture(parent.sim)

    before_journal = _journal_rows(parent.machine)
    before_upcalls = _upcall_rows(parent.viceroy)
    before_energy = parent.machine.energy_total
    before_folds = (parent.machine._fold_index,
                    parent.machine._folded_journal_energy)

    branch = snapshot.fork()
    branch.run(until=capture_t + branch_run)
    # the branch really did diverge: it integrated energy of its own
    assert branch.machine.energy_total > before_energy

    assert _journal_rows(parent.machine) == before_journal
    assert _upcall_rows(parent.viceroy) == before_upcalls
    assert parent.machine.energy_total == before_energy
    assert (parent.machine._fold_index,
            parent.machine._folded_journal_energy) == before_folds


def test_fork_mutation_never_changes_parent_outcome():
    """Beyond raw state: the parent's completed run is bit-identical to
    a twin that never forked at all."""
    control = build_pulse_scenario().start().run()
    parent = build_pulse_scenario().start()
    parent.run(until=DEFAULT_GOAL_SECONDS / 3)
    snapshot = Snapshot.capture(parent.sim)
    snapshot.fork().run()
    parent.run()
    assert canonical_json(parent.summary()) == canonical_json(control.summary())


# ----------------------------------------------------------------------
# parent mutation must never reach a taken snapshot
# ----------------------------------------------------------------------
def test_parent_mutation_never_touches_snapshot_payload():
    """The payload materializes lazily from structures the live parent
    keeps appending to; materializing *after* the parent ran to
    completion must still yield the rows from capture time."""
    parent = build_pulse_scenario().start()
    parent.run(until=60.0)
    snapshot = Snapshot.capture(parent.sim)
    parent.run()  # seals more blocks, grows the shared flat list

    control = build_pulse_scenario().start()
    control.run(until=60.0)
    reference = Snapshot.capture(control.sim).payload

    assert canonical_json(snapshot.payload) == canonical_json(reference)


def test_parent_mutation_never_touches_restored_branch():
    parent = build_pulse_scenario().start()
    parent.run(until=60.0)
    snapshot = Snapshot.capture(parent.sim)
    branch = snapshot.fork()
    branch_rows = _journal_rows(branch.machine)
    branch_upcalls = _upcall_rows(branch.viceroy)

    parent.run()  # parent seals past the branch's adopted prefix

    assert _journal_rows(branch.machine) == branch_rows
    assert _upcall_rows(branch.viceroy) == branch_upcalls
    branch.run()
    assert branch.summary()["goal_met"] in (True, False)  # branch still runs


# ----------------------------------------------------------------------
# deep fork chains
# ----------------------------------------------------------------------
def test_three_deep_fork_chain_isolation():
    """Fork a fork of a fork; every ancestor's journal stays frozen
    while descendants run, and the deepest branch's outcome matches an
    uninterrupted straight-line run."""
    control = build_pulse_scenario().start().run()

    g0 = build_pulse_scenario().start()
    g0.run(until=40.0)
    s0 = Snapshot.capture(g0.sim)
    g0_rows = _journal_rows(g0.machine)

    g1 = s0.fork()
    g1.run(until=80.0)
    s1 = Snapshot.capture(g1.sim)
    g1_rows = _journal_rows(g1.machine)

    g2 = s1.fork()
    g2.run(until=120.0)
    s2 = Snapshot.capture(g2.sim)
    g2_rows = _journal_rows(g2.machine)

    g3 = s2.fork()
    g3.run()

    assert _journal_rows(g0.machine) == g0_rows
    assert _journal_rows(g1.machine) == g1_rows
    assert _journal_rows(g2.machine) == g2_rows
    assert canonical_json(g3.summary()) == canonical_json(control.summary())


def test_sealed_blocks_shared_by_reference_across_captures():
    """The COW point itself: a later capture reuses the earlier
    capture's sealed blocks by identity instead of re-serializing."""
    scenario = build_pulse_scenario().start()
    scenario.run(until=60.0)
    s1 = Snapshot.capture(scenario.sim)
    scenario.run(until=120.0)
    s2 = Snapshot.capture(scenario.sim)

    blocks1 = s1._shared["machine/journal"].blocks
    blocks2 = s2._shared["machine/journal"].blocks
    assert len(blocks2) > len(blocks1)
    for early, late in zip(blocks1, blocks2):
        assert early is late


def test_branch_seal_does_not_corrupt_parent():
    """A restored branch adopts the parent's flat sealed list without
    owning it; the branch's own first seal must copy, not append into
    the parent's list."""
    parent = build_pulse_scenario().start()
    parent.run(until=60.0)
    snapshot = Snapshot.capture(parent.sim)

    branch = snapshot.fork()
    branch.run(until=120.0)
    Snapshot.capture(branch.sim)  # forces the branch to seal

    control = build_pulse_scenario().start().run()
    parent.run()
    assert canonical_json(parent.summary()) == canonical_json(control.summary())


# ----------------------------------------------------------------------
# pooled restores
# ----------------------------------------------------------------------
def test_pooled_fork_matches_fresh_fork():
    """Restoring into a reused scenario object (the lookahead branch
    pool) is indistinguishable from building a fresh stack."""
    parent = build_pulse_scenario().start()
    parent.run(until=DEFAULT_GOAL_SECONDS / 2)
    snapshot = Snapshot.capture(parent.sim)

    fresh = snapshot.fork()
    fresh.run()
    pooled_target = snapshot.fork()
    reused = snapshot.fork(reuse=pooled_target)
    reused.run()
    assert canonical_json(reused.summary()) == canonical_json(fresh.summary())


# ----------------------------------------------------------------------
# capture cost is the open tail, not the journal
# ----------------------------------------------------------------------
def test_repeated_captures_serialize_only_the_open_tail(monkeypatch):
    """Once the first capture has sealed the journal, every later capture
    serializes the same rows — the open tail only — on a 30 s journal
    and on a 240 s one: a row count, where a timing would be noise."""
    rows = []

    def counting_row(segment):
        rows.append(segment.sid)
        return _segment_row(segment)

    monkeypatch.setattr(machine_module, "_segment_row", counting_row)
    captures = 10
    counts = {}
    for until in (30.0, 240.0):
        scenario = build_pulse_scenario(
            goal_seconds=300.0, initial_energy=20_000.0,
        ).start().run(until=until)
        journal = len(scenario.machine._journal)
        Snapshot.capture(scenario.sim)
        sealing = len(rows)
        rows.clear()
        for _ in range(captures):
            Snapshot.capture(scenario.sim)
        counts[until] = (journal, sealing, len(rows))
        rows.clear()
    (short, short_seal, short_rows), (long, long_seal, long_rows) = (
        counts[30.0], counts[240.0])
    assert long >= 4 * short
    # The first capture serializes the whole journal once...
    assert (short_seal, long_seal) == (short, long)
    # ...and every later one only the open segment.
    assert short_rows == long_rows == captures
