"""Snapshot isolation properties.

A capture is a flat payload and every fork is built from it, so one
snapshot can seed many branches while the parent keeps running.  These
tests pin the contract that makes that safe: mutating a fork never
bleeds into the parent, mutating the parent never bleeds into an
already-taken snapshot or a restored branch, and a branch's own
captures leave its ancestors alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
    """Reading the payload *after* the parent ran to completion must
    still yield the rows from capture time: capture copies, it does not
    alias the journal the live parent keeps appending to."""
    parent = build_pulse_scenario().start()
    parent.run(until=60.0)
    snapshot = Snapshot.capture(parent.sim)
    parent.run()  # grows and compacts the parent's journal

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

    parent.run()  # the parent's journal grows past the branch's

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


def test_branch_seal_does_not_corrupt_parent():
    """A branch that runs on and captures itself leaves the parent's
    future untouched: the parent still finishes as a twin that never
    forked."""
    parent = build_pulse_scenario().start()
    parent.run(until=60.0)
    snapshot = Snapshot.capture(parent.sim)

    branch = snapshot.fork()
    branch.run(until=120.0)
    Snapshot.capture(branch.sim)

    control = build_pulse_scenario().start().run()
    parent.run()
    assert canonical_json(parent.summary()) == canonical_json(control.summary())
