"""Section 5 workloads stopped mid-phase resume byte-identically.

The paper's Section 5 objects (video clips, utterances, maps, web
images) run in :mod:`repro.apps` as generator coroutines, which no
snapshot can cross: the one snapshot rig is the pulse rig, whose forks
``tests/test_snapshot_determinism.py`` checks.  A Section 5 run can
still be stopped (``Simulator.run(until=...)`` plus the power-journal
fold a capture or a report performs) and run on.  Here each workload's
app works its objects in a cycle on the goal rig, every item marked by
a :class:`~repro.workloads.cursor.WorkloadCursor`, toward a duration
goal that forces adaptation; a run stopped and resumed must be the
uninterrupted run:

* **Final state** when stopped at an item-begin instant (mid-phase: the
  cursor is inside the item) — energy accounts, Figure 19 rows,
  adaptation counts and cursor position, byte for byte.
* **Trace** when stopped at an instant chosen with no regard for phase
  alignment — every traced event, in stream order, byte for byte.
"""

import json

import pytest

from repro.experiments.goal_study import build_goal_rig
from repro.fleet.spec import canonical_json
from repro.obs import NULL_TRACER, Tracer
from repro.obs.tracer import installed
from repro.snapshot import Snapshot, SnapshotError
from repro.workloads import WorkloadCursor
from repro.workloads.images import IMAGES
from repro.workloads.maps import MAPS
from repro.workloads.utterances import UTTERANCES
from repro.workloads.videos import VIDEO_CLIPS

GOAL_SECONDS = 240.0
STOP_AT = 120.0
THINK_S = 2.0
CLIP_SECONDS = 20.0

#: Initial energy per workload: a little under what the full-fidelity
#: cycle draws over the goal, so the controller degrades and the goal
#: is met.
INITIAL_ENERGY_J = {"videos": 3400.0, "utterances": 3550.0,
                    "maps": 2200.0, "images": 2040.0}

WORKLOADS = tuple(INITIAL_ENERGY_J)

#: The goal rig's app that works each workload's objects.
APP = {"videos": "video", "utterances": "speech", "maps": "map",
       "images": "web"}


def _items(apps, workload):
    """``(item, generator factory)`` pairs: one cycle of ``workload``."""
    if workload == "videos":
        return [(c.name, lambda c=c: apps["video"].play(
            c, max_seconds=CLIP_SECONDS)) for c in VIDEO_CLIPS]
    if workload == "utterances":
        return [(u.name, lambda u=u: apps["speech"].recognize(u))
                for u in UTTERANCES]
    if workload == "maps":
        return [(m.name, lambda m=m: apps["map"].view(m)) for m in MAPS]
    return [(i.name, lambda i=i: apps["web"].browse(i)) for i in IMAGES]


class _Run:
    """One goal-directed run of a single Section 5 workload."""

    def __init__(self, workload, tracer=None):
        energy = INITIAL_ENERGY_J[workload]
        with installed(tracer or NULL_TRACER):
            self.rig, self.odyssey, self.battery = build_goal_rig(energy)
        self.odyssey.set_goal(energy, GOAL_SECONDS)
        sim = self.rig.sim
        cursor = self.cursor = WorkloadCursor(workload, sim=sim)
        items = _items(self.rig.apps, workload)

        def main():
            while True:
                for item, work in items:
                    cursor.begin(item)
                    yield from work()
                    cursor.end()
                    yield sim.timeout(THINK_S)

        sim.spawn(main(), name=workload)
        self.odyssey.start()

    def stop(self, at):
        self.rig.sim.run(until=at)
        self.rig.machine.advance()
        return self

    def finish(self):
        """Step to the goal (or exhaustion), as the goal study does."""
        sim = self.rig.sim
        while (sim.now < GOAL_SECONDS and not self.battery.exhausted
               and sim.step()):
            pass
        self.rig.machine.advance()
        return self

    def final_state(self):
        machine = self.rig.machine
        return canonical_json({
            "now": self.rig.sim.now,
            "residual_j": self.battery.residual,
            "by_component": machine.energy_by_component,
            "by_procedure": sorted(
                [list(key), joules]
                for key, joules in machine.energy_by_procedure.items()),
            "adaptations": self.odyssey.viceroy.adaptation_counts(),
            "rows": [list(row) for row in self.rig.sim.tracer.rows],
            "position": self.cursor.position,
        })


def _item_begin_after(workload, at):
    """The first instant at or after ``at`` where an item begins."""
    run = _Run(workload)
    sim = run.rig.sim
    while True:
        was_in_phase = run.cursor.in_phase
        sim.step()
        if sim.now >= at and run.cursor.in_phase and not was_in_phase:
            return sim.now


def _traced(workload, stop_at=None):
    tracer = Tracer(clock=lambda: 0.0)
    run = _Run(workload, tracer)
    if stop_at is not None:
        run.stop(stop_at)
    run.finish()
    tracer.flush()
    return json.dumps([event.to_dict() for event in tracer.events])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mid_phase_payload_byte_identical(workload):
    """Stopped at an item-begin instant (mid-phase: the cursor is inside
    the item), the resumed run's final state is byte-identical to the
    uninterrupted run's, and the goal is met by adapting."""
    reference = _Run(workload).finish()
    assert not reference.battery.exhausted
    assert reference.odyssey.viceroy.adaptation_counts()[APP[workload]] > 0
    stopped = _Run(workload).stop(_item_begin_after(workload, STOP_AT))
    assert stopped.cursor.in_phase, "the stop must land inside an item"
    assert stopped.finish().final_state() == reference.final_state()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stitched_trace_byte_identical(workload):
    """The trace of a run stopped at an instant chosen with no regard
    for phase alignment, then resumed, is the uninterrupted trace byte
    for byte."""
    assert _traced(workload, stop_at=STOP_AT) == _traced(workload)


def test_capture_does_not_perturb_parent():
    """A Section 5 run is refused a snapshot (its apps are generator
    coroutines), and neither the refused capture nor a mid-run energy
    report moves the parent's final state."""
    reference = _Run("utterances").finish()
    parent = _Run("utterances").stop(STOP_AT)
    with pytest.raises(SnapshotError, match="snapshot_builder"):
        Snapshot.capture(parent.rig.sim)
    parent.rig.machine.energy_report()
    assert parent.finish().final_state() == reference.final_state()
