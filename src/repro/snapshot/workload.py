"""Snapshot-capable Section 5 workloads: the item rig.

The paper's Section 5 objects (video clips, utterances, maps, web
images) run in :mod:`repro.apps` as generator coroutines, which no
snapshot can cross.  Here :class:`ItemWorkloadApp` walks a workload's
item cycle as a :class:`~repro.snapshot.scenario.TimedApp` — work one
item (the machine context attributing the joules to the item), think,
repeat — on the stack the pulse rig's builder assembles.  Its position
is an explicit :class:`~repro.workloads.cursor.WorkloadCursor` and its
think-time model carries the ``__cursor__``/``__seek__`` protocol.
Both cursors ride inside ``__snapshot__`` state, so a mid-phase
capture forks to a byte-identical continuation, and the emitted
``phase.begin`` instants segment energy signatures per item.

Item durations and wattages are derived from the real workload
descriptors (clip lengths, recognition real-time factors, per-fidelity
transfer sizes), scaled so a single-app run brackets the default goal
the same way the pulse rig does.
"""

from __future__ import annotations

from repro.hardware.component import PowerComponent
from repro.snapshot.scenario import TimedApp, _assemble, _finish
from repro.workloads.cursor import WorkloadCursor
from repro.workloads.images import IMAGES, JPEG_QUALITIES, QUALITY_FACTOR
from repro.workloads.maps import MAPS
from repro.workloads.thinktime import FixedThinkTime, RandomThinkTime
from repro.workloads.utterances import UTTERANCES
from repro.workloads.videos import VIDEO_CLIPS

__all__ = [
    "ItemWorkloadApp",
    "WORKLOAD_BUILDER_PATH",
    "WORKLOAD_SCENARIOS",
    "build_workload_scenario",
    "workload_spec",
]

WORKLOAD_BUILDER_PATH = "repro.snapshot.workload.build_workload_scenario"

DEFAULT_GOAL_SECONDS = 240.0
DEFAULT_INITIAL_ENERGY_J = 2_000.0

#: The four Section 5 workloads this rig can drive.
WORKLOAD_SCENARIOS = ("videos", "utterances", "maps", "images")


def workload_spec(workload):
    """Component, fidelity ladder, and item cycle for one workload.

    Returns ``{"component", "idle_w", "levels": [(name, watts)...]
    highest fidelity first, "items": [(name, active_seconds)...]}``.
    Durations compress real clip/utterance/transfer scales into a few
    seconds to tens of seconds per item; wattages follow each
    workload's per-fidelity byte (or search-space) ratios.
    """
    if workload == "videos":
        return {
            "component": "decoder",
            "idle_w": 0.40,
            "levels": [("baseline", 4.6), ("premiere-b", 3.6),
                       ("premiere-c", 2.8), ("combined", 1.9)],
            "items": [(clip.name, clip.duration_s / 10.0)
                      for clip in VIDEO_CLIPS],
        }
    if workload == "utterances":
        return {
            "component": "recognizer",
            "idle_w": 0.30,
            "levels": [("full", 3.2), ("reduced", 1.9)],
            "items": [(u.name, u.recognition_seconds("full"))
                      for u in UTTERANCES],
        }
    if workload == "maps":
        reference = MAPS[2]  # boston: mid-spread filter factors
        fidelities = ("full", "minor-filter", "secondary-filter",
                      "crop-secondary")
        return {
            "component": "mapper",
            "idle_w": 0.25,
            "levels": [
                (f, 0.8 + 2.9 * reference.bytes_at(f) / reference.full_bytes)
                for f in fidelities
            ],
            "items": [(m.name, m.full_bytes / 400_000.0) for m in MAPS],
        }
    if workload == "images":
        return {
            "component": "distiller",
            "idle_w": 0.20,
            "levels": [(q, 0.7 + 2.7 * QUALITY_FACTOR[q])
                       for q in reversed(JPEG_QUALITIES)],
            "items": [(i.name, max(1.0, i.full_bytes / 40_000.0))
                      for i in IMAGES],
        }
    raise KeyError(f"unknown workload scenario {workload!r} "
                   f"(expected one of {WORKLOAD_SCENARIOS})")


class ItemWorkloadApp(TimedApp):
    """One Section 5 workload as a snapshot-capable :class:`TimedApp`.

    Each item runs under its own machine context for the item's
    duration; the think model (itself cursor-resumable) spaces the next
    item.  Through its :class:`WorkloadCursor` it also implements the
    resumable-cursor protocol: both cursors ride in the snapshot state
    after the five :class:`TimedApp` keys.
    """

    def __init__(self, sim, machine, name, component, levels, priority,
                 items, think, offset=0.0):
        super().__init__(sim, machine, name, component, levels, priority,
                         offset)
        self.item_names = [item for item, _duration in items]
        self.durations = [duration for _item, duration in items]
        self.think = think
        self.cursor = WorkloadCursor(name, sim=sim, items=self.item_names)

    def _next_item(self):
        # The duration is read before ``begin()`` advances the cursor.
        duration = self.durations[self.cursor.position % len(self.durations)]
        return duration, self.cursor.begin()

    def _rest(self):
        self.cursor.end()
        return self.think.next()

    def __snapshot__(self, ctx):
        state = super().__snapshot__(ctx)
        state["cursor"] = self.cursor.__cursor__()
        state["think"] = self.think.__cursor__()
        return state

    def __restore__(self, state, ctx):
        super().__restore__(state, ctx)
        self.cursor.__seek__(state["cursor"])
        self.think.__seek__(state["think"])


def build_workload_scenario(workload="videos",
                            goal_seconds=DEFAULT_GOAL_SECONDS,
                            initial_energy=DEFAULT_INITIAL_ENERGY_J,
                            decision_period=0.5, halflife_fraction=0.10,
                            upgrade_min_interval=15.0, sample_period=0.1,
                            think_seconds=5.0, think_jitter=0.0,
                            think_seed=0,
                            tracer=None, metrics=None):
    """Build one Section 5 workload on the goal stack, never started.

    Assembled and registered by the same helpers as
    :func:`repro.snapshot.scenario.build_pulse_scenario`, which also
    build the monitor and the plain goal controller from the six knobs
    the rigs share: every stateful object registers under a stable key,
    the simulator carries the builder reference, and ``tracer``/
    ``metrics`` stay out of the recorded params (runtime environment,
    not identity).
    ``think_jitter`` > 0 selects the seeded random think-time model —
    the RNG position rides in the snapshot as a cursor.
    """
    params = {
        "workload": workload,
        "goal_seconds": goal_seconds,
        "initial_energy": initial_energy,
        "decision_period": decision_period,
        "halflife_fraction": halflife_fraction,
        "upgrade_min_interval": upgrade_min_interval,
        "sample_period": sample_period,
        "think_seconds": think_seconds,
        "think_jitter": think_jitter,
        "think_seed": think_seed,
    }
    spec = workload_spec(workload)
    sim, battery, machine = _assemble(initial_energy, tracer, metrics)
    component = machine.attach(PowerComponent(
        spec["component"],
        dict({"idle": spec["idle_w"]}, **dict(spec["levels"])),
        "idle",
    ))
    if think_jitter > 0.0:
        think = RandomThinkTime(mean=think_seconds, spread=think_jitter,
                                seed=think_seed)
    else:
        think = FixedThinkTime(think_seconds)
    app = ItemWorkloadApp(
        sim, machine, workload, component, spec["levels"], priority=2,
        items=spec["items"], think=think,
    )
    return _finish(sim, WORKLOAD_BUILDER_PATH, params, machine, battery,
                   [app])
