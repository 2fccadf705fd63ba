"""repro.snapshot: deterministic checkpoint/fork of the simulated stack.

The subsystem has four layers:

* :mod:`repro.snapshot.protocol` — the ``__snapshot__``/``__restore__``
  duck protocol plus the capture/restore contexts that carry pending
  heap events across the boundary with their original ``(when, seq)``
  stamps.
* :mod:`repro.snapshot.state` — :class:`Snapshot`: capture a registered
  stack into a JSON-shaped payload, ``fork()`` independent branches,
  restore byte-identical continuations.
* :mod:`repro.snapshot.disk` — :class:`SnapshotStore`: the versioned,
  sha256-addressed on-disk format fleet campaigns warm-start from.
* :mod:`repro.snapshot.lookahead` — :class:`WhatIfEvaluator` and
  :class:`LookaheadGoalController`: measure a branch per candidate
  fidelity action at each adaptation decision over a horizon, as
  side-by-side lanes over the trunk's schedule, and score predicted
  energy against the goal.

:mod:`repro.snapshot.scenario` provides the one snapshot-capable goal
rig, the pulse rig (timer-driven apps, no generator processes), and
:mod:`repro.snapshot.warm` the warm-started fleet sweep built on it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Snapshot",
    "SnapshotError",
    "SnapshotStore",
    "snapshot_key",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "disk": ("SnapshotStore", "snapshot_key"),
    "protocol": ("SnapshotError",),
    "state": ("Snapshot",),
})
