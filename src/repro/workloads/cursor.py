"""Workload phase markers for energy signatures.

Workload-driving applications advance through *phases* — one video
clip, one composite iteration, one active minute.  A
:class:`WorkloadCursor` counts them and emits ``phase.begin``/
``phase.end`` instants on the ``workload`` trace category as it
advances, giving :func:`repro.obs.signature.compute_signature` the
workload-phase boundaries it segments the power journal along.

The cursor is a pure observer: with no tracer installed (or the
``workload`` category filtered) a cursored driver behaves
byte-identically to one without it — the cursor never touches the
simulator.
"""

from __future__ import annotations

__all__ = ["WORKLOAD_CATEGORY", "CursorError", "WorkloadCursor"]

#: Trace category for workload phase boundaries.
WORKLOAD_CATEGORY = "workload"


class CursorError(Exception):
    """Invalid cursor operation (nested begin, end outside a phase)."""


class WorkloadCursor:
    """Explicit phase position for one workload.

    Parameters
    ----------
    workload:
        Workload name; the trace track and the first half of the
        ``"workload:item"`` phase ids signatures derive.
    sim:
        Optional simulator; binding resolves the ``workload`` trace
        gate (and the clock phase events are stamped with).  An unbound
        cursor still counts phases — it just emits nothing.
    """

    __slots__ = ("workload", "position", "in_phase", "current_item",
                 "_sim", "_trace")

    def __init__(self, workload, sim=None):
        self.workload = workload
        self.position = 0
        self.in_phase = False
        self.current_item = None
        self._sim = None
        self._trace = None
        if sim is not None:
            self.bind(sim)

    def bind(self, sim):
        """Attach to ``sim``'s tracer; returns ``self``."""
        self._sim = sim
        self._trace = sim.tracer.gate(WORKLOAD_CATEGORY)
        return self

    # ------------------------------------------------------------------
    # phase boundaries
    # ------------------------------------------------------------------
    def begin(self, item):
        """Enter the next phase on ``item``; emits ``phase.begin``;
        returns the item."""
        if self.in_phase:
            raise CursorError(
                f"{self.workload}: begin() inside phase "
                f"{self.current_item!r} (position {self.position})"
            )
        self.in_phase = True
        self.current_item = item
        if self._trace is not None:
            self._trace.instant(
                self._sim.now, WORKLOAD_CATEGORY, "phase.begin",
                track=self.workload,
                args={"workload": self.workload, "item": item,
                      "index": self.position},
            )
        return item

    def end(self):
        """Leave the current phase; emits ``phase.end``; advances."""
        if not self.in_phase:
            raise CursorError(
                f"{self.workload}: end() outside a phase "
                f"(position {self.position})"
            )
        if self._trace is not None:
            self._trace.instant(
                self._sim.now, WORKLOAD_CATEGORY, "phase.end",
                track=self.workload,
                args={"workload": self.workload, "item": self.current_item,
                      "index": self.position},
            )
        self.in_phase = False
        self.current_item = None
        self.position += 1
        return self.position

    def __repr__(self):
        where = f"in {self.current_item!r}" if self.in_phase else "between"
        return (f"<WorkloadCursor {self.workload} position={self.position} "
                f"{where}>")
