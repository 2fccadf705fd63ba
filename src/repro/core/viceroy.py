"""The viceroy: Odyssey's resource monitor and manager (Section 2.2).

The viceroy is responsible for monitoring the availability of resources
and managing their use.  For energy it keeps the warden registry and
the set of registered adaptive applications with their priorities, and
delivers degrade/upgrade upcalls chosen by the priority ladder.
"""

from __future__ import annotations

from repro.core.priority import PriorityLadder
from repro.core.upcalls import DEGRADE, UPGRADE, Upcall
from repro.core.warden import WardenError
from repro.obs.metrics import current_metrics

__all__ = ["Viceroy"]


class _SharedUpcalls:
    """Immutable view of the upcall log for the snapshot shared channel.

    ``upcalls`` are the live frozen :class:`Upcall` objects; ``rows``
    are their flat JSON rows, cached so on-disk materialization never
    re-walks the log.
    """

    __slots__ = ("upcalls", "rows")

    def __init__(self, upcalls, rows):
        self.upcalls = upcalls
        self.rows = rows

    def materialize(self):
        # Fresh lists: payload consumers may mutate what they get back,
        # and the inner rows are shared with the viceroy's live cache.
        return [list(row) for row in self.rows]


class Viceroy:
    """Warden registry + application registry + upcall delivery.

    When ``machine`` is supplied, every upcall and fidelity trace event
    carries a ``power_span`` argument — the machine's journal span id
    covering the instant — so traces join back to watts and joules
    (see :mod:`repro.obs.export`).
    """

    def __init__(self, sim, machine=None, metrics=None):
        self.sim = sim
        self.machine = machine
        self.wardens = {}
        self.ladder = PriorityLadder()
        self.upcalls = []
        # Flat-row cache for snapshot capture, grown lazily alongside
        # the (append-only) upcall log.
        self._upcall_rows = []
        tracer = getattr(sim, "tracer", None)
        self._trace = tracer.gate("core") if tracer is not None else None
        self.metrics = metrics if metrics is not None else current_metrics()
        self._m_upcalls = self.metrics.counter("core.upcalls")
        self._m_degrades = self.metrics.counter("core.upcalls.degrade")
        self._m_upgrades = self.metrics.counter("core.upcalls.upgrade")

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_warden(self, warden):
        """Add a type-specific warden (one per data type)."""
        if warden.data_type in self.wardens:
            raise WardenError(f"warden for {warden.data_type!r} already registered")
        self.wardens[warden.data_type] = warden
        return warden

    def warden_for(self, data_type):
        """Look up the warden serving ``data_type``."""
        if data_type not in self.wardens:
            raise WardenError(f"no warden registered for {data_type!r}")
        return self.wardens[data_type]

    def register_application(self, application):
        """Register an adaptive application for energy adaptation."""
        self.ladder.add(application)
        self._record_fidelity(application)
        return application

    @property
    def applications(self):
        return list(self.ladder.applications)

    def set_priority(self, name, priority):
        """Change an application's priority at runtime.

        The paper's prototype used static priorities but was
        implementing "an interface to allow users to change priority
        dynamically" (Section 5.1.3); subsequent degrade/upgrade
        decisions use the new ordering immediately.
        """
        for app in self.ladder.applications:
            if app.name == name:
                app.priority = priority
                return app
        raise KeyError(f"no application named {name!r}")

    # ------------------------------------------------------------------
    # upcall delivery
    # ------------------------------------------------------------------
    def degrade_once(self, decision_id=None):
        """Degrade the lowest-priority degradable app; None if none can.

        ``decision_id`` is the goal controller's stable decision id;
        the upcall and fidelity trace events carry it as ``did`` so
        :mod:`repro.obs.diff` can align upcalls across policy runs.
        """
        app = self.ladder.pick_degrade()
        if app is None:
            return None
        new_level = app.degrade()
        return self._log_upcall(DEGRADE, app, new_level, decision_id)

    def upgrade_once(self, decision_id=None):
        """Upgrade the highest-priority upgradable app; None if none can."""
        app = self.ladder.pick_upgrade()
        if app is None:
            return None
        new_level = app.upgrade()
        return self._log_upcall(UPGRADE, app, new_level, decision_id)

    def _log_upcall(self, kind, app, new_level, decision_id=None):
        upcall = Upcall(self.sim.now, kind, app.name, new_level)
        self.upcalls.append(upcall)
        self._m_upcalls.inc()
        (self._m_degrades if kind == DEGRADE else self._m_upgrades).inc()
        if self._trace is not None:
            args = {
                "application": app.name,
                "level": new_level,
                "power_span": self._power_span(),
            }
            if decision_id is not None:
                args["did"] = decision_id
            self._trace.instant(
                self.sim.now, "core", f"upcall.{kind}", track=app.name,
                args=args,
            )
        self._record_fidelity(app, decision_id)
        return upcall

    def _power_span(self):
        """Journal span id for event↔energy joins; None without a machine."""
        machine = self.machine
        return machine.power_span_id() if machine is not None else None

    def _record_fidelity(self, app, decision_id=None):
        level = getattr(app, "fidelity_level", None)
        normalized = getattr(app, "fidelity_normalized", None)
        if self._trace is not None:
            args = {
                "application": app.name,
                "level": level,
                "normalized": normalized,
                "power_span": self._power_span(),
            }
            if decision_id is not None:
                args["did"] = decision_id
            self._trace.instant(
                self.sim.now, "core", "fidelity", track=app.name,
                args=args,
            )

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        """Upcall history only; application fidelity state is owned by
        the applications themselves (register each one separately).

        The upcall log is append-only and every :class:`Upcall` frozen,
        so capture shares the log by reference instead of re-serializing
        it; the flat-row cache grows in step with the log, making the
        per-capture cost O(upcalls since the last capture).
        """
        upcalls = self.upcalls
        rows = self._upcall_rows
        for u in upcalls[len(rows):]:
            rows.append([u.time, u.kind, u.application, u.new_level])
        shared = _SharedUpcalls(tuple(upcalls), tuple(rows))
        return {
            "upcalls": ctx.share("upcalls", shared),
            "priorities": {
                app.name: app.priority for app in self.ladder.applications
            },
        }

    def __restore__(self, state, ctx):
        upcall_state = state["upcalls"]
        if type(upcall_state) is dict:
            shared = ctx.shared("upcalls")
            if shared is None:
                raise WardenError(
                    "shared upcall-log marker without a live structure; "
                    "flat restores must carry materialized rows"
                )
            # Upcall objects are frozen; only the list itself is private.
            self.upcalls = list(shared.upcalls)
            self._upcall_rows = list(shared.rows)
        else:
            self.upcalls = [
                Upcall(time, kind, application, new_level)
                for time, kind, application, new_level in upcall_state
            ]
            self._upcall_rows = [list(row) for row in upcall_state]
        for name, priority in state["priorities"].items():
            self.set_priority(name, priority)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def adaptation_counts(self):
        """Number of upcalls delivered per application name."""
        counts = {app.name: 0 for app in self.ladder.applications}
        for upcall in self.upcalls:
            counts[upcall.application] = counts.get(upcall.application, 0) + 1
        return counts
