"""Goal-directed energy adaptation (paper Section 5.1).

Odyssey periodically performs three tasks: determine residual energy
(from 100 ms power samples), predict future demand (smoothed power x
time remaining), and decide whether applications should change
fidelity (hysteresis trigger + priority ladder).  Decisions run twice
a second; fidelity *improvements* are capped at one per 15 seconds to
guard against excessive adaptation from energy transients.

If demand exceeds supply and no application can degrade further, the
specified duration is infeasible and the user is alerted as early as
possible (the ``infeasible`` flag / callback).
"""

from __future__ import annotations

from repro.core.demand import DemandPredictor
from repro.core.hysteresis import DEGRADE, UPGRADE, AdaptationTrigger
from repro.core.supply import EnergySupply

__all__ = ["GoalDirectedController"]


class GoalDirectedController:
    """Drives application adaptation toward a battery-duration goal.

    Parameters
    ----------
    viceroy:
        :class:`~repro.core.viceroy.Viceroy` holding the applications.
    monitor:
        :class:`~repro.powerscope.OnlinePowerMonitor` power feed.
    initial_energy:
        Joules available at start (user-supplied, Section 5.2).
    goal_seconds:
        Desired battery duration, measured from :meth:`start`.
    halflife_fraction:
        Smoothing half-life as a fraction of remaining time (0.10).
    decision_period:
        Seconds between adaptation decisions (paper: 0.5).
    upgrade_min_interval:
        Minimum seconds between fidelity improvements (paper: 15).
    timeline:
        Optional :class:`~repro.sim.Timeline`; receives ``supply`` and
        ``demand`` series for Figure 19-style traces.
    """

    def __init__(self, viceroy, monitor, initial_energy, goal_seconds,
                 halflife_fraction=0.10, decision_period=0.5,
                 upgrade_min_interval=15.0, variable_fraction=0.05,
                 constant_fraction=0.01, safety_fraction=0.03,
                 timeline=None, on_infeasible=None):
        if goal_seconds <= 0:
            raise ValueError(f"goal must be positive, got {goal_seconds}")
        self.viceroy = viceroy
        self.monitor = monitor
        self.sim = viceroy.sim
        self.supply = EnergySupply(initial_energy)
        self.predictor = DemandPredictor(halflife_fraction)
        self.trigger = AdaptationTrigger(
            initial_energy,
            variable_fraction=variable_fraction,
            constant_fraction=constant_fraction,
            safety_fraction=safety_fraction,
        )
        self.goal_seconds = goal_seconds
        self.decision_period = decision_period
        self.upgrade_min_interval = upgrade_min_interval
        self.timeline = timeline
        self.on_infeasible = on_infeasible

        self.start_time = None
        self.goal_time = None
        self.running = False
        self.goal_reached = False
        self.infeasible_reported = False
        self.last_upgrade_time = None
        self.decisions = 0
        self._entry = None
        self._subscribed = False

        tracer = getattr(self.sim, "tracer", None)
        self._trace = tracer.gate("core") if tracer is not None else None
        self.metrics = viceroy.metrics
        self._m_decisions = self.metrics.counter("goal.decisions")
        self._m_infeasible = self.metrics.counter("goal.infeasible")
        self._m_demand_ratio = self.metrics.histogram(
            "goal.demand_ratio",
            buckets=(0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0),
        )

    # ------------------------------------------------------------------
    @property
    def time_remaining(self):
        """Seconds until the goal (0 when reached or not started)."""
        if self.goal_time is None:
            return self.goal_seconds
        return max(0.0, self.goal_time - self.sim.now)

    @property
    def residual_energy(self):
        return self.supply.residual

    def predicted_demand(self):
        """Current demand estimate over the remaining time."""
        return self.predictor.predict(self.time_remaining)

    # ------------------------------------------------------------------
    def start(self):
        """Begin monitoring and deciding; the goal clock starts now."""
        if self.running:
            return
        self.running = True
        self.start_time = self.sim.now
        self.goal_time = self.sim.now + self.goal_seconds
        self.monitor.subscribe(self._on_power_sample)
        self._subscribed = True
        self.monitor.start()
        self._entry = self.sim.schedule(self.decision_period, self._decide)

    def stop(self):
        """Stop deciding (the monitor keeps other subscribers running)."""
        self.running = False

    def extend_goal(self, extra_seconds, extra_energy=0.0):
        """Push the goal later (user revises the duration estimate).

        The paper's Figure 22 experiment extends a 2:45 goal by 30
        minutes at the end of the first hour.  ``extra_energy`` allows
        a simultaneous revision of the available-energy estimate.
        """
        if extra_seconds < 0:
            raise ValueError(f"cannot shorten the goal with {extra_seconds}")
        self.goal_time += extra_seconds
        self.goal_seconds += extra_seconds
        if extra_energy:
            self.supply.add(extra_energy)

    # ------------------------------------------------------------------
    def _on_power_sample(self, time, watts, dt):
        if not self.running:
            return
        self.supply.on_sample(time, watts, dt)
        self.predictor.update(watts, dt, self.time_remaining)

    def _decide(self, _time):
        if not self.running:
            return
        now = self.sim.now
        if now >= self.goal_time:
            self.goal_reached = True
            self.running = False
            return
        demand = self.predicted_demand()
        residual = self.supply.residual
        if self.timeline is not None:
            self.timeline.record(now, "energy", "supply", residual)
            self.timeline.record(now, "energy", "demand", demand)
        self.decisions += 1
        # Stable decision id: decisions fire on a fixed period from
        # :meth:`start`, so the k-th decision of two runs under
        # different policies lands at the same sim instant.  Alignment
        # in :mod:`repro.obs.diff` keys on this id, not on position in
        # the event stream (which shifts with every extra upcall).
        did = self.decisions
        self._m_decisions.inc()
        if residual > 0.0:
            self._m_demand_ratio.observe(demand / residual)

        action = self._choose_action(now, did, demand, residual)
        trace = self._trace
        if trace is not None:
            trace.counter(now, "core", "supply_j", residual, track="goal")
            trace.counter(now, "core", "demand_j", demand, track="goal")
            trace.instant(
                now, "core", f"decision.{action}", track="goal",
                args={
                    "did": did,
                    "supply": residual,
                    "demand": demand,
                    "power_span": self.viceroy._power_span(),
                },
            )
        if action == DEGRADE:
            upcall = self.viceroy.degrade_once(decision_id=did)
            if upcall is None and not self.infeasible_reported:
                # Everything is already at lowest fidelity yet demand
                # still exceeds supply: the duration is infeasible.
                self.infeasible_reported = True
                self._m_infeasible.inc()
                if trace is not None:
                    trace.instant(
                        now, "core", "infeasible", track="goal",
                        args={"did": did, "supply": residual,
                              "demand": demand},
                    )
                if self.on_infeasible is not None:
                    self.on_infeasible(now, demand, residual)
        elif action == UPGRADE and self._upgrade_allowed(now):
            upcall = self.viceroy.upgrade_once(decision_id=did)
            if upcall is not None:
                self.last_upgrade_time = now
        self._entry = self.sim.schedule(self.decision_period, self._decide)

    def _choose_action(self, now, did, demand, residual):
        """Pick HOLD/DEGRADE/UPGRADE for one decision.

        The base policy is the paper's hysteresis trigger; subclasses
        (:class:`repro.snapshot.lookahead.LookaheadGoalController`)
        override this to vet the trigger's proposal against forked
        what-if branches.
        """
        return self.trigger.decide(demand, residual)

    def _upgrade_allowed(self, now):
        if self.last_upgrade_time is None:
            return True
        return now - self.last_upgrade_time >= self.upgrade_min_interval

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        ctx.claim(self._entry, "decide")
        return {
            "supply": {
                "initial": self.supply.initial,
                "consumed": self.supply.consumed,
            },
            "predictor": {
                "smoothed_watts": self.predictor.smoothed_watts,
                "samples_seen": self.predictor.samples_seen,
            },
            "goal_seconds": self.goal_seconds,
            "goal_time": self.goal_time,
            "start_time": self.start_time,
            "running": self.running,
            "goal_reached": self.goal_reached,
            "infeasible_reported": self.infeasible_reported,
            "last_upgrade_time": self.last_upgrade_time,
            "decisions": self.decisions,
            "subscribed": self._subscribed,
        }

    def __restore__(self, state, ctx):
        self.supply.initial = state["supply"]["initial"]
        self.supply.consumed = state["supply"]["consumed"]
        self.predictor.smoothed_watts = state["predictor"]["smoothed_watts"]
        self.predictor.samples_seen = state["predictor"]["samples_seen"]
        self.goal_seconds = state["goal_seconds"]
        self.goal_time = state["goal_time"]
        self.start_time = state["start_time"]
        self.running = bool(state["running"])
        self.goal_reached = bool(state["goal_reached"])
        self.infeasible_reported = bool(state["infeasible_reported"])
        self.last_upgrade_time = state["last_upgrade_time"]
        self.decisions = int(state["decisions"])
        if state["subscribed"] and not self._subscribed:
            # start() never ran on this fresh instance; re-wire the
            # power feed (the monitor does not serialize callables).
            self.monitor.subscribe(self._on_power_sample)
            self._subscribed = True
        # None unless a decision was pending at capture: a stale handle
        # from a reused stack must not pass for one.
        self._entry = None
        for when, seq, kind in ctx.events():
            if kind != "decide":
                raise ValueError(f"unexpected goal event kind {kind!r}")
            self._entry = ctx.push(when, seq, self._decide)

    # ------------------------------------------------------------------
    def summary(self):
        """Result record for the Figure 20/21/22-style tables."""
        return {
            "goal_seconds": self.goal_seconds,
            "goal_reached": self.goal_reached,
            "residual_energy": self.supply.residual,
            "adaptations": self.viceroy.adaptation_counts(),
            "decisions": self.decisions,
            "infeasible": self.infeasible_reported,
        }
