"""Lookahead what-if evaluation: vet adaptation decisions on forks.

The goal-directed controller's hysteresis trigger extrapolates demand
from *smoothed history*; a pulsed workload can therefore talk it into
degrading during a transient burst or upgrading right before one.  The
:class:`WhatIfEvaluator` replaces extrapolation with *measurement*: at
each non-hold proposal it captures the whole stack, forks one branch
per candidate action, advances each a configurable horizon under a
private null tracer, and scores the branch's measured energy against
the goal.

Scoring
-------
For a branch that spent ``E_H`` joules over horizon ``H`` with ``R``
joules residual and ``T`` seconds remaining at the decision::

    margin = (R - E_H) - (E_H / H) * (T - H)

i.e. the joules left at the goal if the branch's measured burn rate
held.  A DEGRADE proposal is accepted only when the *hold* branch's
margin is negative (holding would miss the goal); an UPGRADE proposal
only when the *upgraded* branch's margin is non-negative (the richer
fidelity still makes the goal).

Branch runs are invisible to the parent's metrics and decision spine:
they fork with ``NULL_TRACER`` plus a fresh registry, and the parent
emits their verdicts on the ``branch`` category/track, which
:func:`repro.obs.diff.decision_spine` (``core`` only) never reads.
As belt and braces, every forked machine is stamped with a branch id
(``did<n>.<action>``) that rides on its ``power/span`` args, so even a
branch run under a *real* tracer cannot pollute the trunk's energy
fold — :func:`repro.obs.export.power_spans` indexes trunk spans only
unless a branch is named explicitly.

Open-loop branches
------------------
Every branch is forked from a capture taken inside the trunk's
decision callback, whose already-fired entry the capture drops, so a
branch never decides: it runs open-loop.  Its monitor's 100 ms samples
would feed only the branch controller's supply and predictor, which
nothing reads.  What the ticks do change is where the machine splits
its energy sums: floating-point addition is not associative, so
``E += P*(t1-t0)`` per tick differs in the last bits from one product
over the whole span.  A branch therefore runs without ticks and has
the machine integrate on the tick grid instead, with each tick's exact
float operations (:meth:`repro.hardware.machine.Machine.split_at_grid`).
Verdicts are bit-identical to ticking branches (pinned digests in
``tests/test_lookahead_grid.py``) at a fraction of the cost: no heap
event per tick, no fused-loop re-entry after each pulse edge.  Before
a beam stage is re-captured the tick goes back on the heap at the
grid's next instant, so stage snapshots fork as before.  A branch
whose capture still held a pending decision keeps ticking.

Beam search
-----------
:class:`BeamLookaheadController` generalizes the two-branch evaluation
to *schedules*: the horizon is split into ``beam_depth`` stages, each
stage expands every surviving branch with the feasible actions (hold,
degrade, upgrade), and only the ``beam_width`` best-margin branches
survive to the next stage.  Stage boundaries re-capture the branch —
forking a fork — which is exactly the O(changes) case the copy-on-write
journal exists for.  The chosen schedule's *first* action is what the
parent actually takes; the rest is lookahead scaffolding, re-planned at
the next trigger.
"""

from __future__ import annotations

from repro.core.goal import GoalDirectedController
from repro.core.hysteresis import DEGRADE, HOLD, UPGRADE
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.snapshot.state import Snapshot

__all__ = [
    "WhatIfEvaluator",
    "LookaheadGoalController",
    "BeamLookaheadController",
]


class WhatIfEvaluator:
    """Fork-and-measure evaluation of candidate adaptation actions."""

    #: Branch scenarios retained for reuse; branches run sequentially,
    #: so a couple cover the steady state (beam stages briefly spike).
    POOL_MAX = 4

    def __init__(self, sim, horizon=12.0):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.sim = sim
        self.horizon = horizon
        self.evaluations = 0
        self.branches_run = 0
        # Branch runs share one registry (never read; a fresh one per
        # fork would just burn construction time) and recycle built
        # scenarios through Snapshot.restore(reuse=...) — the builder
        # is ~half the cost of a cold fork.
        self._branch_metrics = MetricsRegistry()
        self._branch_pool = []

    def evaluate(self, actions, residual, remaining, did=None, trace=None):
        """Run one branch per action; return ``{action: verdict}``.

        Each verdict carries the branch's measured joules over the
        (goal-clamped) horizon and the projected margin at the goal.
        """
        snapshot = Snapshot.capture(self.sim)
        horizon = min(self.horizon, remaining)
        self.evaluations += 1
        verdicts = {}
        for action in actions:
            t0, energy, _ = self._branch(snapshot, action, horizon, did)
            rate = energy / horizon if horizon > 0 else 0.0
            margin = ((residual - energy)
                      - rate * max(0.0, remaining - horizon))
            verdict = {
                "action": action,
                "energy_j": energy,
                "rate_w": rate,
                "margin_j": margin,
                "horizon_s": horizon,
            }
            if trace is not None:
                trace.instant(t0, "branch", f"branch.{action}",
                              track="branch", args=dict(verdict, did=did))
            verdicts[action] = verdict
        return verdicts

    def expand(self, snapshot, action, stage_s, did=None):
        """Fork, apply ``action``, advance one beam stage, re-capture.

        Returns ``(energy_j, stage_snapshot)``, or ``None`` when the
        branch cannot perform ``action`` (ladder exhausted in that
        direction).  The re-capture is a fork-of-a-fork: the stage
        snapshot shares the branch's sealed journal blocks, so chaining
        stages stays O(changes per stage).
        """
        measured = self._branch(snapshot, action, stage_s, did, stage=True)
        if measured is None:
            return None
        _t0, energy, stage_snapshot = measured
        return energy, stage_snapshot

    def _branch(self, snapshot, action, seconds, did, stage=False):
        """Fork ``snapshot``, apply ``action``, run ``seconds`` ahead.

        Returns ``(t0, joules spent, stage snapshot)``.  A beam
        ``stage`` is re-captured at its end and skipped (``None``) when
        the action cannot apply; a plain branch runs regardless, and
        then measures holding, which is what would happen.

        Branches are captured inside the trunk's decision callback,
        whose fired entry the capture drops, so a branch makes no
        decisions: it runs open-loop, and its monitor's samples would
        feed only the controller's supply and predictor, which nothing
        reads.  The monitor therefore hands its ticks to the machine as
        a split grid for the run, which keeps the per-tick float splits
        of the machine's energy sums, so the joules are bit-identical
        to a ticking run (see
        :meth:`repro.hardware.machine.Machine.split_at_grid`).  A stage
        takes the ticks back before its re-capture.  A branch that does
        hold a pending decision keeps its ticks.
        """
        # Branches are plain-policy (no nested lookahead) and private:
        # an explicit null tracer keeps the branch sim from resolving
        # the process-installed tracer, and the evaluator-private
        # registry keeps its counters out of the parent's metrics.
        reuse = self._branch_pool.pop() if self._branch_pool else None
        scenario = snapshot.fork(
            reuse=reuse, lookahead=False, tracer=NULL_TRACER,
            metrics=self._branch_metrics,
        )
        # Stamp the branch machine so its power/span stream disentangles
        # from the trunk's if the fork is ever run under a real tracer
        # (power_spans indexes trunk spans only by default).
        scenario.machine.branch_id = f"did{did}.{action}"
        applied = True
        if action == DEGRADE:
            applied = scenario.viceroy.degrade_once(decision_id=did) is not None
        elif action == UPGRADE:
            applied = scenario.viceroy.upgrade_once(decision_id=did) is not None
        measured = None
        if applied or not stage:
            machine = scenario.machine
            monitor = scenario.monitor
            sim = scenario.sim
            t0 = sim.now
            start_energy = machine.finish()
            open_loop = (scenario.controller._entry is None
                         and monitor.hand_off_ticks())
            sim.run(until=t0 + seconds)
            energy = machine.finish() - start_energy
            stage_snapshot = None
            if stage:
                if open_loop:
                    monitor.take_back_ticks()
                stage_snapshot = Snapshot.capture(sim)
            self.branches_run += 1
            measured = (t0, energy, stage_snapshot)
        # A pooled scenario left split on the grid is fine: restore
        # clears the grid and re-pushes the captured tick.
        if len(self._branch_pool) < self.POOL_MAX:
            self._branch_pool.append(scenario)
        return measured


class LookaheadGoalController(GoalDirectedController):
    """Goal controller that vets trigger proposals on forked branches.

    HOLD proposals pass through untouched (no forking on the steady
    path), as do upgrades still inside the rate limit.  Every other
    proposal is measured: the trigger proposes, the evaluator forks a
    hold branch and an acted branch, and the proposal only stands when
    the margins say it should.
    """

    def __init__(self, viceroy, monitor, initial_energy, goal_seconds,
                 horizon=12.0, **kwargs):
        super().__init__(viceroy, monitor, initial_energy, goal_seconds,
                         **kwargs)
        self.horizon = horizon
        self.evaluator = WhatIfEvaluator(self.sim, horizon=horizon)
        self.lookahead_evaluations = 0
        self.overrides = 0
        tracer = getattr(self.sim, "tracer", None)
        self._branch_trace = (
            tracer.gate("branch") if tracer is not None else None
        )

    def _choose_action(self, now, did, demand, residual):
        proposal = self.trigger.decide(demand, residual)
        if proposal == HOLD or self.sim.snapshot_builder is None:
            return proposal
        if proposal == UPGRADE and not self._upgrade_allowed(now):
            # The rate limit will veto it anyway; don't pay for forks.
            return proposal
        remaining = self.time_remaining
        if min(self.horizon, remaining) <= self.decision_period:
            return proposal
        verdicts = self.evaluator.evaluate(
            (HOLD, proposal), residual, remaining,
            did=did, trace=self._branch_trace,
        )
        self.lookahead_evaluations += 1
        if proposal == DEGRADE:
            accepted = verdicts[HOLD]["margin_j"] < 0.0
        else:
            accepted = verdicts[proposal]["margin_j"] >= 0.0
        if not accepted:
            self.overrides += 1
        if self._branch_trace is not None:
            self._branch_trace.instant(
                now, "branch", "lookahead.verdict", track="branch",
                args={
                    "did": did,
                    "proposal": proposal,
                    "accepted": accepted,
                    "hold_margin_j": verdicts[HOLD]["margin_j"],
                    "action_margin_j": verdicts[proposal]["margin_j"],
                },
            )
        return proposal if accepted else HOLD

    def lookahead_summary(self):
        return {
            "horizon_s": self.horizon,
            "evaluations": self.lookahead_evaluations,
            "overrides": self.overrides,
            "branches_run": self.evaluator.branches_run,
        }

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        state = super().__snapshot__(ctx)
        state["lookahead"] = {
            "evaluations": self.lookahead_evaluations,
            "overrides": self.overrides,
            "branches_run": self.evaluator.branches_run,
        }
        return state

    def __restore__(self, state, ctx):
        super().__restore__(state, ctx)
        # Absent when restoring a plain-policy capture into a lookahead
        # stack; counters then start fresh, which is the honest reading.
        extra = state.get("lookahead")
        if extra:
            self.lookahead_evaluations = int(extra["evaluations"])
            self.overrides = int(extra["overrides"])
            self.evaluator.branches_run = int(extra["branches_run"])


class BeamLookaheadController(LookaheadGoalController):
    """Lookahead controller that plans over action *schedules*.

    Where :class:`LookaheadGoalController` vets a single proposal with
    two branches, this controller beam-searches candidate schedules: the
    (goal-clamped) horizon is split into ``beam_depth`` equal stages;
    each stage expands every surviving branch with the feasible actions
    and keeps the ``beam_width`` best projected margins.  A completed
    schedule's margin uses the same formula as the two-branch evaluator,
    with the schedule's *measured* burn rate over its whole horizon.

    Decision rule: among completed schedules whose margin is
    non-negative, take the one with the richest first action
    (upgrade > hold > degrade), margin breaking ties; if none clears
    the goal, take the maximum-margin schedule.  Only that first action
    is applied — the rest of the schedule is re-planned at the next
    trigger, so beam search changes *which* adaptation fires, never the
    decision cadence.
    """

    _RICHNESS = {UPGRADE: 2, HOLD: 1, DEGRADE: 0}

    def __init__(self, viceroy, monitor, initial_energy, goal_seconds,
                 horizon=12.0, beam_width=4, beam_depth=2, **kwargs):
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        if beam_depth < 1:
            raise ValueError(f"beam_depth must be >= 1, got {beam_depth}")
        super().__init__(viceroy, monitor, initial_energy, goal_seconds,
                         horizon=horizon, **kwargs)
        self.beam_width = int(beam_width)
        self.beam_depth = int(beam_depth)
        self.beam_plans = 0
        self.beam_expansions = 0

    def _choose_action(self, now, did, demand, residual):
        proposal = self.trigger.decide(demand, residual)
        if proposal == HOLD or self.sim.snapshot_builder is None:
            return proposal
        if proposal == UPGRADE and not self._upgrade_allowed(now):
            # The rate limit will veto it anyway; don't pay for forks.
            return proposal
        remaining = self.time_remaining
        horizon = min(self.horizon, remaining)
        if horizon <= self.decision_period:
            return proposal
        best = self._beam_plan(now, did, residual, remaining, horizon)
        self.lookahead_evaluations += 1
        chosen = best["schedule"][0]
        if chosen != proposal:
            self.overrides += 1
        if self._branch_trace is not None:
            self._branch_trace.instant(
                now, "branch", "beam.verdict", track="branch",
                args={
                    "did": did,
                    "proposal": proposal,
                    "chosen": chosen,
                    "schedule": list(best["schedule"]),
                    "margin_j": best["margin"],
                    "width": self.beam_width,
                    "depth": self.beam_depth,
                },
            )
        return chosen

    def _beam_plan(self, now, did, residual, remaining, horizon):
        """Run the beam search; returns the winning candidate dict."""
        self.beam_plans += 1
        stage_s = horizon / self.beam_depth
        evaluator = self.evaluator
        beam = [{
            "snapshot": Snapshot.capture(self.sim),
            "energy": 0.0,
            "elapsed": 0.0,
            "schedule": (),
            "margin": 0.0,
        }]
        for depth in range(self.beam_depth):
            first = depth == 0
            candidates = []
            for item in beam:
                for action in (HOLD, DEGRADE, UPGRADE):
                    if (first and action == UPGRADE
                            and not self._upgrade_allowed(now)):
                        continue
                    expanded = evaluator.expand(
                        item["snapshot"], action, stage_s, did=did,
                    )
                    if expanded is None:
                        continue
                    self.beam_expansions += 1
                    energy, snap = expanded
                    total = item["energy"] + energy
                    elapsed = item["elapsed"] + stage_s
                    rate = total / elapsed
                    margin = ((residual - total)
                              - rate * max(0.0, remaining - elapsed))
                    candidates.append({
                        "snapshot": snap,
                        "energy": total,
                        "elapsed": elapsed,
                        "schedule": item["schedule"] + (action,),
                        "margin": margin,
                    })
            if not candidates:
                break
            # Stable sort: margin ties keep expansion order (hold
            # before degrade before upgrade), so planning is exactly
            # deterministic.
            candidates.sort(key=lambda c: -c["margin"])
            beam = candidates[:self.beam_width]
        viable = [c for c in beam if c["margin"] >= 0.0]
        if viable:
            return max(viable, key=lambda c: (
                self._RICHNESS[c["schedule"][0]], c["margin"],
            ))
        return beam[0]

    def lookahead_summary(self):
        summary = super().lookahead_summary()
        summary["beam"] = {
            "width": self.beam_width,
            "depth": self.beam_depth,
            "plans": self.beam_plans,
            "expansions": self.beam_expansions,
        }
        return summary

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        state = super().__snapshot__(ctx)
        # Inside the lookahead dict: plain-lookahead payloads (and the
        # goldens pinned to them) stay byte-identical.
        state["lookahead"]["beam"] = {
            "plans": self.beam_plans,
            "expansions": self.beam_expansions,
        }
        return state

    def __restore__(self, state, ctx):
        super().__restore__(state, ctx)
        beam = (state.get("lookahead") or {}).get("beam")
        if beam:
            self.beam_plans = int(beam["plans"])
            self.beam_expansions = int(beam["expansions"])
