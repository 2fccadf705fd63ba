"""Lookahead what-if evaluation: vet adaptation decisions ahead of time.

The goal-directed controller's hysteresis trigger extrapolates demand
from *smoothed history*; a pulsed workload can therefore talk it into
degrading during a transient burst or upgrading right before one.  The
:class:`WhatIfEvaluator` replaces extrapolation with *measurement*: at
each non-hold proposal it integrates, per candidate action, the joules
the stack would spend over a configurable horizon, and scores each
branch's energy against the goal.

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

Branches are invisible to the parent's metrics and decision spine: the
parent emits their verdicts on the ``branch`` category/track, which
:func:`repro.obs.diff.decision_spine` (``core`` only) never reads.

Open-loop lanes
---------------
A what-if asked from inside the trunk's decision callback (whose entry
has already fired) decides nothing over its horizon: it runs open-loop.
Its future is a fixed schedule of pulse edges and monitor sample
instants, and the candidates differ only in the watts each app's
component draws between those instants.  A *lane* folds one candidate
over that schedule: a float accumulator, the candidate's fidelity
levels, and per-app edge cursors.  It reads the trunk's live state —
the machine's ``energy_total``, ``_last_update`` and cached power, the
monitor's pending tick and period (the grid origin), each
:class:`~repro.snapshot.scenario.PulsedApp`'s pending entry, activity,
level, period and burst, and each component's ``states`` table — and
never captures, forks or advances it.  Each lane does exactly the
float operations the machine of a forked, ticking branch does:

* the first add, ``total += P * (now - last)`` at the trunk's power,
  comes before the action and is shared by every lane (when the cached
  power is dirty it is summed afresh from the component states);
* then at every grid instant strictly before the next edge (generated
  ``g += period``, as the monitor generates them), at the edge, and at
  the horizon: ``total += P * (s - last)``, only when ``s - last > 0``;
* edges fire while ``when <= until``, in ``(when, seq)`` order, and
  chain the next edge at ``when + burst`` or ``when + (period - burst)``,
  as ``schedule`` computes ``now + delay``;
* power is ``0.0 + w1 + w2 + ...`` in ``machine.components`` order plus
  the default correction's ``0.0``, as ``Machine._refresh_power`` sums it;
* a level change takes effect at once only while its app is active,
  and the app picked follows the priority ladder's degrade/upgrade
  order over the lane's own levels.

So lane joules are bit-identical to a ticking fork's (the property test
and pinned verdict digests in ``tests/test_lookahead_grid.py``).  The
two-branch evaluator folds hold and the proposal side by side in one
pass; a beam stage folds one candidate and hands its lane on.

A stack lanes cannot model is still forked (:meth:`Snapshot.fork`) and
run with its ticks: one with a live pending controller decision (a
what-if asked outside the decision callback, which must decide), an
app that is not a ``PulsedApp`` (or drives a component that is not a
plain ``PowerComponent``), a machine or monitor of another type, a
supply with ``note_power``/``recover`` hooks, a non-default
correction, or any other pending event.  Forks run under a private null tracer and registry, and each
forked machine is stamped with a branch id (``did<n>.<action>``) that
rides on its ``power/span`` args, so even a fork run under a *real*
tracer cannot pollute the trunk's energy fold —
:func:`repro.obs.export.power_spans` indexes trunk spans only unless a
branch is named explicitly.

Beam search
-----------
:class:`BeamLookaheadController` generalizes the two-branch evaluation
to *schedules*: the horizon is split into ``beam_depth`` stages, each
stage expands every surviving branch with the feasible actions (hold,
degrade, upgrade), and only the ``beam_width`` best-margin branches
survive to the next stage.  Each stage carries its lane state (or, for
a forked stack, a re-capture of the fork) to the next.  The chosen
schedule's *first* action is what the parent actually takes; the rest
is lookahead scaffolding, re-planned at the next trigger.
"""

from __future__ import annotations

from repro.core.goal import GoalDirectedController
from repro.core.hysteresis import DEGRADE, HOLD, UPGRADE
from repro.hardware.component import PowerComponent
from repro.hardware.machine import Machine, zero_correction
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.powerscope.online import OnlinePowerMonitor
from repro.snapshot.scenario import PLAIN_POLICY, PulsedApp
from repro.snapshot.state import Snapshot

__all__ = [
    "WhatIfEvaluator",
    "LookaheadGoalController",
    "BeamLookaheadController",
]


class _LaneModel:
    """The fixed part of a trunk's open-loop future.

    ``slots`` follows ``machine.components``: ``(app, watts)`` with
    ``app`` the index of the pulsed app driving that component, or -1
    for a component whose constant ``watts`` nothing changes.
    """

    __slots__ = ("slots", "level_watts", "idle_watts", "top", "burst",
                 "rest", "period", "degrade_order", "upgrade_order")

    def __init__(self, slots, level_watts, idle_watts, burst, rest, period,
                 degrade_order, upgrade_order):
        self.slots = slots
        self.level_watts = level_watts
        self.idle_watts = idle_watts
        self.top = [len(watts) - 1 for watts in level_watts]
        self.burst = burst
        self.rest = rest
        self.period = period
        self.degrade_order = degrade_order
        self.upgrade_order = upgrade_order

    def power(self, pulses, levels):
        """Machine power for one lane, summed as ``_refresh_power`` does."""
        total = 0.0
        for app, watts in self.slots:
            if app < 0:
                total += watts
            else:
                _when, _seq, active, off = pulses[app]
                total += self.level_watts[app][levels[app]] if active else off
        # The default correction's 0.0, added as the machine adds it.
        return total + 0.0

    def act(self, levels, action):
        """The levels after ``action``, or None when no app can take it.

        Picks the app as :class:`~repro.core.priority.PriorityLadder`
        does; any action other than degrade/upgrade holds.
        """
        if action == DEGRADE:
            for app in self.degrade_order:
                if levels[app] < self.top[app]:
                    return levels[:app] + (levels[app] + 1,) + levels[app + 1:]
            return None
        if action == UPGRADE:
            for app in self.upgrade_order:
                if levels[app] > 0:
                    return levels[:app] + (levels[app] - 1,) + levels[app + 1:]
            return None
        return levels


class _LaneState:
    """A lane at one instant: the schedule cursors every lane shares
    there, plus this lane's ``energy`` (the machine's ``energy_total``)
    and fidelity ``levels``.  The first add has been made, so the
    machine's last update is ``now``.

    ``pulses`` holds one ``(when, seq, active, off_watts)`` per app:
    its pending edge (``when`` None if it has none) and the watts its
    component draws while the app is idle.
    """

    __slots__ = ("model", "now", "grid", "next_seq", "pulses", "energy",
                 "levels")

    def __init__(self, model, now, grid, next_seq, pulses, energy, levels):
        self.model = model
        self.now = now
        self.grid = grid
        self.next_seq = next_seq
        self.pulses = pulses
        self.energy = energy
        self.levels = levels


def _lane_start(sim):
    """The trunk's open-loop future as a lane, or None if a lane
    cannot model it (see "Open-loop lanes" above)."""
    objects = sim._snapshottables
    machine = objects.get("machine")
    monitor = objects.get("monitor")
    viceroy = objects.get("viceroy")
    if (type(machine) is not Machine
            or type(monitor) is not OnlinePowerMonitor
            or monitor.machine is not machine or viceroy is None
            or machine.correction is not zero_correction
            or machine._supply_note_power is not None
            or machine._supply_recover is not None):
        return None
    cancelled = sim._cancelled
    live = {seq for _when, seq, _callback in sim._heap
            if seq not in cancelled}
    expected = set()
    grid = None
    tick = monitor._entry
    if monitor._running and tick is not None and tick[1] in live:
        expected.add(tick[1])
        grid = tick[0]

    apps = viceroy.ladder.applications
    components = machine.components
    owner = {}
    level_watts = []
    idle_watts = []
    bursts = []
    rests = []
    pulses = []
    for index, app in enumerate(apps):
        component = app.component
        states = component.states
        if (type(app) is not PulsedApp
                or type(component) is not PowerComponent):
            return None
        owner[component.name] = index
        level_watts.append([states[level] for level in app.levels])
        idle_watts.append(states["idle"])
        # As PulsedApp schedules its edges: burst, then period - burst.
        burst = app.burst
        bursts.append(burst)
        rests.append(app.period - burst)
        entry = app._entry
        if entry is not None and entry[1] in live:
            expected.add(entry[1])
            when, seq = entry[0], entry[1]
        else:
            when = seq = None
        pulses.append((when, seq, app._active, component.power))
    if live != expected:
        # A pending decision (or anything else) would act mid-horizon.
        return None
    ladder = viceroy.ladder
    position = {id(app): index for index, app in enumerate(apps)}
    model = _LaneModel(
        [(owner.get(name, -1), component.power)
         for name, component in components.items()],
        level_watts, idle_watts, bursts, rests, monitor.period,
        [position[id(app)] for app in ladder.by_priority(ascending=True)],
        [position[id(app)] for app in ladder.by_priority(ascending=False)],
    )

    pulses = tuple(pulses)
    levels = tuple(app.level_index for app in apps)
    now = sim.now
    energy = machine.energy_total
    span = now - machine._last_update
    if span > 0.0:
        power = (model.power(pulses, levels) if machine._power_dirty
                 else machine._power)
        energy += power * span
    return _LaneState(model, now, grid, sim._next_seq, pulses, energy,
                      levels)


def _fold(state, lanes, until):
    """Integrate ``lanes`` (one levels tuple each) from ``state`` to
    ``until`` in one pass over the shared schedule.

    Returns ``(energies, next_state_fields)``: each lane's final
    ``energy_total``, and the ``(grid, next_seq, pulses)`` cursors at
    ``until``.
    """
    model = state.model
    period = model.period
    burst = model.burst
    rest = model.rest
    pulses = list(state.pulses)
    count = len(lanes)
    lane_range = range(count)
    energy = [state.energy] * count
    power = [model.power(pulses, levels) for levels in lanes]
    grid = state.grid
    last = state.now
    seq = state.next_seq
    while True:
        edge = None
        for app, pulse in enumerate(pulses):
            when = pulse[0]
            if (when is not None and when <= until
                    and (edge is None or pulse[:2] < pulses[edge][:2])):
                edge = app
        bound = until if edge is None else pulses[edge][0]
        if grid is not None:
            while grid < bound:
                span = grid - last
                if span > 0.0:
                    for i in lane_range:
                        energy[i] += power[i] * span
                    last = grid
                grid += period
        span = bound - last
        if span > 0.0:
            for i in lane_range:
                energy[i] += power[i] * span
            last = bound
        if edge is None:
            return energy, (grid, seq, tuple(pulses))
        when, _seq, active, off = pulses[edge]
        if active:
            pulses[edge] = (when + rest[edge], seq, False,
                            model.idle_watts[edge])
        else:
            pulses[edge] = (when + burst[edge], seq, True, off)
        seq += 1
        power = [model.power(pulses, levels) for levels in lanes]


class WhatIfEvaluator:
    """Measure candidate adaptation actions over a horizon: side by side
    as lanes when the stack runs open-loop, on forks otherwise."""

    #: Fork scenarios retained for reuse; forks run sequentially, so a
    #: couple cover the steady state (beam stages briefly spike).
    POOL_MAX = 4

    def __init__(self, sim, horizon=12.0):
        if not horizon > 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.sim = sim
        self.horizon = horizon
        self.evaluations = 0
        self.branches_run = 0
        # Forks share one registry (never read; a fresh one per fork
        # would just burn construction time) and recycle built
        # scenarios through Snapshot.restore(reuse=...) — the builder
        # is ~half the cost of a cold fork.
        self._branch_metrics = MetricsRegistry()
        self._branch_pool = []

    def start(self):
        """Where the trunk's branches start: a lane state, or a
        :class:`Snapshot` to fork when lanes cannot model the stack."""
        return _lane_start(self.sim) or Snapshot.capture(self.sim)

    def evaluate(self, actions, residual, remaining, did=None, trace=None):
        """Measure one branch per action; return ``{action: verdict}``.

        Each verdict carries the branch's measured joules over the
        (goal-clamped) horizon and the projected margin at the goal.
        A branch whose action cannot apply measures holding, which is
        what would happen.
        """
        horizon = min(self.horizon, remaining)
        self.evaluations += 1
        t0 = self.sim.now
        start = self.start()
        if type(start) is _LaneState:
            lanes = [start.model.act(start.levels, action) or start.levels
                     for action in actions]
            ends, _cursors = _fold(start, lanes, t0 + horizon)
            measured = [end - start.energy for end in ends]
            self.branches_run += len(lanes)
        else:
            measured = [self._fork(start, action, horizon, did)[0]
                        for action in actions]
        verdicts = {}
        for action, energy in zip(actions, measured):
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
        """Apply ``action``, advance one beam stage from ``snapshot``.

        ``snapshot`` is what :meth:`start` or a previous ``expand``
        returned.  Returns ``(energy_j, next)``, where ``next`` starts
        the following stage, or ``None`` when the branch cannot perform
        ``action`` (ladder exhausted in that direction).
        """
        if type(snapshot) is not _LaneState:
            return self._fork(snapshot, action, stage_s, did, stage=True)
        levels = snapshot.model.act(snapshot.levels, action)
        if levels is None:
            return None
        until = snapshot.now + stage_s
        (end,), cursors = _fold(snapshot, [levels], until)
        self.branches_run += 1
        return end - snapshot.energy, _LaneState(
            snapshot.model, until, *cursors, end, levels,
        )

    def _fork(self, snapshot, action, seconds, did, stage=False):
        """Fork ``snapshot``, apply ``action``, run ``seconds`` ahead.

        Returns ``(joules spent, stage snapshot)``.  A beam
        ``stage`` is re-captured at its end and skipped (``None``) when
        the action cannot apply; a plain branch runs regardless, and
        then measures holding.
        """
        # Forks are plain-policy (no nested lookahead, no beam) and
        # private: an explicit null tracer keeps the fork from resolving
        # the process-installed tracer, and the evaluator-private
        # registry keeps its counters out of the parent's metrics.
        reuse = self._branch_pool.pop() if self._branch_pool else None
        scenario = snapshot.fork(
            reuse=reuse, tracer=NULL_TRACER, metrics=self._branch_metrics,
            **PLAIN_POLICY,
        )
        # Stamp the fork's machine so its power/span stream disentangles
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
            sim = scenario.sim
            t0 = sim.now
            start_energy = machine.finish()
            sim.run(until=t0 + seconds)
            energy = machine.finish() - start_energy
            stage_snapshot = Snapshot.capture(sim) if stage else None
            self.branches_run += 1
            measured = (energy, stage_snapshot)
        if len(self._branch_pool) < self.POOL_MAX:
            self._branch_pool.append(scenario)
        return measured


class LookaheadGoalController(GoalDirectedController):
    """Goal controller that vets trigger proposals on what-if branches.

    HOLD proposals pass through untouched (no branches on the steady
    path), as do upgrades still inside the rate limit.  Every other
    proposal is measured: the trigger proposes, the evaluator measures
    a hold branch and an acted branch, and the proposal only stands
    when the margins say it should.
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
            # The rate limit will veto it anyway; don't pay for branches.
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
            # The rate limit will veto it anyway; don't pay for branches.
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
            "state": evaluator.start(),
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
                        item["state"], action, stage_s, did=did,
                    )
                    if expanded is None:
                        continue
                    self.beam_expansions += 1
                    energy, state = expanded
                    total = item["energy"] + energy
                    elapsed = item["elapsed"] + stage_s
                    rate = total / elapsed
                    margin = ((residual - total)
                              - rate * max(0.0, remaining - elapsed))
                    candidates.append({
                        "state": state,
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
