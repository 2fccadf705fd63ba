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
levels, and a place in the evaluator's *plan* of the schedule.  Lanes
read the trunk's live state and never capture, fork or advance it.

The plan (:class:`_LanePlan`) holds a lane model — each app's level and
idle watts, burst and rest, the constant components' watts, the
priority ladder's orders — and the schedule generated forward from the
trunk's pending state: the grid from the monitor's pending tick,
``g += period`` as the monitor generates it, and each app's edges from
its pending entry, chained at ``when + burst`` or ``when + (period -
burst)`` as ``schedule`` computes ``now + delay``.  Grid instants and
edges merge into strictly increasing breakpoints; the plan keeps the
positive span between consecutive breakpoints, grouped by the edges
into segments of constant pulse state, with each segment's power
memoised per lane levels.  Consecutive evaluations share almost all of
their horizons, so one plan serves a whole run: it is extended on
demand and trimmed behind the trunk.  It is reused only while two
checks hold, else it is rebuilt from the trunk:

* the *model* check: the inputs the model was built from are unchanged
  (the monitor period; per app the app, its component and their types,
  the ``states`` table, ``levels``, ``burst``, ``period`` and
  ``priority``; each constant component's live power);
* the *schedule* check: once the events at the trunk's instant have
  fired, the plan predicts exactly what the trunk has pending — the
  next grid instant and, per app, its pending edge, its activity, and
  its component's watts while it is idle (an active app's draw moves
  with fidelity, which is the lane's to choose).

Each lane then does exactly the float operations the machine of a
forked, ticking branch does:

* the first add, ``total += P * (now - last)`` at the trunk's power,
  comes before the action and is shared by every lane (when the cached
  power is dirty it is summed afresh from the component states);
* then per segment, ``total += P * span`` over its spans in order: the
  span from ``now`` to the first breakpoint, every span between
  breakpoints, and the last one to the horizon, which takes the state
  after the last breakpoint before it (an edge included).  Adds are
  made one by one, never through ``sum``, which would reassociate them
  (and is compensated from Python 3.12);
* power is ``0.0 + w1 + w2 + ...`` in ``machine.components`` order plus
  the default correction's ``0.0``, as ``Machine._refresh_power`` sums it;
* a level change takes effect at once only while its app is active,
  and the app picked follows the priority ladder's degrade/upgrade
  order over the lane's own levels.

So lane joules are bit-identical to a ticking fork's (the property
tests and pinned verdict digests in ``tests/test_lookahead_grid.py``).
The two-branch evaluator folds hold and the proposal over one pass of
the plan; a beam stage folds one candidate and hands on its lane, whose
next stage starts at its place in the same plan.

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

import math
from bisect import bisect_left, bisect_right

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
    """The fixed part of a trunk's open-loop future, and the inputs it
    was built from.

    ``slots`` follows ``machine.components``: ``(app, component,
    watts)``, with ``app`` the index of the pulsed app driving that
    component, or -1 for a component whose constant ``watts`` nothing
    changes.  An app-driven slot records no watts: what that component
    draws is the lane's to say.
    """

    __slots__ = ("period", "inputs", "slots", "level_watts", "idle_watts",
                 "top", "burst", "rest", "degrade_order", "upgrade_order",
                 "_segments")

    def __init__(self, machine, monitor, ladder):
        apps = ladder.applications
        self.period = monitor.period
        self.inputs = [(app, app.component, dict(app.component.states),
                        list(app.levels), app.burst, app.period,
                        app.priority) for app in apps]
        owner = {app.component.name: index for index, app in enumerate(apps)}
        self.slots = []
        for name, component in machine.components.items():
            app = owner.get(name, -1)
            self.slots.append(
                (app, component, component.power if app < 0 else None))
        self.level_watts = [[app.component.states[level]
                             for level in app.levels] for app in apps]
        self.idle_watts = [app.component.states["idle"] for app in apps]
        self.top = [len(watts) - 1 for watts in self.level_watts]
        # As PulsedApp schedules its edges: burst, then period - burst.
        self.burst = [app.burst for app in apps]
        self.rest = [app.period - app.burst for app in apps]
        position = {id(app): index for index, app in enumerate(apps)}
        self.degrade_order = [position[id(app)]
                              for app in ladder.by_priority(ascending=True)]
        self.upgrade_order = [position[id(app)]
                              for app in ladder.by_priority(ascending=False)]
        self._segments = {}

    def matches(self, machine, monitor, apps):
        """Are the inputs this model was built from unchanged?"""
        if monitor.period != self.period or len(apps) != len(self.inputs):
            return False
        for app, (built, component, states, levels, burst, period,
                  priority) in zip(apps, self.inputs):
            if (app is not built or type(app) is not PulsedApp
                    or app.component is not component
                    or type(component) is not PowerComponent
                    or component.states != states or app.levels != levels
                    or app.burst != burst or app.period != period
                    or app.priority != priority):
                return False
        components = machine.components
        if len(components) != len(self.slots):
            return False
        for component, (app, built, watts) in zip(components.values(),
                                                 self.slots):
            if component is not built or (app < 0
                                          and component.power != watts):
                return False
        return True

    def segment(self, pulses):
        """``(offs, memo)`` for a pulse state: each app's idle watts
        (None while it is active) and a ``{levels: watts}`` memo of the
        state's power, one memo per distinct ``offs``."""
        offs = tuple(off for _when, off in pulses)
        segment = self._segments.get(offs)
        if segment is None:
            segment = self._segments[offs] = (offs, {})
        return segment

    def power(self, offs, levels):
        """Machine power for one lane, summed as ``_refresh_power`` does.

        ``offs`` holds, per app, the watts its component draws while the
        app is idle, or None while the app is active.
        """
        total = 0.0
        for app, _component, watts in self.slots:
            if app < 0:
                total += watts
            else:
                off = offs[app]
                total += (self.level_watts[app][levels[app]] if off is None
                          else off)
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


class _LanePlan:
    """A trunk's open-loop schedule, planned once and extended on demand.

    Monitor grid instants and pulse edges merge into strictly
    increasing breakpoints ``times``.  ``edges`` lists the breakpoints
    where edges fire; they cut the schedule into segments of constant
    pulse state.  Per segment ``j`` (``j`` edges behind it):
    ``states[j]``, the pulses, per app ``(when, off)`` (its pending
    edge and the watts its component draws while the app is idle, None
    while it is active); ``segments[j]``, their
    :meth:`_LaneModel.segment`; and ``runs[j]``, the spans ``times[i] -
    times[i - 1]`` of its breakpoints ``i`` (breakpoint 0 has none).
    ``_grid`` and ``_pulses`` are the generator's cursor: what is
    pending after the last breakpoint.
    """

    __slots__ = ("model", "times", "grids", "edges", "states", "segments",
                 "runs", "_grid", "_pulses")

    def __init__(self, model, grid, pulses):
        self.model = model
        self.times = []
        self.grids = []
        self.edges = []
        self.states = [pulses]
        self.segments = [model.segment(pulses)]
        self.runs = [[]]
        self._grid = grid
        self._pulses = list(pulses)

    def _mark(self, t):
        """The index of the breakpoint at ``t``, appended if new."""
        times = self.times
        if not times:
            times.append(t)
        elif times[-1] != t:
            self.runs[-1].append(t - times[-1])
            times.append(t)
        return len(times) - 1

    def extend(self, until):
        """Plan every breakpoint at or before ``until``, generating
        instants as the trunk does: ``g += period`` for the grid,
        ``when + burst`` / ``when + (period - burst)`` for edges."""
        model = self.model
        period = model.period
        grid = self._grid
        pulses = self._pulses
        while True:
            edge = None
            for app, (when, _off) in enumerate(pulses):
                if when is not None and (edge is None
                                         or when < pulses[edge][0]):
                    edge = app
            when = None if edge is None else pulses[edge][0]
            if grid is not None:
                # Grid instants before the edge; one at the edge's
                # instant joins its breakpoint on the next pass.
                stop = (until if when is None or when > until
                        else math.nextafter(when, -math.inf))
                while grid <= stop:
                    self._mark(grid)
                    self.grids.append(grid)
                    grid += period
            if when is None or when > until:
                self._grid = grid
                return
            if pulses[edge][1] is None:
                pulses[edge] = (when + model.rest[edge],
                                model.idle_watts[edge])
            else:
                pulses[edge] = (when + model.burst[edge], None)
            index = self._mark(when)
            state = tuple(pulses)
            if not self.edges or self.edges[-1] != index:
                self.edges.append(index)
                self.runs.append([])
                self.states.append(state)
                self.segments.append(model.segment(state))
            else:
                # Edges at one instant: the breakpoint leaves the state
                # after the last of them.
                self.states[-1] = state
                self.segments[-1] = model.segment(state)

    def _first(self, segment):
        """The breakpoint whose span opens ``runs[segment]``."""
        return self.edges[segment - 1] + 1 if segment else 1

    def pending(self, index):
        """``(grid, pulses)`` pending before breakpoint ``index``."""
        times = self.times
        grid = self._grid
        if index < len(times):
            at = bisect_left(self.grids, times[index])
            if at < len(self.grids):
                grid = self.grids[at]
        return grid, self.states[bisect_left(self.edges, index)]

    def stretches(self, index, t0, until):
        """The fold from ``t0`` (breakpoint ``index`` next) to ``until``.

        Returns ``(stretches, end)``: ``(segment, spans)`` per segment
        crossed, in order, and the first breakpoint after ``until``.
        The spans are the positive ``s - last`` of every breakpoint
        ``s`` and of ``until``.
        """
        self.extend(until)
        times = self.times
        runs = self.runs
        end = bisect_right(times, until, index)
        segment = bisect_left(self.edges, index)
        if index == end:
            tail = until - t0
            return [(self.segments[segment],
                     [tail] if tail > 0.0 else [])], end
        head = times[index] - t0
        first = [head] if head > 0.0 else []
        lo = index + 1 - self._first(segment)
        last = bisect_left(self.edges, end, segment)
        if last == segment:
            first += runs[segment][lo:end - self._first(segment)]
            out = [(self.segments[segment], first)]
        else:
            first += runs[segment][lo:]
            out = [(self.segments[segment], first)]
            for middle in range(segment + 1, last):
                out.append((self.segments[middle], runs[middle]))
            out.append((self.segments[last],
                        runs[last][:end - self._first(last)]))
        tail = until - times[end - 1]
        if tail > 0.0:
            out[-1] = (out[-1][0], out[-1][1] + [tail])
        return out, end

    def trimmed(self, index):
        """A copy without the breakpoints before ``index``; lane states
        holding this plan keep their indices."""
        segment = bisect_left(self.edges, index)
        plan = _LanePlan(self.model, self._grid, self.states[segment])
        plan._pulses = list(self._pulses)
        times = self.times
        cut = (bisect_left(self.grids, times[index]) if index < len(times)
               else len(self.grids))
        plan.times = times[index:]
        plan.grids = self.grids[cut:]
        plan.edges = [at - index for at in self.edges[segment:]]
        plan.states = self.states[segment:]
        plan.segments = self.segments[segment:]
        plan.runs = ([self.runs[segment][index + 1 - self._first(segment):]]
                     + self.runs[segment + 1:])
        return plan


class _LaneState:
    """A lane at one instant: its place in the plan (``index``, the
    next breakpoint), the machine's ``energy`` (``energy_total``) and
    fidelity ``levels``.  The first add has been made, so the machine's
    last update is ``now``."""

    __slots__ = ("plan", "index", "now", "energy", "levels")

    def __init__(self, plan, index, now, energy, levels):
        self.plan = plan
        self.index = index
        self.now = now
        self.energy = energy
        self.levels = levels


def _fold(state, lanes, until):
    """Integrate ``lanes`` (one levels tuple each) from ``state`` to
    ``until``; returns each lane's final ``energy_total`` and the index
    of the first breakpoint after ``until``.

    Each lane adds ``P * span`` span by span in the trunk's order, so
    no sum is reassociated.
    """
    plan = state.plan
    stretches, end = plan.stretches(state.index, state.now, until)
    power = plan.model.power
    ends = []
    for levels in lanes:
        energy = state.energy
        for (offs, memo), spans in stretches:
            watts = memo.get(levels)
            if watts is None:
                watts = memo[levels] = power(offs, levels)
            for span in spans:
                energy += watts * span
        ends.append(energy)
    return ends, end


#: Breakpoints a plan may keep behind the trunk before it is trimmed.
_TRIM_AT = 256


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
        self._plan = None

    def start(self):
        """Where the trunk's branches start: a lane state, or a
        :class:`Snapshot` to fork when lanes cannot model the stack."""
        return self._lane_start() or Snapshot.capture(self.sim)

    def _lane_start(self):
        """The trunk's open-loop future as a lane on the evaluator's
        plan, or None if a lane cannot model it (see "Open-loop lanes"
        above)."""
        sim = self.sim
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
        apps = viceroy.ladder.applications
        plan = self._plan
        if plan is not None and plan.model.matches(machine, monitor, apps):
            model = plan.model
        elif all(type(app) is PulsedApp
                 and type(app.component) is PowerComponent for app in apps):
            plan = None
            model = _LaneModel(machine, monitor, viceroy.ladder)
        else:
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
        pulses = []
        for app in apps:
            entry = app._entry
            when = None
            if entry is not None and entry[1] in live:
                expected.add(entry[1])
                when = entry[0]
            pulses.append((when, None if app._active
                           else app.component.power))
        if live != expected:
            # A pending decision (or anything else) would act mid-horizon.
            return None
        pulses = tuple(pulses)

        # The plan still describes the trunk if, once the events at
        # this instant have fired, it predicts exactly what the trunk
        # will have pending; else the trunk's own plan replaces it.
        now = sim.now
        fresh = _LanePlan(model, grid, pulses)
        fresh.extend(now)
        if plan is not None:
            plan.extend(now)
            index = bisect_right(plan.times, now)
            if plan.pending(index) != fresh.pending(len(fresh.times)):
                plan = None
            elif index >= _TRIM_AT:
                plan = plan.trimmed(index)
                index = 0
        if plan is None:
            plan = fresh
            index = len(fresh.times)
        self._plan = plan

        levels = tuple(app.level_index for app in apps)
        energy = machine.energy_total
        span = now - machine._last_update
        if span > 0.0:
            power = (model.power(model.segment(pulses)[0], levels)
                     if machine._power_dirty else machine._power)
            energy += power * span
        return _LaneState(plan, index, now, energy, levels)

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
            model = start.plan.model
            lanes = [model.act(start.levels, action) or start.levels
                     for action in actions]
            ends, _end = _fold(start, lanes, t0 + horizon)
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
        levels = snapshot.plan.model.act(snapshot.levels, action)
        if levels is None:
            return None
        until = snapshot.now + stage_s
        (energy,), index = _fold(snapshot, [levels], until)
        self.branches_run += 1
        return energy - snapshot.energy, _LaneState(
            snapshot.plan, index, until, energy, levels,
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
