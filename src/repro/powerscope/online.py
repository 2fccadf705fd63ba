"""On-line PowerScope: the power feed for goal-directed adaptation.

Section 5.1.1 of the paper: "Odyssey measures power with an on-line
version of PowerScope, using samples collected every 100 milliseconds.
At each sample, Odyssey calculates residual energy, assuming a known
initial value and constant power consumption between samples."

The :class:`OnlinePowerMonitor` samples the machine's power on that
cadence and pushes each reading to subscribers (the viceroy's energy
supply accounting and demand predictor).

Fused sampling
--------------
Sampling every 100 ms makes the monitor tick the hottest event in a
goal run.  When a bounded run is in charge (``sim.run(until=...)`` or
the pulse scenario's step loop), power is piecewise constant, and the single
subscriber is the goal controller's sample hook, consecutive ticks up
to the next foreign heap event are arithmetically independent of any
other code — so :meth:`OnlinePowerMonitor._tick` computes them in one
tight loop over local variables and writes the results back at batch
end.  The loop performs the *same float operations in the same order*
as the per-event path (one sequence number per tick included), so
fused and unfused runs are byte-identical — the golden-trace and
snapshot determinism suites pin this down.

Open-loop runs: no ticks at all
-------------------------------
A lookahead branch makes no decisions, so nothing reads its samples
before it ends; its ticks matter only because each one advances the
machine, splitting the float sums of ``energy_total`` and the battery
drain at the tick's instant.  :meth:`OnlinePowerMonitor.hand_off_ticks`
cancels the pending tick and hands the grid ``(instant, period)`` to
the machine, whose :meth:`~repro.hardware.machine.Machine.advance`
then integrates at every grid instant it passes with the tick's own
float operations; :meth:`OnlinePowerMonitor.take_back_ticks` re-pushes
the tick at the grid's next instant.  The sums, the journal and so the
branch verdicts stay bit-identical to a ticking branch
(``tests/test_lookahead_grid.py``).
"""

from __future__ import annotations

import heapq
import math

__all__ = ["OnlinePowerMonitor"]

# Resolved lazily: repro.core.odyssey imports this module, so a
# module-level import of repro.core here would cycle; so would one of
# repro.hardware (hardware.machine -> sim -> obs -> powerscope -> here).
_GOAL_SAMPLE_HOOK = None
_SUPPLY_TYPE = None
_PREDICTOR_TYPE = None
_MACHINE_TYPE = None
_BATTERY_TYPE = None


def _resolve_fuse_types():
    global _GOAL_SAMPLE_HOOK, _SUPPLY_TYPE, _PREDICTOR_TYPE
    global _MACHINE_TYPE, _BATTERY_TYPE
    from repro.core.demand import DemandPredictor
    from repro.core.goal import GoalDirectedController
    from repro.core.supply import EnergySupply
    from repro.hardware.battery import Battery
    from repro.hardware.machine import Machine

    _GOAL_SAMPLE_HOOK = GoalDirectedController._on_power_sample
    _SUPPLY_TYPE = EnergySupply
    _PREDICTOR_TYPE = DemandPredictor
    _MACHINE_TYPE = Machine
    _BATTERY_TYPE = Battery


class OnlinePowerMonitor:
    """Periodic power sampler with subscriber callbacks.

    Subscribers receive ``(time, watts, dt)`` where ``dt`` is the time
    since the previous sample — the integration interval for residual
    energy accounting.
    """

    def __init__(self, machine, period=0.1):
        if period <= 0:
            raise ValueError(f"sampling period must be positive, got {period}")
        self.machine = machine
        self.sim = machine.sim
        self.period = period
        self.subscribers = []
        self.last_power = 0.0
        self._running = False
        self._last_sample_time = None
        self._entry = None
        # Fused-path static-check cache: the identity-keyed conditions
        # (subscriber hook, supply/predictor types, machine type) are
        # re-verified only when one of the keyed objects changes.
        self._fuse_key = None
        self._fuse_static = False
        tracer = getattr(self.sim, "tracer", None)
        self._trace = tracer.gate("powerscope") if tracer is not None else None

    def subscribe(self, callback):
        """Register ``callback(time, watts, dt)`` for every sample."""
        self.subscribers.append(callback)

    def start(self):
        """Begin sampling."""
        if self._running:
            return
        self._running = True
        self._last_sample_time = self.sim.now
        if self._trace is not None:
            self._trace.instant(
                self.sim.now, "powerscope", "online.start", track="online",
                args={"period": self.period},
            )
        self._entry = self.sim.schedule(self.period, self._tick)

    def stop(self):
        """Stop sampling; the pending tick is cancelled, not orphaned."""
        if not self._running:
            return
        self._running = False
        if self._entry is not None:
            self.sim.cancel(self._entry)
            self._entry = None
        if self._trace is not None:
            self._trace.instant(
                self.sim.now, "powerscope", "online.stop", track="online",
                args={"last_power": self.last_power},
            )

    def hand_off_ticks(self):
        """Stop ticking and let the machine split on the tick grid.

        For open-loop runs, where no subscriber's state is read before
        :meth:`take_back_ticks`: the pending tick is cancelled and its
        instant handed to :meth:`Machine.split_at_grid
        <repro.hardware.machine.Machine.split_at_grid>`, which replays
        the one effect a tick has on the machine's accounts.
        Subscribers receive no samples meanwhile.  Returns whether a
        tick was handed off.
        """
        entry = self._entry
        if not self._running or entry is None:
            return False
        self.sim.cancel(entry)
        self._entry = None
        self.machine.split_at_grid(entry[0], self.period)
        return True

    def take_back_ticks(self):
        """Resume ticking after :meth:`hand_off_ticks`.

        Call at the end of a bounded run, before any capture.  The next
        tick is pushed at exactly the grid's next instant: ``schedule``
        (or ``schedule_at``) would recompute it as ``now + delay`` and
        could round off the grid.
        """
        when, last = self.machine.release_grid()
        if last is not None:
            self._last_sample_time = last
        sim = self.sim
        seq = sim._next_seq
        sim._next_seq = seq + 1
        self._entry = sim.restore_entry(when, seq, self._tick)

    def _tick(self, _time):
        if not self._running:
            return
        machine = self.machine
        machine.advance()
        sim = self.sim
        now = sim.now
        dt = now - self._last_sample_time
        self._last_sample_time = now
        self.last_power = machine.power
        for callback in self.subscribers:
            callback(now, self.last_power, dt)
        if self._fusable(sim, machine):
            self._entry = self._run_fused(sim, machine)
        else:
            self._entry = sim.schedule(self.period, self._tick)

    def _fusable(self, sim, machine):
        """Can upcoming ticks run in the fused fast path?

        Every condition pins an assumption the fused loop bakes in:
        bounded run, no sim-category tracing (fused ticks skip the
        dispatch instants), exactly one subscriber and it is the
        *unmodified* goal-controller hook over the unmodified supply/
        predictor types, a plain machine whose cached power is clean
        and whose open journal segment will keep merging, and an ideal
        supply with no note_power/recover hooks.
        """
        if sim._fuse_until is None or sim._trace is not None:
            return False
        subs = self.subscribers
        if len(subs) != 1:
            return False
        callback = subs[0]
        supply = machine.supply
        ctrl = getattr(callback, "__self__", None)
        if ctrl is None:
            return False
        key = (callback, ctrl.supply, ctrl.predictor)
        if key != self._fuse_key:
            self._fuse_key = key
            self._fuse_static = self._fuse_static_ok(callback, ctrl, machine)
        if not self._fuse_static:
            return False
        predictor = ctrl.predictor
        if ctrl.running and (predictor.smoothed_watts is None
                             or ctrl.goal_time is None):
            return False
        if type(supply) is _BATTERY_TYPE and supply.drawn >= supply.capacity:
            return False
        return machine._advance_extends()

    def _fuse_static_ok(self, callback, ctrl, machine):
        """Identity-stable half of :meth:`_fusable`: the subscriber is
        the unmodified goal-controller hook over unmodified supply and
        predictor types, and the machine is a plain :class:`Machine`
        (whose :meth:`Machine._advance_extends` vets the supply)."""
        if _GOAL_SAMPLE_HOOK is None:
            _resolve_fuse_types()
        if getattr(callback, "__func__", None) is not _GOAL_SAMPLE_HOOK:
            return False
        if type(ctrl.supply) is not _SUPPLY_TYPE:
            return False
        if type(ctrl.predictor) is not _PREDICTOR_TYPE:
            return False
        return type(machine) is _MACHINE_TYPE

    def _run_fused(self, sim, machine):
        """Run consecutive ticks ahead of the event loop; returns the
        pending entry for the first tick that could not be fused.

        Fuses while the next tick precedes every foreign heap event
        (strictly — at an equal instant the earlier-scheduled foreign
        event holds the FIFO tie) and does not pass the bounded-run
        horizon.  Each fused tick replays the exact per-event float
        sequence on locals: machine integration + battery drain, then
        the controller's supply/predictor update, then one sequence
        number for the tick it would have scheduled.  A battery
        reaching exhaustion ends the batch so the driving loop observes
        it at the same instant the per-event path would.
        """
        heap = sim._heap
        cancelled = sim._cancelled
        while heap and cancelled and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        fuse_until = sim._fuse_until
        top = heap[0][0] if heap else None
        # One comparison per tick: a foreign event inside the horizon
        # bounds strictly (the FIFO tie goes to it); otherwise the
        # horizon bounds inclusively, expressed as a strict bound one
        # ulp past it.
        if top is not None and top <= fuse_until:
            limit = top
        else:
            limit = math.nextafter(fuse_until, math.inf)
        period = self.period
        t = sim.now
        next_t = t + period
        controller = self.subscribers[0].__self__

        seq = sim._next_seq
        last_update = machine._last_update
        energy_total = machine.energy_total
        watts = machine._power
        supply = machine.supply
        drawn = supply.drawn
        is_battery = type(supply) is _BATTERY_TYPE
        capacity = supply.capacity if is_battery else 0.0
        sample_t = self._last_sample_time
        running = controller.running
        if running:
            goal_time = controller.goal_time
            halflife_fraction = controller.predictor.halflife_fraction
            consumed = controller.supply.consumed
            smoothed = controller.predictor.smoothed_watts
            samples = controller.predictor.samples_seen

        fused = 0
        if running and is_battery:
            # The dominant shape (goal run on a battery), with the
            # per-tick mode branches hoisted out of the loop.
            while next_t < limit:
                # Machine.advance() at next_t: merge-extend + drain.
                energy = watts * (next_t - last_update)
                last_update = next_t
                energy_total += energy
                drained = drawn + energy
                drawn = capacity if capacity <= drained else drained
                dt = next_t - sample_t
                sample_t = next_t
                # EnergySupply.on_sample + DemandPredictor.update.
                consumed += watts * dt
                samples += 1
                remaining = goal_time - next_t
                if remaining < 0.0:
                    remaining = 0.0
                halflife = halflife_fraction * remaining
                if halflife <= 0.0:
                    alpha = 0.0
                else:
                    alpha = 0.5 ** (dt / halflife)
                smoothed = (1.0 - alpha) * watts + alpha * smoothed
                seq += 1  # the schedule() this tick would have issued
                fused += 1
                t = next_t
                next_t = t + period
                if drawn >= capacity:
                    break
        else:
            while next_t < limit:
                energy = watts * (next_t - last_update)
                last_update = next_t
                energy_total += energy
                if is_battery:
                    drained = drawn + energy
                    drawn = capacity if capacity <= drained else drained
                else:
                    drawn += energy
                dt = next_t - sample_t
                sample_t = next_t
                if running:
                    consumed += watts * dt
                    samples += 1
                    remaining = goal_time - next_t
                    if remaining < 0.0:
                        remaining = 0.0
                    halflife = halflife_fraction * remaining
                    if halflife <= 0.0:
                        alpha = 0.0
                    else:
                        alpha = 0.5 ** (dt / halflife)
                    smoothed = (1.0 - alpha) * watts + alpha * smoothed
                seq += 1
                fused += 1
                t = next_t
                next_t = t + period
                if is_battery and drawn >= capacity:
                    break

        if fused:
            sim.now = t
            sim._next_seq = seq
            machine._last_update = t
            machine.energy_total = energy_total
            supply.drawn = drawn
            machine._journal[-1].t1 = t
            self._last_sample_time = t
            if running:
                controller.supply.consumed = consumed
                predictor = controller.predictor
                predictor.smoothed_watts = smoothed
                predictor.samples_seen = samples
        return sim.schedule(period, self._tick)

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        ctx.claim(self._entry, "tick")
        return {
            "running": self._running,
            "last_power": self.last_power,
            "last_sample_time": self._last_sample_time,
        }

    def __restore__(self, state, ctx):
        # Subscribers are re-wired by whoever subscribed (the goal
        # controller's __restore__), not serialized as callables.
        self._running = bool(state["running"])
        self.last_power = state["last_power"]
        self._last_sample_time = state["last_sample_time"]
        for when, seq, kind in ctx.events():
            if kind != "tick":
                raise ValueError(f"unexpected monitor event kind {kind!r}")
            self._entry = ctx.push(when, seq, self._tick)
