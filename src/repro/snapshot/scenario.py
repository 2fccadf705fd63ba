"""The snapshot-capable goal rigs: timer-driven apps on one stack.

The generator-based applications in :mod:`repro.apps` cannot cross a
snapshot boundary (live frames are not serializable), so these rigs are
built *entirely* from timer-driven state machines.  :class:`TimedApp`
is the one app state machine: work an item with the app's component at
the current fidelity wattage, rest, repeat.  Two rigs share it and one
stack assembly (``_assemble`` and ``_register`` below):

* the pulse rig, :func:`build_pulse_scenario`: each :class:`PulsedApp`
  runs periodic bursts.  Pulse *timing* is fidelity-independent —
  adaptation changes joules, never the event timeline — which keeps
  decision instants aligned across policies and makes ``repro diff``
  windows exact;
* the Section 5 item rig, :mod:`repro.snapshot.workload`.

Every stateful object registers with the simulator under a stable key
and the simulator carries a builder reference, so
:meth:`repro.snapshot.state.Snapshot.capture` can checkpoint the whole
stack at any instant and :meth:`~repro.snapshot.state.Snapshot.fork`
can branch it — the substrate for lookahead what-if evaluation
(:mod:`repro.snapshot.lookahead`) and warm-started fleet sweeps
(:mod:`repro.snapshot.warm`).

Sizing
------
With the default 2 400 J and the pulse wattages below, the full-
fidelity stack survives ~249 s and the floor-fidelity stack ~338 s;
the default 290 s goal sits mid-bracket (the same placement the golden
scenarios use), so a run both degrades early and upgrades late.
"""

from __future__ import annotations

from repro.core.goal import GoalDirectedController
from repro.core.viceroy import Viceroy
from repro.hardware.battery import Battery
from repro.hardware.component import PowerComponent
from repro.hardware.machine import Machine
from repro.obs.metrics import MetricsRegistry
from repro.powerscope.online import OnlinePowerMonitor
from repro.sim import Simulator

__all__ = [
    "TimedApp",
    "PulsedApp",
    "PulseScenario",
    "build_pulse_scenario",
    "run_pulse_goal",
    "BUILDER_PATH",
    "DEFAULT_GOAL_SECONDS",
    "DEFAULT_INITIAL_ENERGY_J",
]

BUILDER_PATH = "repro.snapshot.scenario.build_pulse_scenario"

DEFAULT_GOAL_SECONDS = 290.0
DEFAULT_INITIAL_ENERGY_J = 2_400.0

#: Background draw (display dim + standbys), the paper's 5.6 W floor.
PLATFORM_WATTS = 5.6


class TimedApp:
    """An adaptive application as a timer-driven state machine.

    Alternates work items and rests: each item pushes the app's
    attribution context, raises its component to the wattage of the
    current fidelity level for the item's duration, and drops both at
    item end; the rest then spaces the next item.  Fidelity changes take
    effect immediately (mid-item included) but never move an edge.

    Subclasses supply the timing through two hooks: ``_next_item()``
    returns ``(duration, context label)`` for the item about to begin,
    and ``_rest()`` the delay from an item's end to the next begin.

    Implements the :class:`~repro.core.priority.PriorityLadder` protocol
    (``can_degrade``/``degrade``/...) and the snapshot protocol.
    """

    def __init__(self, sim, machine, name, component, levels, priority,
                 offset=0.0):
        self.sim = sim
        self.machine = machine
        self.name = name
        self.component = component
        self.levels = [level for level, _watts in levels]
        self.priority = priority
        self.offset = offset
        self.level_index = 0
        self._started = False
        self._active = False
        self._token = None
        self._entry = None

    # ------------------------------------------------------------------
    # priority-ladder protocol
    # ------------------------------------------------------------------
    def can_degrade(self):
        return self.level_index < len(self.levels) - 1

    def can_upgrade(self):
        return self.level_index > 0

    def degrade(self):
        if not self.can_degrade():
            raise ValueError(f"{self.name} already at lowest fidelity")
        self.level_index += 1
        self._apply_level()
        return self.fidelity_level

    def upgrade(self):
        if not self.can_upgrade():
            raise ValueError(f"{self.name} already at highest fidelity")
        self.level_index -= 1
        self._apply_level()
        return self.fidelity_level

    def _apply_level(self):
        if self._active:
            self.component.set_state(self.fidelity_level)

    @property
    def fidelity_level(self):
        return self.levels[self.level_index]

    @property
    def fidelity_normalized(self):
        if len(self.levels) == 1:
            return 1.0
        return 1.0 - self.level_index / (len(self.levels) - 1)

    # ------------------------------------------------------------------
    # item state machine
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        self._entry = self.sim.schedule(self.offset, self._begin)

    def _begin(self, _time):
        duration, label = self._next_item()
        self._active = True
        self._token = self.machine.push_context(self.name, label)
        self.component.set_state(self.fidelity_level)
        self._entry = self.sim.schedule(duration, self._end)

    def _end(self, _time):
        self.component.set_state("idle")
        self.machine.pop_context(self._token)
        self._token = None
        self._active = False
        self._entry = self.sim.schedule(self._rest(), self._begin)

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        # One pending transition at most: the item end while active,
        # the next item begin while resting.
        ctx.claim(self._entry, "end" if self._active else "begin")
        return {
            "started": self._started,
            "active": self._active,
            "level_index": self.level_index,
            "token": self._token,
            "priority": self.priority,
        }

    def __restore__(self, state, ctx):
        # The component's power state is restored by the machine (the
        # component is attached); only the item bookkeeping lives here.
        self._started = bool(state["started"])
        self._active = bool(state["active"])
        self.level_index = int(state["level_index"])
        self._token = state["token"]
        self.priority = state["priority"]
        for when, seq, kind in ctx.events():
            callback = {"begin": self._begin, "end": self._end}[kind]
            self._entry = ctx.push(when, seq, callback)


class PulsedApp(TimedApp):
    """A :class:`TimedApp` whose items are periodic pulses: one burst of
    ``duty * period`` seconds, labelled ``"pulse"``, every ``period``."""

    def __init__(self, sim, machine, name, component, levels, priority,
                 period, duty, offset=0.0):
        if not 0.0 < duty < 1.0:
            raise ValueError(f"{name}: duty {duty} outside (0, 1)")
        super().__init__(sim, machine, name, component, levels, priority,
                         offset)
        self.period = period
        self.duty = duty

    @property
    def burst(self):
        return self.duty * self.period

    def _next_item(self):
        return self.burst, "pulse"

    def _rest(self):
        return self.period - self.burst


class PulseScenario:
    """The assembled stack: machine + monitor + viceroy + controller."""

    def __init__(self, sim, machine, battery, monitor, viceroy, controller,
                 apps, params, gauge=None, calibrator=None):
        self.sim = sim
        self.machine = machine
        self.battery = battery
        self.monitor = monitor
        self.viceroy = viceroy
        self.controller = controller
        self.apps = apps
        self.params = params
        self.gauge = gauge
        self.calibrator = calibrator
        self.failed_at = None

    def start(self):
        """Start the workload pulses and the goal controller."""
        for app in self.apps:
            app.start()
        self.controller.start()
        return self

    def extend(self, extra_seconds, extra_energy=0.0):
        """Revise the goal mid-run: later deadline, larger reservoir.

        The controller's accounting and the physical battery move
        together — extending the goal without growing the battery
        would just relocate the exhaustion instant.
        """
        self.controller.extend_goal(extra_seconds, extra_energy)
        if extra_energy:
            self.battery.charge(extra_energy)
        return self

    def run(self, until=None):
        """Step to the goal instant (or ``until``), exact at the end.

        Stops early on battery exhaustion, recording ``failed_at``.
        """
        target = until if until is not None else self.controller.goal_time
        if target is None:
            target = self.params["goal_seconds"]
        sim = self.sim
        # Mark the bounded run so the monitor may fuse tick batches;
        # exhaustion still surfaces at the exact per-event instant (a
        # fused batch ends the moment the battery clamps).
        previous = sim._fuse_until
        sim._fuse_until = target
        try:
            while self.failed_at is None:
                next_at = sim.peek()
                if next_at is None or next_at > target:
                    break
                sim.step()
                if self.battery.exhausted:
                    self.failed_at = sim.now
        finally:
            sim._fuse_until = previous
        if self.failed_at is None:
            sim.run(until=target)
        self.machine.advance()
        return self

    def prepare_reuse(self):
        """Reset run-level state so :meth:`Snapshot.restore` can reuse
        this scenario in place of a fresh build (branch pooling).

        Only clears what ``__restore__`` does not overwrite: the event
        heap (restore re-pushes every claimed entry), its tombstones,
        and the exhaustion flag.
        """
        sim = self.sim
        sim._heap.clear()
        sim._cancelled.clear()
        self.failed_at = None

    def summary(self):
        """JSON-shaped outcome record (the fleet task return value)."""
        record = dict(self.controller.summary())
        record.update({
            "goal_met": self.failed_at is None,
            "survived_seconds": (
                self.failed_at if self.failed_at is not None else self.sim.now
            ),
            "energy_total_j": self.machine.energy_total,
            "battery_residual_j": max(0.0, self.battery.residual),
            "fidelity": {app.name: app.fidelity_level for app in self.apps},
        })
        lookahead = getattr(self.controller, "lookahead_summary", None)
        if lookahead is not None:
            record["lookahead"] = lookahead()
        if self.calibrator is not None:
            record["calibration"] = self.calibrator.summary()
        return record


def build_pulse_scenario(goal_seconds=DEFAULT_GOAL_SECONDS,
                         initial_energy=DEFAULT_INITIAL_ENERGY_J,
                         decision_period=0.5, halflife_fraction=0.10,
                         upgrade_min_interval=15.0, sample_period=0.1,
                         lookahead=False, horizon=12.0,
                         beam_width=0, beam_depth=2,
                         variable_fraction=None, constant_fraction=None,
                         device=None, learned_model=False, drift=None,
                         tracer=None, metrics=None):
    """Build the pulse stack, never started, fully registered.

    ``tracer``/``metrics`` are runtime environment, not scenario
    identity: they are excluded from the recorded builder params, so a
    branch forked with a private tracer still shares its parent's
    snapshot key.

    ``beam_width`` >= 1 with ``lookahead`` selects the beam-search
    controller (see :class:`repro.snapshot.lookahead
    .BeamLookaheadController`); 0 keeps the two-branch evaluator.

    ``variable_fraction``/``constant_fraction`` override the trigger's
    hysteresis margins when given (``0.0``/``0.0`` disables hysteresis
    — the policy-matrix axis); ``None`` keeps the controller defaults.

    ``device`` (a :class:`~repro.devices.DeviceProfile` or its dict)
    makes the *physical* machine deviate from the nominal table —
    component wattages scale by the profile's multipliers and the
    battery by its capacity scale — while the controller keeps
    believing the nominal ``initial_energy``; the gap is the
    miscalibration under test.  ``learned_model`` replaces the
    ground-truth monitor with a :class:`SmartBatteryGauge` +
    :class:`OnlineCalibrator` feed (the controller sees only what the
    learned model predicts).  ``drift`` (``"AT:FACTOR"`` or
    ``(at, factor)``) scales the real wattages mid-run.  All three are
    recorded in the builder params only when set, so default payloads,
    snapshot keys, and goldens are unchanged.
    """
    params = {
        "goal_seconds": goal_seconds,
        "initial_energy": initial_energy,
        "decision_period": decision_period,
        "halflife_fraction": halflife_fraction,
        "upgrade_min_interval": upgrade_min_interval,
        "sample_period": sample_period,
        "lookahead": lookahead,
        "horizon": horizon,
    }
    # Recorded only when the beam is on: default payloads — and the
    # snapshot keys and goldens derived from them — stay byte-identical
    # to the pre-beam format.
    if beam_width:
        params["beam_width"] = beam_width
        params["beam_depth"] = beam_depth
    # Same pattern for the hysteresis overrides: recorded (and passed
    # through) only when explicitly set, so default scenario payloads
    # and snapshot keys are unchanged.
    hysteresis = {}
    if variable_fraction is not None:
        params["variable_fraction"] = variable_fraction
        hysteresis["variable_fraction"] = variable_fraction
    if constant_fraction is not None:
        params["constant_fraction"] = constant_fraction
        hysteresis["constant_fraction"] = constant_fraction
    profile = None
    if device is not None:
        from repro.devices.profile import DeviceProfile

        profile = (device if isinstance(device, DeviceProfile)
                   else DeviceProfile.from_dict(device))
        params["device"] = profile.to_dict()
    if learned_model:
        if lookahead or beam_width:
            raise ValueError(
                "learned_model does not combine with lookahead: the "
                "gauge/calibrator stack is not snapshot-capable"
            )
        params["learned_model"] = True
    drift_spec = None
    if drift is not None:
        if lookahead or beam_width:
            raise ValueError(
                "drift does not combine with lookahead: the scheduled "
                "drift event is not snapshot-claimable"
            )
        from repro.devices.calibrate import parse_drift

        drift_spec = parse_drift(drift)
        params["drift"] = list(drift_spec)
    battery_scale = profile.battery_scale if profile is not None else 1.0
    sim, battery, machine = _assemble(initial_energy * battery_scale,
                                      tracer, metrics, profile)

    # Nominal (believed) tables, held apart from the attached
    # components: Machine.attach rescales the component's own states
    # under a device profile, and the calibrator must regress against
    # what the controller *believes*, not against reality.
    codec_levels = [("full", 4.2), ("reduced", 3.0), ("half", 2.1),
                    ("min", 1.3)]
    radio_levels = [("fast", 2.6), ("slow", 1.7), ("trickle", 1.0)]
    codec_table = dict({"idle": 0.35}, **dict(codec_levels))
    radio_table = dict({"idle": 0.18}, **dict(radio_levels))

    codec = machine.attach(PowerComponent("codec", codec_table, "idle"))
    radio = machine.attach(PowerComponent("radio", radio_table, "idle"))
    viewer = PulsedApp(sim, machine, "viewer", codec, codec_levels,
                       priority=2, period=4.0, duty=0.6, offset=0.0)
    sync = PulsedApp(sim, machine, "sync", radio, radio_levels,
                     priority=1, period=6.0, duty=0.5, offset=1.0)

    gauge = None
    calibrator = None
    if learned_model:
        from repro.devices.calibrate import (CalibratedPowerFeed,
                                             OnlineCalibrator)
        from repro.powerscope.smartbattery import SmartBatteryGauge

        gauge = SmartBatteryGauge(
            machine,
            period=profile.gauge_period if profile else 1.0,
            resolution_w=profile.gauge_resolution_w if profile else 0.25,
            noise_w=profile.gauge_noise_w if profile else 0.0,
            noise_seed=profile.device_id if profile else 0,
        )
        calibrator = OnlineCalibrator(
            machine, gauge,
            nominal={"platform": {"on": PLATFORM_WATTS},
                     "codec": codec_table, "radio": radio_table},
            tracer=tracer, metrics=machine.metrics,
        )
        monitor = CalibratedPowerFeed(calibrator)
    else:
        monitor = OnlinePowerMonitor(machine, period=sample_period)
    if drift_spec is not None:
        from repro.devices.calibrate import schedule_drift

        schedule_drift(sim, machine, drift_spec[0], drift_spec[1],
                       tracer=tracer)
    viceroy = Viceroy(sim, machine=machine, metrics=machine.metrics)
    viceroy.register_application(viewer)
    viceroy.register_application(sync)
    if lookahead and beam_width:
        from repro.snapshot.lookahead import BeamLookaheadController

        controller = BeamLookaheadController(
            viceroy, monitor, initial_energy, goal_seconds,
            halflife_fraction=halflife_fraction,
            decision_period=decision_period,
            upgrade_min_interval=upgrade_min_interval,
            horizon=horizon,
            beam_width=beam_width, beam_depth=beam_depth,
            **hysteresis,
        )
    elif lookahead:
        from repro.snapshot.lookahead import LookaheadGoalController

        controller = LookaheadGoalController(
            viceroy, monitor, initial_energy, goal_seconds,
            halflife_fraction=halflife_fraction,
            decision_period=decision_period,
            upgrade_min_interval=upgrade_min_interval,
            horizon=horizon,
            **hysteresis,
        )
    else:
        controller = GoalDirectedController(
            viceroy, monitor, initial_energy, goal_seconds,
            halflife_fraction=halflife_fraction,
            decision_period=decision_period,
            upgrade_min_interval=upgrade_min_interval,
            **hysteresis,
        )

    return _register(sim, BUILDER_PATH, params, machine, battery, monitor,
                     viceroy, controller, [viewer, sync], gauge=gauge,
                     calibrator=calibrator)


def _assemble(capacity, tracer, metrics, profile=None):
    """Simulator, battery and machine, with the platform draw attached.

    Without ``metrics`` the machine gets a fresh registry; the builders
    hand ``machine.metrics`` on to the viceroy (and calibrator).
    """
    sim = Simulator(tracer=tracer)
    battery = Battery(capacity)
    machine = Machine(
        sim, battery, profile=profile,
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    machine.attach(PowerComponent("platform", {"on": PLATFORM_WATTS}, "on"))
    return sim, battery, machine


def _register(sim, builder_path, params, machine, battery, monitor, viceroy,
              controller, apps, gauge=None, calibrator=None):
    """Register every snapshottable, stamp the builder, wrap the stack.

    The registration order fixes the order of a payload's ``events``
    and of restores, so it never changes.  The gauge/calibrator feed is
    not snapshot-capable (and a learned model excludes lookahead); the
    ground-truth monitor keeps its slot on every other build.
    """
    sim.register_snapshottable("machine", machine)
    sim.register_snapshottable("battery", battery)
    if calibrator is None:
        sim.register_snapshottable("monitor", monitor)
    sim.register_snapshottable("viceroy", viceroy)
    sim.register_snapshottable("controller", controller)
    for app in apps:
        sim.register_snapshottable(f"app.{app.name}", app)
    sim.snapshot_builder = (builder_path, params)
    return PulseScenario(sim, machine, battery, monitor, viceroy, controller,
                         apps, params, gauge=gauge, calibrator=calibrator)


def run_pulse_goal(**params):
    """Build, start, run to the goal, and return the summary dict."""
    scenario = build_pulse_scenario(**params)
    scenario.start()
    scenario.run()
    return scenario.summary()
