"""The snapshot-capable goal rig: timer-driven apps on one stack.

The generator-based applications in :mod:`repro.apps` cannot cross a
snapshot boundary (live frames are not serializable), so this rig is
built *entirely* from timer-driven state machines.  Each
:class:`PulsedApp` runs periodic bursts.  Pulse *timing* is
fidelity-independent — adaptation changes joules, never the event
timeline — which keeps decision instants aligned across policies and
makes ``repro diff`` windows exact.

The rig's scenario knobs are declared once, in :data:`KNOBS`: name,
default, type and recording rule.  :func:`pulse_params` turns given
knobs into the recorded params (the snapshot identity), and
:func:`build_pulse_scenario` builds from those alone.

Every stateful object registers with the simulator under a stable key
and the simulator carries a builder reference, so
:meth:`repro.snapshot.state.Snapshot.capture` can checkpoint the whole
stack at any instant and :meth:`~repro.snapshot.state.Snapshot.fork`
can branch it — the substrate for warm-started fleet sweeps
(:mod:`repro.snapshot.warm`).  Lookahead what-if evaluation
(:mod:`repro.snapshot.lookahead`) reads the live stack instead.

Sizing
------
With the default 2 400 J and the pulse wattages below, the full-
fidelity stack survives ~249 s and the floor-fidelity stack ~338 s;
the default 290 s goal sits mid-bracket (the same placement the golden
scenarios use), so a run both degrades early and upgrades late.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "PulsedApp",
    "PulseScenario",
    "build_pulse_scenario",
    "pulse_params",
    "Knob",
    "KNOBS",
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


class PulsedApp:
    """An adaptive application as a timer-driven state machine.

    Every ``period`` seconds the app works one burst of ``duty *
    period`` seconds: it pushes its attribution context (procedure
    ``"pulse"``) and raises its component to the wattage of the current
    fidelity level, then drops both at the burst's end.  Fidelity
    changes take effect immediately (mid-burst included) but never move
    an edge.

    Implements the :class:`~repro.core.priority.PriorityLadder` protocol
    (``can_degrade``/``degrade``/...) and the snapshot protocol.
    """

    def __init__(self, sim, machine, name, component, levels, priority,
                 period, duty, offset=0.0):
        if not 0.0 < duty < 1.0:
            raise ValueError(f"{name}: duty {duty} outside (0, 1)")
        self.sim = sim
        self.machine = machine
        self.name = name
        self.component = component
        self.levels = [level for level, _watts in levels]
        self.priority = priority
        self.period = period
        self.duty = duty
        self.offset = offset
        self.level_index = 0
        self._started = False
        self._active = False
        self._token = None
        self._entry = None

    @property
    def burst(self):
        return self.duty * self.period

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
    # pulse state machine
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        self._entry = self.sim.schedule(self.offset, self._begin)

    def _begin(self, _time):
        self._active = True
        self._token = self.machine.push_context(self.name, "pulse")
        self.component.set_state(self.fidelity_level)
        self._entry = self.sim.schedule(self.burst, self._end)

    def _end(self, _time):
        self.component.set_state("idle")
        self.machine.pop_context(self._token)
        self._token = None
        self._active = False
        self._entry = self.sim.schedule(self.period - self.burst,
                                        self._begin)

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def __snapshot__(self, ctx):
        # One pending transition at most: the burst end while active,
        # the next burst begin while resting.
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
        # component is attached); only the pulse bookkeeping lives here.
        self._started = bool(state["started"])
        self._active = bool(state["active"])
        self.level_index = int(state["level_index"])
        self._token = state["token"]
        self.priority = state["priority"]
        for when, seq, kind in ctx.events():
            callback = {"begin": self._begin, "end": self._end}[kind]
            self._entry = ctx.push(when, seq, callback)


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
        if until is None:
            # A stop leaves the span since the last event to the resumed
            # run, which adds it as the uninterrupted run does.
            self.machine.advance()
        return self

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


class Knob(NamedTuple):
    """One pulse-rig scenario knob: the one declaration the builder,
    the policy matrix and ``repro trace goal`` all read.

    ``kind`` is the value's type (the policy matrix parses spec text
    with it); ``group`` says whether the knob sizes the shared
    ``"scenario"``, varies the ``"policy"``, or describes the
    ``"device"`` and its power model; ``record`` is the recording rule
    of :func:`pulse_params`; ``canon`` maps a given value to its JSON
    form.
    """

    name: str
    default: object
    kind: type
    group: str
    record: str = "set"
    canon: object = None


def _device_record(device):
    from repro.devices.profile import DeviceProfile

    if not isinstance(device, DeviceProfile):
        device = DeviceProfile.from_dict(device)
    return device.to_dict()


def _drift_record(drift):
    from repro.devices.calibrate import parse_drift

    return list(parse_drift(drift))


#: The pulse rig's scenario knobs, in recording order.
KNOBS = {knob.name: knob for knob in (
    Knob("goal_seconds", DEFAULT_GOAL_SECONDS, float, "scenario", "always"),
    Knob("initial_energy", DEFAULT_INITIAL_ENERGY_J, float, "scenario",
         "always"),
    Knob("decision_period", 0.5, float, "policy", "always"),
    Knob("halflife_fraction", 0.10, float, "policy", "always"),
    Knob("upgrade_min_interval", 15.0, float, "policy", "always"),
    Knob("sample_period", 0.1, float, "scenario", "always"),
    Knob("lookahead", False, bool, "policy", "always"),
    Knob("horizon", 12.0, float, "policy", "always"),
    # beam_width >= 1 (with lookahead) selects the beam planner.
    Knob("beam_width", 0, int, "policy"),
    Knob("beam_depth", 2, int, "policy", "beam_width"),
    # The trigger's hysteresis margins; unset keeps the controller's.
    Knob("variable_fraction", None, float, "policy"),
    Knob("constant_fraction", None, float, "policy"),
    Knob("device", None, dict, "device", canon=_device_record),
    Knob("learned_model", False, bool, "device"),
    Knob("drift", None, list, "device", canon=_drift_record),
)}


def pulse_params(**knobs):
    """The recorded params of a pulse build: its snapshot identity.

    The eight ``"always"`` knobs are always recorded, ``beam_depth``
    exactly when ``beam_width`` is, and every other knob only when set
    (given and not its default), so a new knob never moves an existing
    snapshot key.  Values are recorded as given, never coerced:
    ``goal_seconds=90`` and ``90.0`` are different scenarios to the
    snapshot store, the fleet cache and the matrix memo.  Only a device
    (a :class:`~repro.devices.DeviceProfile` or its dict) and a drift
    (``"AT:FACTOR"`` or ``(at, factor)``) take their JSON form.

    Raises :class:`TypeError` on an unknown knob and
    :class:`ValueError` on params the rig cannot build: a dependent
    knob set without the knob it needs, a beam without ``lookahead``,
    or ``learned_model``/``drift`` with it (lookahead lanes model
    neither the gauge and calibrator nor the drift event).
    """
    unknown = knobs.keys() - KNOBS.keys()
    if unknown:
        raise TypeError(f"unknown pulse scenario knob(s): "
                        f"{', '.join(sorted(unknown))}")
    params = {}
    for name, knob in KNOBS.items():
        value = knobs.get(name, knob.default)
        if (knob.record == "always" or knob.record in params
                or (knob.record == "set" and value != knob.default)):
            params[name] = knob.canon(value) if knob.canon else value
        elif value != knob.default:
            raise ValueError(f"{name}={value!r} needs {knob.record}")
    if "beam_width" in params and not params["lookahead"]:
        raise ValueError("beam_width needs lookahead: the beam planner is "
                         "a lookahead controller")
    for name, why in (("learned_model", "lanes cannot model the "
                                        "gauge/calibrator stack"),
                      ("drift", "lanes cannot model the scheduled drift "
                                "event")):
        if name in params and params["lookahead"]:
            raise ValueError(f"{name} does not combine with lookahead: "
                             f"{why}")
    return params


def build_pulse_scenario(tracer=None, metrics=None, **knobs):
    """Build the pulse stack, never started, fully registered.

    ``knobs`` are the scenario knobs of :data:`KNOBS`, defaults there.
    The stack is built from :func:`pulse_params` alone, so a build and
    a :meth:`Snapshot.restore` of it are the same stack.  ``tracer`` and
    ``metrics`` are runtime environment, not identity: a branch forked
    with a private tracer still shares its parent's snapshot key.

    ``device`` makes the *physical* machine deviate from the nominal
    table (component wattages scale by the profile's multipliers, the
    battery by its capacity scale) while the controller keeps believing
    the nominal ``initial_energy``.  ``learned_model`` feeds the
    controller a :class:`SmartBatteryGauge` + :class:`OnlineCalibrator`
    model instead of ground truth, and ``drift`` scales the real
    wattages mid-run.
    """
    from repro.core.goal import GoalDirectedController
    from repro.core.viceroy import Viceroy
    from repro.hardware.battery import Battery
    from repro.hardware.component import PowerComponent
    from repro.hardware.machine import Machine
    from repro.obs.metrics import MetricsRegistry
    from repro.powerscope.online import OnlinePowerMonitor
    from repro.sim import Simulator

    params = pulse_params(**knobs)
    profile = None
    if "device" in params:
        from repro.devices.profile import DeviceProfile

        profile = DeviceProfile.from_dict(params["device"])
    battery_scale = profile.battery_scale if profile is not None else 1.0
    sim = Simulator(tracer=tracer)
    battery = Battery(params["initial_energy"] * battery_scale)
    # Without ``metrics`` the machine gets a fresh registry, which the
    # viceroy (and calibrator) share.
    machine = Machine(
        sim, battery, profile=profile,
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    machine.attach(PowerComponent("platform", {"on": PLATFORM_WATTS}, "on"))

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
    apps = [viewer, sync]

    gauge = None
    calibrator = None
    if "learned_model" in params:
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
    if "drift" in params:
        from repro.devices.calibrate import schedule_drift

        schedule_drift(sim, machine, *params["drift"], tracer=tracer)
    if calibrator is None:
        monitor = OnlinePowerMonitor(machine, period=params["sample_period"])

    viceroy = Viceroy(sim, machine=machine, metrics=machine.metrics)
    for app in apps:
        viceroy.register_application(app)
    # The controller: the beam planner when ``beam_width`` is recorded,
    # the two-branch lookahead under ``lookahead``, else the plain
    # goal-directed controller.
    options = {name: params[name] for name in (
        "halflife_fraction", "decision_period", "upgrade_min_interval")}
    options.update((name, params[name]) for name in (
        "variable_fraction", "constant_fraction") if name in params)
    controller_cls = GoalDirectedController
    if params["lookahead"]:
        from repro.snapshot import lookahead

        options["horizon"] = params["horizon"]
        controller_cls = lookahead.LookaheadGoalController
        if "beam_width" in params:
            options.update(beam_width=params["beam_width"],
                           beam_depth=params["beam_depth"])
            controller_cls = lookahead.BeamLookaheadController
    controller = controller_cls(viceroy, monitor, params["initial_energy"],
                                params["goal_seconds"], **options)

    # The registration order fixes the order of a payload's ``events``
    # and of restores, so it never changes.  The gauge/calibrator feed
    # is not snapshot-capable (and a learned model excludes lookahead);
    # the ground-truth monitor keeps its slot on every other build.
    sim.register_snapshottable("machine", machine)
    sim.register_snapshottable("battery", battery)
    if calibrator is None:
        sim.register_snapshottable("monitor", monitor)
    sim.register_snapshottable("viceroy", viceroy)
    sim.register_snapshottable("controller", controller)
    for app in apps:
        sim.register_snapshottable(f"app.{app.name}", app)
    sim.snapshot_builder = (BUILDER_PATH, params)
    return PulseScenario(sim, machine, battery, monitor, viceroy, controller,
                         apps, params, gauge=gauge, calibrator=calibrator)


def run_pulse_goal(**params):
    """Build, start, run to the goal, and return the summary dict."""
    scenario = build_pulse_scenario(**params)
    scenario.start()
    scenario.run()
    return scenario.summary()
