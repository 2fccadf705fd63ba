"""Open-loop lookahead branches fold as lanes, bit-identical to forks.

A what-if asked inside the trunk's decision callback decides nothing
over its horizon, so :mod:`repro.snapshot.lookahead` folds each
candidate as a lane over the trunk's fixed schedule of pulse edges and
monitor sample instants instead of forking the stack.  A lane must
reproduce every float operation of a forked branch that ticks, so
branch joules are bit-identical; the digests below were recorded from
forked branches.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hysteresis import DEGRADE, HOLD, UPGRADE
from repro.devices import generate_fleet
from repro.devices.calibrate import schedule_drift
from repro.obs import Tracer, installed
from repro.powerscope.online import OnlinePowerMonitor
from repro.snapshot import Snapshot, SnapshotError
from repro.snapshot.lookahead import BeamLookaheadController, WhatIfEvaluator
from repro.snapshot.scenario import (PulsedApp, build_pulse_scenario,
                                     run_pulse_goal)

DEVICES = [None] + [device.to_dict() for device in generate_fleet(4, 7)]


def _drop_decision(scenario):
    """Cancel the pending decision, as a capture taken inside the
    trunk's decision callback has it dropped."""
    controller = scenario.controller
    if controller._entry is not None:
        scenario.sim.cancel(controller._entry)
        controller._entry = None
    return scenario


def _ticking_fork(snapshot, action=HOLD):
    """Fork ``snapshot`` open-loop and apply ``action``; returns the
    fork and whether the action applied."""
    scenario = _drop_decision(snapshot.fork())
    applied = True
    if action == DEGRADE:
        applied = scenario.viceroy.degrade_once() is not None
    elif action == UPGRADE:
        applied = scenario.viceroy.upgrade_once() is not None
    return scenario, applied


def _advance(scenario, horizon):
    """Run a fork ``horizon`` seconds, ticking; return its joules."""
    machine = scenario.machine
    t0 = scenario.sim.now
    start = machine.finish()
    scenario.sim.run(until=t0 + horizon)
    return machine.finish() - start


# Quarter-second multiples put the capture (and, for the coarse
# periods, grid instants) exactly on pulse edges; arbitrary floats
# cover everything between.
capture_times = st.one_of(
    st.integers(1, 800).map(lambda k: k / 4),
    st.floats(0.05, 200.0, allow_nan=False),
)
actions = st.sampled_from([HOLD, DEGRADE, UPGRADE])


@settings(max_examples=40, deadline=None)
@given(
    capture_t=capture_times,
    device=st.sampled_from(DEVICES),
    stage_actions=st.tuples(actions, actions),
    horizon=st.one_of(st.integers(1, 48).map(lambda k: k / 4),
                      st.floats(0.01, 15.0, allow_nan=False)),
    sample_period=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_lanes_match_live_ticks(capture_t, device, stage_actions, horizon,
                                sample_period):
    trunk = build_pulse_scenario(sample_period=sample_period, device=device)
    trunk.start()
    trunk.sim.run(until=capture_t)
    snapshot = Snapshot.capture(_drop_decision(trunk).sim)
    evaluator = WhatIfEvaluator(trunk.sim, horizon=horizon)
    state = evaluator.start()
    assert not isinstance(state, Snapshot), "lanes should model this stack"

    # Two lanes side by side: hold and the first action.
    first = stage_actions[0]
    verdicts = evaluator.evaluate((HOLD, first), residual=1000.0,
                                  remaining=1e9)
    for action in (HOLD, first):
        fork, _applied = _ticking_fork(snapshot, action)
        assert (repr(verdicts[action]["energy_j"])
                == repr(_advance(fork, horizon)))

    # Two chained stages, as a depth-2 beam runs them: the second
    # stage forks a re-capture of the first stage's fork.
    stage_snapshot = snapshot
    for action in stage_actions:
        ticking, applied = _ticking_fork(stage_snapshot, action)
        live_j = _advance(ticking, horizon)
        expanded = evaluator.expand(state, action, horizon)
        assert (expanded is not None) == applied
        if expanded is None:
            expanded = evaluator.expand(state, HOLD, horizon)
        lane_j, state = expanded
        assert repr(lane_j) == repr(live_j)
        assert repr(state.energy) == repr(ticking.machine.energy_total)
        stage_snapshot = Snapshot.capture(ticking.sim)

    # The lanes read the trunk and never wrote to it.
    assert Snapshot.capture(trunk.sim).payload == snapshot.payload


def _verdict_rows(evaluator, residual, remaining, stage_s):
    """What ``evaluator`` measures at one decision, as reprs: a
    three-way evaluation and every expansion of a depth-2 schedule
    tree."""
    rows = [repr(evaluator.evaluate((HOLD, DEGRADE, UPGRADE), residual,
                                    remaining))]
    frontier = [evaluator.start()]
    for _stage in range(2):
        grown = []
        for state in frontier:
            for action in (HOLD, DEGRADE, UPGRADE):
                expanded = evaluator.expand(state, action, stage_s)
                rows.append(None if expanded is None
                            else repr(expanded[0]))
                if expanded is not None:
                    grown.append(expanded[1])
        frontier = grown
    return rows


@settings(max_examples=8, deadline=None)
@given(
    device=st.sampled_from(DEVICES),
    sample_period=st.sampled_from([0.1, 0.25, 0.5]),
    horizon=st.one_of(st.integers(1, 48).map(lambda k: k / 4),
                      st.floats(0.01, 15.0, allow_nan=False)),
    policy=st.sampled_from([{}, {"lookahead": True, "beam_width": 3}]),
)
def test_reused_evaluator_matches_a_fresh_one(device, sample_period,
                                              horizon, policy):
    """One evaluator asked at every decision of a run (its plan kept,
    extended and trimmed throughout) measures what a fresh one does."""
    scenario = build_pulse_scenario(device=device,
                                    sample_period=sample_period,
                                    goal_seconds=150.0,
                                    initial_energy=1250.0, **policy)
    controller = scenario.controller
    choose = controller._choose_action
    shared = WhatIfEvaluator(scenario.sim, horizon=horizon)
    models = []

    def checking_choose(now, did, demand, residual):
        remaining = controller.time_remaining
        fresh = WhatIfEvaluator(scenario.sim, horizon=horizon)
        assert (_verdict_rows(shared, residual, remaining, horizon / 2)
                == _verdict_rows(fresh, residual, remaining, horizon / 2))
        models.append(shared._plan.model)
        return choose(now, did, demand, residual)

    controller._choose_action = checking_choose
    scenario.start().run()
    assert controller.decisions > 200
    assert all(model is models[0] for model in models), (
        "nothing changed the trunk's lane model")


# ----------------------------------------------------------------------
# the plan follows changes to the trunk
# ----------------------------------------------------------------------
# Both apps are idle at this instant.
CHANGE_AT = 23.0


def _drift(scenario):
    schedule_drift(scenario.sim, scenario.machine, CHANGE_AT + 0.05, 1.25,
                   components=("codec",))


def _longer_burst(scenario):
    scenario.apps[0].duty = 0.8


def _monitor_period(scenario):
    monitor = scenario.monitor
    monitor.stop()
    monitor.period = 0.25
    monitor.start()


def _monitor_phase(scenario):
    monitor = scenario.monitor
    monitor.stop()
    scenario.sim.schedule(0.03, lambda _time: monitor.start())


def _platform_power(scenario):
    platform = scenario.machine.components["platform"]
    platform.states = dict(platform.states, dim=4.1)
    platform.set_state("dim")


def _idle_radio_busy(scenario):
    scenario.apps[1].component.set_state("trickle")


def _open_loop_trunk(change=None, until=CHANGE_AT):
    """The pulse stack run open-loop to ``until``, ``change`` made at
    ``CHANGE_AT``."""
    trunk = _drop_decision(build_pulse_scenario().start())
    trunk.sim.run(until=CHANGE_AT)
    if change is not None:
        change(trunk)
        trunk.sim.run(until=until)
    return trunk


@pytest.mark.parametrize("change", [_drift, _longer_burst, _monitor_period,
                                    _monitor_phase, _platform_power,
                                    _idle_radio_busy])
def test_lanes_follow_trunk_changes(change):
    """After each change, lanes on the evaluator's old plan still match
    the same trunk replayed with its ticks."""
    horizon = 8.0
    trunk = _open_loop_trunk()
    evaluator = WhatIfEvaluator(trunk.sim, horizon=horizon)
    for until in (CHANGE_AT, CHANGE_AT + 1.3, CHANGE_AT + 9.7):
        changed = until > CHANGE_AT
        if changed:
            if trunk.sim.now == CHANGE_AT:
                change(trunk)
            trunk.sim.run(until=until)
        verdicts = evaluator.evaluate((HOLD, DEGRADE), residual=1000.0,
                                      remaining=1e9)
        for action in (HOLD, DEGRADE):
            ticking = _open_loop_trunk(change if changed else None, until)
            if action == DEGRADE:
                assert ticking.viceroy.degrade_once() is not None
            assert (repr(verdicts[action]["energy_j"])
                    == repr(_advance(ticking, horizon)))


class _SubclassedApp(PulsedApp):
    pass


def _subclass_app(scenario):
    scenario.apps[0].__class__ = _SubclassedApp


def _custom_correction(scenario):
    scenario.machine.correction = lambda machine: 0.0


def _supply_hook(scenario):
    scenario.machine._supply_note_power = lambda watts: None


#: Each perturbation, and what the refusal names.
_UNMODELLED = {
    _subclass_app: "app 'viewer' is not a PulsedApp",
    _custom_correction: "power correction is not the default",
    _supply_hook: "note_power/recover hooks",
}


@pytest.mark.parametrize("perturb, params", [
    pytest.param(perturb, params, id=perturb.__name__ + suffix)
    for suffix, params in (("", {}),
                           ("-beam", {"lookahead": True, "beam_width": 3}))
    for perturb in _UNMODELLED
])
def test_stacks_lanes_cannot_model_are_refused(perturb, params):
    """Whatever the trunk's controller, the evaluator that modelled the
    stack refuses it once perturbed, naming the failed condition, and
    measures nothing."""
    scenario = _drop_decision(build_pulse_scenario(**params).start())
    scenario.sim.run(until=30.0)
    evaluator = WhatIfEvaluator(scenario.sim)
    evaluator.start()
    perturb(scenario)
    with pytest.raises(SnapshotError, match=_UNMODELLED[perturb]):
        evaluator.evaluate((HOLD,), residual=1000.0, remaining=200.0)
    assert evaluator.branches_run == 0


def test_lookahead_branches_do_not_tick(monkeypatch):
    """Every monitor tick of a lookahead run fires on the trunk's own
    machine: no branch ever ticks."""
    scenario = build_pulse_scenario(lookahead=True, goal_seconds=90.0,
                                    initial_energy=780.0)
    machines = []
    tick = OnlinePowerMonitor._tick

    def counting_tick(self, time):
        machines.append(self.machine)
        return tick(self, time)

    monkeypatch.setattr(OnlinePowerMonitor, "_tick", counting_tick)
    summary = scenario.start().run().summary()
    assert summary["lookahead"]["branches_run"] > 0
    assert machines
    assert all(machine is scenario.machine for machine in machines)


def test_lookahead_needs_no_snapshot_builder():
    """Lanes read the live trunk: a stack without a snapshot builder
    still vets its proposals, exactly as with one."""
    def summary(builder):
        scenario = build_pulse_scenario(lookahead=True, goal_seconds=90.0,
                                        initial_energy=780.0)
        if not builder:
            scenario.sim.snapshot_builder = None
        return scenario.start().run().summary()

    bare = summary(builder=False)
    assert bare["lookahead"]["branches_run"] > 0
    assert bare == summary(builder=True)


@pytest.mark.parametrize("params", [{}, {"beam_width": 3}],
                         ids=["lookahead", "beam3"])
def test_pulse_lookahead_builds_never_fork(monkeypatch, params):
    """Lanes cover every what-if of the pulse stack on a generated
    device: the whole run neither captures nor restores a snapshot."""
    calls = []
    capture, restore = Snapshot.capture.__func__, Snapshot.restore

    def counting_capture(cls, sim):
        calls.append("capture")
        return capture(cls, sim)

    def counting_restore(self, **overrides):
        calls.append("restore")
        return restore(self, **overrides)

    monkeypatch.setattr(Snapshot, "capture", classmethod(counting_capture))
    monkeypatch.setattr(Snapshot, "restore", counting_restore)
    device = generate_fleet(2, 7)[1].to_dict()
    summary = run_pulse_goal(lookahead=True, device=device, **params)
    assert summary["lookahead"]["branches_run"] > 0
    assert calls == []


def test_branch_with_pending_decision_keeps_ticking():
    """Asked outside a decision callback, a branch would still decide,
    so it would have to keep ticking: lanes cannot model that, and the
    evaluator refuses, naming the pending decision."""
    scenario = build_pulse_scenario().start()
    scenario.sim.run(until=30.0)
    evaluator = WhatIfEvaluator(scenario.sim, horizon=5.0)
    with pytest.raises(SnapshotError, match="_decide"):
        evaluator.evaluate((HOLD,), residual=1000.0, remaining=200.0, did=0)
    assert evaluator.branches_run == 0


# ----------------------------------------------------------------------
# pinned branch verdicts (digests recorded before branches ran on the
# grid; a change to branch integration that moves one joule fails here)
# ----------------------------------------------------------------------
def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _branch_rows(**params):
    """``(did, action, repr(energy_j), repr(margin_j))`` per branch of a
    90 s / 780 J lookahead run, from the branch-track instants, plus
    the run's ``branches_run`` count."""
    tracer = Tracer(clock=lambda: 0.0)
    with installed(tracer):
        summary = run_pulse_goal(lookahead=True, goal_seconds=90.0,
                                 initial_energy=780.0, **params)
    rows = [(e.args["did"], e.args["action"], repr(e.args["energy_j"]),
             repr(e.args["margin_j"]))
            for e in tracer.events
            if e.cat == "branch" and e.name.startswith("branch.")]
    return rows, summary["lookahead"]["branches_run"]


def test_lookahead_branch_verdicts_pinned():
    rows, branches_run = _branch_rows()
    assert len(rows) == branches_run == 160
    assert _digest(rows) == (
        "00d7f90c3d658b4ef455cfee6948529cfe0ad1d7b5f781d6fdb67237c5ab284f"
    )


# The same run on each generated seed-7 device (scaled wattages move
# every edge's power) and on a coarser sample grid.
@pytest.mark.parametrize("params,count,digest", [
    ({"device": DEVICES[1]}, 190,
     "7838ae303a00e2d64b8d03e47a0ba988c4402e88aec3f851903287bdace5a16f"),
    ({"device": DEVICES[2]}, 286,
     "fe31a55f15f239a179e85cefd5093c63bd70dc9c3f6b8f6b91ab2b987360d87c"),
    ({"device": DEVICES[3]}, 180,
     "c224fae8a84379532c52d6f017b482f9c1e9f5c9bd31790d319cb20fb87dc0a3"),
    ({"device": DEVICES[4]}, 172,
     "fbc0451f8d381f9c4d81b86328bb75a89edfb516946d689f676ede26a72a0402"),
    ({"sample_period": 0.25}, 186,
     "b45399210391aa4841bb3d847eb3b6f150c7379943cfe832cafc465c7d37bf11"),
], ids=["dev00", "dev01", "dev02", "dev03", "sample-0.25"])
def test_branch_verdicts_pinned_per_device_and_grid(params, count, digest):
    rows, branches_run = _branch_rows(**params)
    assert len(rows) == branches_run == count
    assert _digest(rows) == digest


def test_beam_branch_verdicts_pinned(monkeypatch):
    """The same run under ``--beam 8 --depth 2``: one
    ``(did, action, repr(energy_j), None)`` row per expansion, then one
    ``(did, chosen, None, repr(margin_j))`` row per beam verdict."""
    rows = []
    deciding = [None]
    choose = BeamLookaheadController._choose_action
    expand = WhatIfEvaluator.expand

    def recording_choose(self, now, did, demand, residual):
        deciding[0] = did
        return choose(self, now, did, demand, residual)

    def recording_expand(self, state, action, stage_s):
        out = expand(self, state, action, stage_s)
        rows.append((deciding[0], action,
                     repr(None if out is None else out[0]), None))
        return out

    monkeypatch.setattr(BeamLookaheadController, "_choose_action",
                        recording_choose)
    monkeypatch.setattr(WhatIfEvaluator, "expand", recording_expand)
    tracer = Tracer(clock=lambda: 0.0)
    with installed(tracer):
        summary = run_pulse_goal(lookahead=True, beam_width=8, beam_depth=2,
                                 goal_seconds=90.0, initial_energy=780.0)
    rows += [(e.args["did"], e.args["chosen"], None,
              repr(e.args["margin_j"]))
             for e in tracer.events if e.name == "beam.verdict"]
    assert summary["lookahead"]["beam"]["expansions"] == 1426
    assert _digest(rows) == (
        "d2a3198c9ce6a65208f3f761f44445f1e223e9d8cbb03a6d5b4fee3b40c83d62"
    )
