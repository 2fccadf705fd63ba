"""Open-loop lookahead branches integrate on the monitor's sample grid.

A what-if branch makes no decisions, so its monitor hands its ticks to
the machine as a split grid for the run (see
``OnlinePowerMonitor.hand_off_ticks`` and ``Machine.split_at_grid``).
The grid must reproduce every float split the ticks made, so branch
joules and journals are bit-identical to a ticking run.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hysteresis import DEGRADE, HOLD, UPGRADE
from repro.devices import generate_fleet
from repro.hardware.component import HardwareError
from repro.hardware.machine import _segment_row
from repro.obs import Tracer, installed
from repro.powerscope.online import OnlinePowerMonitor
from repro.snapshot import Snapshot
from repro.snapshot.lookahead import WhatIfEvaluator
from repro.snapshot.scenario import build_pulse_scenario, run_pulse_goal

DEVICES = [None] + [device.to_dict() for device in generate_fleet(4, 7)]


def _open_loop_fork(snapshot, action=HOLD):
    """Fork ``snapshot`` with any pending decision dropped, as a branch
    captured inside the trunk's decision callback has it."""
    scenario = snapshot.fork()
    controller = scenario.controller
    if controller._entry is not None:
        scenario.sim.cancel(controller._entry)
        controller._entry = None
    if action == DEGRADE:
        scenario.viceroy.degrade_once()
    elif action == UPGRADE:
        scenario.viceroy.upgrade_once()
    return scenario


def _advance(scenario, horizon, on_grid):
    machine = scenario.machine
    monitor = scenario.monitor
    t0 = scenario.sim.now
    start = machine.finish()
    if on_grid:
        assert monitor.hand_off_ticks()
    scenario.sim.run(until=t0 + horizon)
    energy = machine.finish() - start
    if on_grid:
        monitor.take_back_ticks()
    return energy


# Quarter-second multiples put the capture (and, for the coarse
# periods, grid instants) exactly on pulse edges; arbitrary floats
# cover everything between.
capture_times = st.one_of(
    st.integers(1, 800).map(lambda k: k / 4),
    st.floats(0.05, 200.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    capture_t=capture_times,
    device=st.sampled_from(DEVICES),
    action=st.sampled_from([HOLD, DEGRADE, UPGRADE]),
    horizon=st.one_of(st.integers(1, 48).map(lambda k: k / 4),
                      st.floats(0.01, 15.0, allow_nan=False)),
    sample_period=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_grid_matches_live_ticks(capture_t, device, action, horizon,
                                 sample_period):
    trunk = build_pulse_scenario(sample_period=sample_period, device=device)
    trunk.start()
    trunk.sim.run(until=capture_t)
    snapshot = Snapshot.capture(trunk.sim)

    ticking = _open_loop_fork(snapshot, action)
    gridded = _open_loop_fork(snapshot, action)
    # Two stages, as a depth-2 beam runs them: the second forks a
    # re-capture taken after the ticks came back.
    for _stage in range(2):
        live_j = _advance(ticking, horizon, on_grid=False)
        grid_j = _advance(gridded, horizon, on_grid=True)

        assert repr(grid_j) == repr(live_j)
        assert ([_segment_row(s) for s in gridded.machine.journal]
                == [_segment_row(s) for s in ticking.machine.journal])
        assert repr(gridded.battery.drawn) == repr(ticking.battery.drawn)
        # The tick comes back at exactly the instant the ticking run
        # has it pending, after the same last sample.
        assert gridded.monitor._entry[0] == ticking.monitor._entry[0]
        assert (gridded.monitor._last_sample_time
                == ticking.monitor._last_sample_time)
        ticking = _open_loop_fork(Snapshot.capture(ticking.sim))
        gridded = _open_loop_fork(Snapshot.capture(gridded.sim))


def test_machine_refuses_capture_while_split():
    scenario = build_pulse_scenario().start()
    scenario.sim.run(until=5.0)
    scenario.controller.stop()
    assert scenario.monitor.hand_off_ticks()
    with pytest.raises(HardwareError, match="grid"):
        Snapshot.capture(scenario.sim)
    scenario.monitor.take_back_ticks()
    Snapshot.capture(scenario.sim)


def _count_branch_ticks(monkeypatch):
    """Record, per tick, whether it fired on a branch machine."""
    fired = []
    tick = OnlinePowerMonitor._tick

    def counting_tick(self, time):
        fired.append(self.machine.branch_id is not None)
        return tick(self, time)

    monkeypatch.setattr(OnlinePowerMonitor, "_tick", counting_tick)
    return fired


def test_lookahead_branches_do_not_tick(monkeypatch):
    fired = _count_branch_ticks(monkeypatch)
    summary = run_pulse_goal(lookahead=True, goal_seconds=90.0,
                             initial_energy=780.0)
    assert summary["lookahead"]["branches_run"] > 0
    assert any(not on_branch for on_branch in fired)
    assert not any(fired)


def test_branch_with_pending_decision_keeps_ticking(monkeypatch):
    """Captured outside a decision callback, the branch still decides,
    so its samples matter and it must tick."""
    scenario = build_pulse_scenario().start()
    scenario.sim.run(until=30.0)
    fired = _count_branch_ticks(monkeypatch)
    evaluator = WhatIfEvaluator(scenario.sim, horizon=5.0)
    evaluator.evaluate((HOLD,), residual=1000.0, remaining=200.0, did=0)
    assert evaluator.branches_run == 1
    assert any(fired)


# ----------------------------------------------------------------------
# pinned branch verdicts (digests recorded before branches ran on the
# grid; a change to branch integration that moves one joule fails here)
# ----------------------------------------------------------------------
def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_lookahead_branch_verdicts_pinned():
    """``(did, action, repr(energy_j), repr(margin_j))`` per branch of a
    90 s / 780 J lookahead run, from the branch-track instants."""
    tracer = Tracer(clock=lambda: 0.0)
    with installed(tracer):
        summary = run_pulse_goal(lookahead=True, goal_seconds=90.0,
                                 initial_energy=780.0)
    rows = [(e.args["did"], e.args["action"], repr(e.args["energy_j"]),
             repr(e.args["margin_j"]))
            for e in tracer.events
            if e.cat == "branch" and e.name.startswith("branch.")]
    assert len(rows) == summary["lookahead"]["branches_run"] == 160
    assert _digest(rows) == (
        "00d7f90c3d658b4ef455cfee6948529cfe0ad1d7b5f781d6fdb67237c5ab284f"
    )


def test_beam_branch_verdicts_pinned(monkeypatch):
    """The same run under ``--beam 8 --depth 2``: one
    ``(did, action, repr(energy_j), None)`` row per expansion, then one
    ``(did, chosen, None, repr(margin_j))`` row per beam verdict."""
    rows = []
    expand = WhatIfEvaluator.expand

    def recording_expand(self, snapshot, action, stage_s, did=None):
        out = expand(self, snapshot, action, stage_s, did=did)
        rows.append((did, action, repr(None if out is None else out[0]),
                     None))
        return out

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
