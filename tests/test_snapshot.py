"""Unit tests for the snapshot subsystem: protocol, store, lookahead."""

import json
import os

import pytest

from repro.hardware.battery import Battery, SupplyError
from repro.sim import Simulator
from repro.snapshot import Snapshot, SnapshotError, SnapshotStore, snapshot_key
from repro.snapshot.scenario import (
    DEFAULT_GOAL_SECONDS,
    PulsedApp,
    build_pulse_scenario,
)


# ----------------------------------------------------------------------
# capture preconditions
# ----------------------------------------------------------------------
def test_capture_requires_builder():
    sim = Simulator()
    with pytest.raises(SnapshotError, match="snapshot_builder"):
        Snapshot.capture(sim)


def test_capture_rejects_unclaimed_events():
    """A live event no snapshottable claims must fail the capture —
    silently dropping it would fork a stack missing a future."""
    scenario = build_pulse_scenario().start()
    scenario.run(until=10.0)

    def rogue(_time):
        pass

    scenario.sim.schedule(5.0, rogue)
    with pytest.raises(SnapshotError, match="rogue"):
        Snapshot.capture(scenario.sim)


def test_capture_skips_fired_entries():
    """A stale handle to an already-fired event must not smuggle the
    dead event into the branch (it would fire twice there)."""
    scenario = build_pulse_scenario().start()
    scenario.run(until=60.0)
    snapshot = Snapshot.capture(scenario.sim)
    seqs = [seq for _when, seq, _key, _kind in snapshot.payload["events"]]
    live = {seq for _when, seq, _cb in scenario.sim.live_entries()}
    assert set(seqs) <= live
    assert len(seqs) == len(set(seqs))


def test_restore_rejects_version_skew():
    scenario = build_pulse_scenario().start()
    scenario.run(until=5.0)
    snapshot = Snapshot.capture(scenario.sim)
    snapshot.payload["version"] = 999
    with pytest.raises(SnapshotError, match="version"):
        snapshot.restore()


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------
def _snap(at=30.0):
    scenario = build_pulse_scenario().start()
    scenario.run(until=at)
    return Snapshot.capture(scenario.sim)


def test_snapshot_key_identity():
    key = snapshot_key("mod.build", {"a": 1}, 10.0)
    assert key == snapshot_key("mod.build", {"a": 1}, 10.0)
    assert key != snapshot_key("mod.build", {"a": 2}, 10.0)
    assert key != snapshot_key("mod.build", {"a": 1}, 20.0)
    assert key != snapshot_key("mod.other", {"a": 1}, 10.0)


def test_store_roundtrip(tmp_path):
    store = SnapshotStore(tmp_path)
    snapshot = _snap()
    key = snapshot_key(snapshot.builder, snapshot.params, snapshot.time)
    store.put(key, snapshot)
    assert key in store
    assert store.keys() == [key]
    loaded = store.require(key)
    from repro.fleet.spec import canonical_json

    assert canonical_json(loaded.payload) == canonical_json(snapshot.payload)


def test_store_miss_returns_none(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.get("deadbeef") is None
    with pytest.raises(SnapshotError, match="deadbeef"):
        store.require("deadbeef")


def test_store_corrupt_record_is_a_miss(tmp_path):
    store = SnapshotStore(tmp_path)
    key = "a" * 64
    with open(store.path(key), "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert store.get(key) is None
    assert not os.path.exists(store.path(key)), "corrupt record kept"


def test_store_digest_mismatch_is_a_miss(tmp_path):
    store = SnapshotStore(tmp_path)
    snapshot = _snap()
    key = "b" * 64
    store.put(key, snapshot)
    with open(store.path(key), encoding="utf-8") as fh:
        record = json.load(fh)
    record["payload"]["sim"]["now"] = 999.0  # tamper without re-digesting
    with open(store.path(key), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.get(key) is None


def test_store_version_skew_is_a_miss(tmp_path):
    store = SnapshotStore(tmp_path)
    key = "c" * 64
    store.put(key, _snap())
    with open(store.path(key), encoding="utf-8") as fh:
        record = json.load(fh)
    record["store_version"] = 0
    with open(store.path(key), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.get(key) is None
    assert len(store) == 0


# ----------------------------------------------------------------------
# battery + scenario pieces
# ----------------------------------------------------------------------
def test_battery_charge_grows_capacity():
    battery = Battery(100.0)
    battery.drain(90.0)
    battery.charge(50.0)
    assert battery.capacity == 150.0
    assert battery.residual == 60.0
    with pytest.raises(SupplyError):
        battery.charge(-1.0)


def test_scenario_extend_moves_goal_and_battery():
    scenario = build_pulse_scenario().start()
    scenario.run(until=10.0)
    goal_before = scenario.controller.goal_time
    capacity_before = scenario.battery.capacity
    scenario.extend(30.0, 200.0)
    assert scenario.controller.goal_time == goal_before + 30.0
    assert scenario.battery.capacity == capacity_before + 200.0


def test_pulsed_app_rejects_bad_duty():
    sim = Simulator()
    with pytest.raises(ValueError, match="duty"):
        PulsedApp(sim, None, "x", None, [("on", 1.0)], 1,
                  period=4.0, duty=1.5)


def test_builder_records_identity_params():
    scenario = build_pulse_scenario(goal_seconds=100.0)
    builder, params = scenario.sim.snapshot_builder
    assert builder.endswith("build_pulse_scenario")
    assert params["goal_seconds"] == 100.0
    # runtime environment is not identity
    assert "tracer" not in params and "metrics" not in params


# ----------------------------------------------------------------------
# lookahead
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs, message", [
    ({"beam_width": 3}, "beam_width needs lookahead"),
    ({"beam_width": 1, "beam_depth": 3}, "beam_width needs lookahead"),
    ({"learned_model": True, "lookahead": True}, "learned_model"),
    ({"drift": "10:1.2", "lookahead": True}, "drift"),
    ({"beam_depth": 5}, "beam_depth=5 needs beam_width"),
    ({"lookahead": True, "beam_depth": 3}, "beam_depth=3 needs beam_width"),
])
def test_builder_refuses_a_controller_it_cannot_build(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_pulse_scenario(**kwargs)


def test_recorded_params_follow_the_rule():
    """The eight always-recorded knobs; ``beam_depth`` exactly with
    ``beam_width``; any other knob only when set; values as given."""
    from repro.snapshot.scenario import KNOBS, pulse_params

    always = {name for name, knob in KNOBS.items()
              if knob.record == "always"}
    assert len(always) == 8 and pulse_params().keys() == always
    assert pulse_params(beam_depth=2, device=None, learned_model=False,
                        beam_width=0) == pulse_params()
    beam = pulse_params(lookahead=True, beam_width=3)
    assert beam.keys() - always == {"beam_width", "beam_depth"}
    goal = pulse_params(goal_seconds=90, variable_fraction=0)
    assert type(goal["goal_seconds"]) is int
    assert type(goal["variable_fraction"]) is int
    with pytest.raises(TypeError, match="no_such_knob"):
        build_pulse_scenario(no_such_knob=1)


def test_whatif_evaluator_rejects_bad_horizon():
    from repro.snapshot.lookahead import WhatIfEvaluator

    with pytest.raises(ValueError, match="horizon"):
        WhatIfEvaluator(Simulator(), horizon=0.0)


def test_whatif_evaluator_rejects_nan_horizon():
    from repro.snapshot.lookahead import WhatIfEvaluator

    with pytest.raises(ValueError, match="horizon"):
        WhatIfEvaluator(Simulator(), horizon=float("nan"))


def test_lookahead_runs_and_counts_branches():
    scenario = build_pulse_scenario(lookahead=True).start().run()
    summary = scenario.summary()
    look = summary["lookahead"]
    assert look["evaluations"] > 0
    assert look["branches_run"] == 2 * look["evaluations"]
    assert 0 <= look["overrides"] <= look["evaluations"]
    assert look["horizon_s"] == 12.0


def test_lookahead_branches_are_invisible_to_parent_spine():
    from repro.obs import Tracer
    from repro.obs.diff import decision_spine

    tracer = Tracer()
    scenario = build_pulse_scenario(lookahead=True, tracer=tracer)
    scenario.start().run(until=60.0)
    tracer.flush()
    events = list(tracer.events)
    branch = [e for e in events if e.cat == "branch"]
    assert branch, "no branch verdicts traced"
    assert all(e.track == "branch" for e in branch)
    # the spine reads only core decisions; branch events never join it
    spine = decision_spine(events)
    assert len(spine) == len(decision_spine(
        [e for e in events if e.cat == "core"]))


def test_branch_spans_carry_branch_id_and_fold_separately():
    """A fork run under a *real* tracer stamps its power spans with its
    branch id, and ``power_spans`` folds trunk and branch separately —
    the belt-and-braces guarantee behind the lookahead signature."""
    from repro.obs import Tracer
    from repro.obs.export import power_spans

    tracer = Tracer(categories={"core", "power"})
    parent = build_pulse_scenario(tracer=tracer).start()
    parent.run(until=20.0)
    snapshot = Snapshot.capture(parent.sim)
    fork = snapshot.fork(tracer=tracer)
    fork.machine.branch_id = "did9.degrade"
    fork.run(until=30.0)
    parent.run(until=30.0)
    tracer.flush()
    events = [e.to_dict() for e in tracer.events]
    stamped = [e for e in events
               if e.get("name") == "span"
               and e.get("args", {}).get("branch") == "did9.degrade"]
    assert stamped, "forked machine emitted no branch-stamped spans"
    trunk = power_spans(events)
    branch = power_spans(events, branch="did9.degrade")
    assert len(branch) == len(stamped), "branch fold missed spans"
    # The trunk fold is exactly the fold of the unstamped spans: a
    # branch span can never leak into trunk energy.
    unstamped = [e for e in events if e not in stamped]
    assert trunk == power_spans(unstamped)
    assert all("branch" not in (e.get("args") or {})
               for e in unstamped if e.get("name") == "span"
               and e.get("cat") == "power")


def test_trunk_spans_unchanged_by_traced_branch():
    """Folding the trunk from a trace polluted by a traced branch gives
    the same spans as a run that never forked at all."""
    from repro.obs import Tracer
    from repro.obs.export import power_spans

    def run(with_fork):
        tracer = Tracer(categories={"core", "power"})
        parent = build_pulse_scenario(tracer=tracer).start()
        parent.run(until=20.0)
        if with_fork:
            snapshot = Snapshot.capture(parent.sim)
            fork = snapshot.fork(tracer=tracer)
            fork.machine.branch_id = "b"
            fork.run(until=26.0)
        parent.run(until=30.0)
        tracer.flush()
        return power_spans([e.to_dict() for e in tracer.events])

    assert run(with_fork=True) == run(with_fork=False)


def test_lookahead_changes_the_decision_spine():
    """The whole point: vetoing transient-driven adaptations must
    actually alter behaviour vs the plain hysteresis policy."""
    base = build_pulse_scenario().start().run().summary()
    look = build_pulse_scenario(lookahead=True).start().run().summary()
    assert base["goal_met"] and look["goal_met"]
    assert look["adaptations"] != base["adaptations"]


def test_lookahead_survives_snapshot_roundtrip():
    from repro.fleet.spec import canonical_json

    parent = build_pulse_scenario(lookahead=True).start()
    parent.run(until=DEFAULT_GOAL_SECONDS / 2)
    snapshot = Snapshot.capture(parent.sim)
    fork = snapshot.fork().run()
    parent.run()
    assert canonical_json(fork.summary()) == canonical_json(parent.summary())


# ----------------------------------------------------------------------
# payload format pins
# ----------------------------------------------------------------------
# sha256 of canonical_json(payload) and the snapshot key for each build,
# captured at t=120.  A fork of a stack only checks a run against
# itself, so these are what pin the state format an app writes: a
# change to any ``__snapshot__`` state or to registration order moves
# a payload digest; a change to the recorded builder params moves a key.
PAYLOAD_PINS = {
    "pulse-default": (
        "f30ac63fd80ba9d255128ae8c08b6514ba83d0d14b043bb1408098f1fb6508fc",
        "5f29367a7839437cc8439a284f843935c6c826c048727e31ae496c75e81c9aa3"),
    "pulse-lookahead": (
        "4af7120bc356a663ca5721de1d77bfacbb122b6cbd07355053ab2dcf4fd3b20f",
        "ec009f578b214ca319cc746c91fcfc2d6672770eb04fd0d114232b0ecedf889c"),
    "pulse-beam3": (
        "bd737491b1f0a9b3a70bcd4782642aad0ec06de29442e90ba69b3b43df4946e0",
        "e8a6fe7f43198734c85a8a5d0556e4bfe9700a317149c3d0fc8b70d63117d42c"),
    "pulse-hysteresis-off": (
        "2e44866b3d781531421c1580d03bec588ee666ad527b4753abf185a2373fc3ee",
        "38f2ec65ff9ece9f8094e73e491553e2e126ad625dfa666fb9220a468f22fd98"),
    # An explicit ``device=None`` records nothing: the default's pins.
    "pulse-device-none": (
        "f30ac63fd80ba9d255128ae8c08b6514ba83d0d14b043bb1408098f1fb6508fc",
        "5f29367a7839437cc8439a284f843935c6c826c048727e31ae496c75e81c9aa3"),
    "pulse-device": (
        "f469905dc3ebafaf2e51508729891356ffaaa241f372151bc5ea3f0b1861ddc8",
        "d6e46760deadf83cd67b48337b762a2f9158e7133aa763771e8ef1e0a00d6ec3"),
    "pulse-drift": (
        "d45922d6d23f3d2bcf2cd9d2f4f51fd8563cbea8eac6d71098c01ab1b784ff07",
        "c092025884cdfbdd0f04c3106c64a0d9f21da895d24f10193e3f6ce8ba17267c"),
    "pulse-variable-fraction": (
        "2846a7e0e88512c97dc765e336ddda0244ed9e8bf76fa96280d7586315db9912",
        "e38ee3a2d0e387efed69fce2d4d969b1fb85d6715fd0f0f3eacd41f094c6c51c"),
    # An explicit default depth records what beam3 records: its pins.
    "pulse-beam3-depth2": (
        "bd737491b1f0a9b3a70bcd4782642aad0ec06de29442e90ba69b3b43df4946e0",
        "e8a6fe7f43198734c85a8a5d0556e4bfe9700a317149c3d0fc8b70d63117d42c"),
    # Values are recorded as given: an int goal is not coerced to 90.0,
    # whose payload and key differ.
    "pulse-goal-int": (
        "e6edf4b4ec6de688b5313dc0f8dcba47cae3e1fe1537e0c3d022183917730e2a",
        "1e07a35165842d385db1418700e8d8c08b040bcb598dafaa4d4adf512158c78e"),
}


def _pinned_build(name):
    from repro.devices.profile import generate_device

    variant = name.partition("-")[2]
    kwargs = {
        "default": {},
        "lookahead": {"lookahead": True},
        "beam3": {"lookahead": True, "beam_width": 3},
        "hysteresis-off": {"variable_fraction": 0.0,
                           "constant_fraction": 0.0},
        "device-none": {"device": None},
        "device": {"device": generate_device(7, "dev00")},
        "learned": {"learned_model": True},
        "device-learned": {"device": generate_device(7, "dev00"),
                           "learned_model": True},
        "drift": {"drift": "60:1.25"},
        "variable-fraction": {"variable_fraction": 0.05},
        "beam3-depth2": {"lookahead": True, "beam_width": 3,
                         "beam_depth": 2},
        "goal-int": {"goal_seconds": 90},
    }[variant]
    return build_pulse_scenario(**kwargs)


@pytest.mark.parametrize("name", sorted(PAYLOAD_PINS))
def test_payload_and_key_match_the_pins(name):
    import hashlib

    from repro.fleet.spec import canonical_json

    scenario = _pinned_build(name).start().run(until=120.0)
    payload = Snapshot.capture(scenario.sim).payload
    digest = hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()
    builder, params = scenario.sim.snapshot_builder
    assert (digest, snapshot_key(builder, params, 120.0)) == \
        PAYLOAD_PINS[name]


# Snapshot keys of builds whose payload cannot be captured (the learned
# model's gauge keeps an unclaimed sampling event): the recorded params
# alone, at t=120.
KEY_PINS = {
    "pulse-learned":
        "a81cc43069cd1d356e9eb4990ba16649a52067fa8315a1782a5f134c4933ed43",
    "pulse-device-learned":
        "bd5112d02f5570cdbfc4f1112437ccbdd4d5928a9d76300c6ab771adee76e15c",
}


@pytest.mark.parametrize("name", sorted(KEY_PINS))
def test_key_matches_the_pin(name):
    builder, params = _pinned_build(name).sim.snapshot_builder
    assert snapshot_key(builder, params, 120.0) == KEY_PINS[name]
