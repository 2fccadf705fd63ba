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
    "workload-videos": (
        "cc4ee92b9b9c7e0dc0566dca30490c43a440dec168fb8b956c42cb92494b1d3f",
        "629debe99f4dbe460896b52b00d7c398c1fd07545aa6664b2ce6702110e14bf5"),
    "workload-utterances": (
        "99f22556f82a67d934e460091a707b36ef54370b827d674886c34741c1d09df5",
        "e9454c08c533e1694b736b4d7c475c6767a1a2f7a89cf6d4c0e3ae2781e4537a"),
    "workload-maps": (
        "a498e3132ded744a1079b60518af2b5b2b46bceeda92c4f08bae16252665c81b",
        "454ea6af99b9ef85a6db2d4c2bf883506e0b504c12b884df78e5cd851e6515e6"),
    "workload-images": (
        "3646fbaa69d1d9a1581a5372a63967cc08a018f81f0bc44a9b30ae000953ab63",
        "337642eb13f95df99960f769502f30fe1945c52697bbd976d4867fe3b522614f"),
}


def _pinned_build(name):
    from repro.devices.profile import generate_device
    from repro.snapshot.workload import build_workload_scenario

    rig, _, variant = name.partition("-")
    if rig == "workload":
        return build_workload_scenario(workload=variant, think_jitter=0.3)
    kwargs = {
        "default": {},
        "lookahead": {"lookahead": True},
        "beam3": {"lookahead": True, "beam_width": 3},
        "hysteresis-off": {"variable_fraction": 0.0,
                           "constant_fraction": 0.0},
        "device-none": {"device": None},
        "device": {"device": generate_device(7, "dev00")},
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
