"""Worker-trace merge: in-worker rings surface on per-task tracks."""

import os

from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, Task
from repro.obs import Tracer, installed

#: A tiny traced simulation the worker can run end-to-end.
SIM_TASK = Task(
    id="warm/tiny",
    fn="repro.snapshot.warm.pulse_goal_summary",
    params={"goal_seconds": 40.0, "initial_energy": 500.0,
            "extend_at": 20.0},
)


def _merged_worker_events(jobs):
    tracer = Tracer()
    with installed(tracer):
        runner = FleetRunner(jobs=jobs, worker_trace=True)
        assert runner.worker_trace is True
        result = runner.run(CampaignSpec(name="wt", tasks=[SIM_TASK]))
    tracer.flush()
    assert result.ok
    merged = [e for e in tracer.events
              if e.cat == "fleet" and (e.track or "").startswith("w")]
    assert merged, "no worker events merged into the coordinator trace"
    # replayed names carry the original category as a prefix
    assert all("/" in e.name for e in merged)
    assert all(e.track.endswith("/warm/tiny") for e in merged)
    # original sim-domain categories must NOT leak into the coordinator
    assert not any(e.cat in ("sim", "core", "power") for e in merged)
    return merged


def test_serial_runner_merges_worker_events():
    merged = _merged_worker_events(jobs=1)
    assert all(e.track.startswith(f"w{os.getpid()}/") for e in merged)


def test_pool_runner_merges_worker_events():
    # The pool path ships the flag to its workers; their tracks carry a
    # worker pid, not the coordinator's.
    merged = _merged_worker_events(jobs=2)
    assert not any(e.track.startswith(f"w{os.getpid()}/") for e in merged)


def test_worker_trace_disabled_without_open_gate():
    """Shipping rings is pure overhead when nothing records them."""
    runner = FleetRunner(jobs=1, worker_trace=True)
    assert runner.worker_trace is False


def test_worker_trace_off_by_default():
    tracer = Tracer()
    with installed(tracer):
        runner = FleetRunner(jobs=1)
        assert runner.worker_trace is False
        runner.run(CampaignSpec(name="wt-off", tasks=[SIM_TASK]))
    tracer.flush()
    merged = [e for e in tracer.events
              if e.cat == "fleet" and (e.track or "").startswith("w")]
    assert merged == []


def test_merged_trace_exports_valid_chrome_json():
    from repro.obs.export import chrome_trace, validate_chrome_trace

    tracer = Tracer()
    with installed(tracer):
        FleetRunner(jobs=1, worker_trace=True).run(
            CampaignSpec(name="wt-chrome", tasks=[SIM_TASK]))
    tracer.flush()
    trace = chrome_trace(list(tracer.events))
    validate_chrome_trace(trace)
    names = {row.get("tid") for row in trace.get("traceEvents", [])
             if row.get("ph") == "M"}
    assert names  # thread-name metadata present for the merged tracks
