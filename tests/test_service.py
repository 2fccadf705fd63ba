"""In-process tests of CampaignService: jobs, queues, cache, metrics.

These drive the orchestrator directly (no HTTP) with real worker
processes but tiny campaigns, so they stay fast while exercising the
full dispatch → execute → record path.
"""

import pytest

from repro.fleet import CampaignSpec, FleetRunner, ResultCache, Task
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    CampaignService,
    JobRecord,
    results_document,
)


def value_spec(n=4, name="svc", scale=1.0):
    return CampaignSpec(
        name=name,
        tasks=tuple(
            Task(id=f"t{i}", fn="repro.fleet.library:seeded_value",
                 params={"seed": i, "scale": scale})
            for i in range(n)
        ),
    )


def failing_spec(name="doomed"):
    return CampaignSpec(
        name=name,
        tasks=(
            Task(id="ok", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
            Task(id="bad", fn="repro.fleet.library:always_fail",
                 params={"message": "no"}),
        ),
    )


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(workers=2, cache=tmp_path / "cache",
                          poll_s=0.02, backoff_s=0.01,
                          tracer=NULL_TRACER, metrics=MetricsRegistry())
    with svc:
        yield svc


class TestLifecycle:
    def test_job_runs_to_done(self, service):
        job_id = service.submit(value_spec())
        status = service.wait(job_id, timeout=30)
        assert status["state"] == DONE
        assert status["telemetry"]["done"] == 4
        result = service.result(job_id)
        assert set(result["values"]) == {"t0", "t1", "t2", "t3"}

    def test_submit_is_immediate_and_queued(self, service):
        job_id = service.submit(value_spec())
        # submit() returns before anything runs; the record exists now.
        status = service.status(job_id)
        assert status["state"] in (QUEUED, "running", DONE)
        service.wait(job_id, timeout=30)

    def test_failed_task_fails_the_job(self, service):
        job_id = service.submit(failing_spec(), retries=0)
        status = service.wait(job_id, timeout=30)
        assert status["state"] == FAILED
        result = service.result(job_id)
        assert result["state"] == FAILED
        assert [f["task_id"] for f in result["failures"]] == ["bad"]
        assert "RuntimeError" in result["failures"][0]["error"]
        assert result["values"]["ok"] == pytest.approx(
            FleetRunner(jobs=1, tracer=NULL_TRACER,
                        metrics=MetricsRegistry())
            .run(value_spec(2)).values["t1"]
        )

    def test_result_before_terminal_raises(self, service):
        job_id = service.submit(value_spec())
        try:
            with pytest.raises(KeyError):
                # May already be done on a fast machine; tolerate that.
                if service.status(job_id)["state"] != DONE:
                    service.result(job_id)
                else:
                    raise KeyError("already terminal")
        finally:
            service.wait(job_id, timeout=30)

    def test_unknown_job_raises(self, service):
        with pytest.raises(KeyError):
            service.status("j9999")

    def test_retries_recover_transient_faults(self, service, tmp_path):
        marker = tmp_path / "marker"
        spec = CampaignSpec(
            name="transient",
            tasks=(
                Task(id="flaky", fn="repro.fleet.library:fail_until_marker",
                     params={"marker": str(marker), "value": 5.0}),
            ),
        )
        job_id = service.submit(spec, retries=2)
        status = service.wait(job_id, timeout=30)
        assert status["state"] == DONE
        assert status["telemetry"]["retried"] >= 1
        assert service.result(job_id)["values"]["flaky"] == 5.0


class TestMultiTenancy:
    def test_identical_jobs_share_work(self, service):
        """Two clients submitting the same campaign execute it once."""
        spec = value_spec(6)
        j1 = service.submit(spec, queue="alpha", client="c1")
        j2 = service.submit(spec, queue="beta", client="c2")
        service.wait(j1, timeout=30)
        service.wait(j2, timeout=30)
        r1 = service.result(j1)
        r2 = service.result(j2)
        assert r1["values"] == r2["values"]
        executed = (r1["telemetry"]["succeeded"]
                    + r2["telemetry"]["succeeded"])
        served = r1["telemetry"]["cached"] + r2["telemetry"]["cached"]
        # Every distinct task ran exactly once; the other copy was
        # coalesced onto it or cache-served, regardless of interleaving.
        assert executed == 6
        assert served == 6

    def test_results_document_bit_identical_to_oneshot(self, service):
        spec = value_spec(5, name="bits")
        direct = FleetRunner(jobs=1, tracer=NULL_TRACER,
                             metrics=MetricsRegistry()).run(spec)
        job_id = service.submit(spec)
        service.wait(job_id, timeout=30)
        result = service.result(job_id)
        assert (results_document(result["campaign"], result["values"])
                == results_document(spec.name, direct.values))

    def test_second_submission_served_from_cache(self, service):
        spec = value_spec(3)
        j1 = service.submit(spec)
        service.wait(j1, timeout=30)
        j2 = service.submit(spec)
        status = service.wait(j2, timeout=30)
        assert status["telemetry"]["cached"] == 3
        assert status["telemetry"]["succeeded"] == 0
        assert status["telemetry"]["from_cache"] is True

    def test_queue_accounting(self, service):
        j1 = service.submit(value_spec(2), queue="alpha")
        j2 = service.submit(value_spec(2, name="svc2"), queue="beta")
        service.wait(j1, timeout=30)
        service.wait(j2, timeout=30)
        queues = service.queues()
        assert queues["alpha"]["jobs"] == 1
        assert queues["beta"]["jobs"] == 1
        assert queues["alpha"]["active_jobs"] == 0
        jobs = service.jobs()
        assert [j["job_id"] for j in jobs] == [j2, j1]  # newest first

    def test_priority_orders_within_queue(self):
        assert (JobRecord("a", value_spec(1), None, priority=5,
                          seq=2).sort_key()
                < JobRecord("b", value_spec(1), None, priority=0,
                            seq=1).sort_key())
        # Same priority: FIFO by admission order.
        assert (JobRecord("a", value_spec(1), None, priority=1,
                          seq=1).sort_key()
                < JobRecord("b", value_spec(1), None, priority=1,
                            seq=2).sort_key())


class TestObservability:
    def test_service_metrics(self, service):
        spec = value_spec(3)
        j1 = service.submit(spec)
        service.wait(j1, timeout=30)
        j2 = service.submit(spec)
        service.wait(j2, timeout=30)
        snapshot = service.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["service.jobs_submitted"] == 2
        assert counters["service.jobs_done"] == 2
        assert counters["fleet.cache_hit"] >= 3
        gauges = snapshot["gauges"]
        assert "fleet.queue_depth" in gauges
        assert "fleet.heartbeat_age_s" in gauges
        assert gauges["fleet.queue_depth"] == 0  # everything drained

    def test_failed_job_counted(self, service):
        job_id = service.submit(failing_spec(), retries=0)
        service.wait(job_id, timeout=30)
        assert service.metrics.counter("service.jobs_failed").value == 1

    def test_snapshot_shape(self, service):
        job_id = service.submit(value_spec(2))
        service.wait(job_id, timeout=30)
        snapshot = service.snapshot()
        assert snapshot["workers"] == 2
        assert snapshot["jobs"] == 1
        assert snapshot["reclaimed_workers"] == 0
        assert snapshot["uptime_s"] >= 0.0

    def test_worker_table(self, service):
        job_id = service.submit(value_spec(2))
        service.wait(job_id, timeout=30)
        workers = service.workers()
        assert len(workers) == 2
        assert all(w["alive"] for w in workers)
        assert sum(w["completed"] for w in workers) == 2


class TestSharedCacheWithOneshot:
    def test_sweep_cache_reused_by_service(self, tmp_path):
        """A one-shot run's cache warms the service, and vice versa."""
        cache_dir = tmp_path / "shared"
        spec = value_spec(3, name="crossover")
        FleetRunner(jobs=1, cache=cache_dir, tracer=NULL_TRACER,
                    metrics=MetricsRegistry()).run(spec)
        svc = CampaignService(workers=1, cache=cache_dir, poll_s=0.02,
                              tracer=NULL_TRACER, metrics=MetricsRegistry())
        with svc:
            job_id = svc.submit(spec)
            status = svc.wait(job_id, timeout=30)
        assert status["telemetry"]["cached"] == 3
        assert status["telemetry"]["succeeded"] == 0


def test_submit_after_stop_rejected(tmp_path):
    svc = CampaignService(workers=1, poll_s=0.02, tracer=NULL_TRACER,
                          metrics=MetricsRegistry())
    svc.start()
    svc.stop()
    with pytest.raises(RuntimeError):
        svc.submit(value_spec(1))


def test_pool_size_validation():
    from repro.fleet.pool import WorkerPool

    with pytest.raises(ValueError):
        WorkerPool(0)
    with pytest.raises(ValueError):
        WorkerPool(1, heartbeat_s=1.0, heartbeat_timeout_s=0.5)
