"""Unit tests for the fleet campaign engine: spec, cache, worker, runner."""

import os
import pickle
import sys
import time

import pytest

from repro.fleet import (
    CampaignError,
    CampaignSpec,
    FleetRunner,
    ResultCache,
    Task,
    TaskTimeout,
    derive_seed,
    execute_task,
    resolve_callable,
    task_key,
)


class TestSpec:
    def test_task_key_is_stable_and_order_independent(self):
        a = Task(id="a", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1, "scale": 2.0})
        b = Task(id="b", fn="repro.fleet.library:seeded_value",
                 params={"scale": 2.0, "seed": 1})
        assert a.key() == b.key()
        assert a.key() == task_key(a.fn, a.params)

    def test_task_key_changes_with_params(self):
        a = Task(id="a", fn="f:g", params={"seed": 1})
        b = Task(id="b", fn="f:g", params={"seed": 2})
        assert a.key() != b.key()

    def test_payload_tasks_are_uncacheable(self):
        task = Task(id="a", fn="f:g", payload=(lambda: None,))
        assert not task.cacheable
        assert task.key() is None

    def test_non_json_params_rejected(self):
        with pytest.raises(TypeError):
            Task(id="a", fn="f:g", params={"x": object()})

    def test_duplicate_task_ids_rejected(self):
        tasks = [Task(id="a", fn="f:g"), Task(id="a", fn="f:h")]
        with pytest.raises(ValueError):
            CampaignSpec(name="dup", tasks=tasks)

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_auto_seeded_is_position_independent(self):
        tasks = [Task(id=name, fn="f:g") for name in ("a", "b")]
        spec = CampaignSpec(name="c", tasks=tasks, seed=7)
        seeds = {t.id: t.params["seed"] for t in spec.auto_seeded().tasks}
        reordered = CampaignSpec(name="c", tasks=tasks[::-1], seed=7)
        seeds2 = {t.id: t.params["seed"] for t in reordered.auto_seeded().tasks}
        assert seeds == seeds2

    def test_auto_seeded_respects_explicit_seed(self):
        spec = CampaignSpec(
            name="c", tasks=[Task(id="a", fn="f:g", params={"seed": 42})]
        )
        assert spec.auto_seeded().tasks[0].params["seed"] == 42

    def test_resolve_callable_both_spellings(self):
        assert resolve_callable("os.path:join") is os.path.join
        assert resolve_callable("os.path.join") is os.path.join

    def test_resolve_callable_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_callable("os.path:not_there")
        with pytest.raises(ValueError):
            resolve_callable("no_dots")

    def test_tasks_pickle(self):
        task = Task(id="a", fn="repro.fleet.library:seeded_value",
                    params={"seed": 3})
        assert pickle.loads(pickle.dumps(task)) == task


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k1", {"value": 1.5, "wall_s": 0.1})
        assert cache.get("k1") == {"value": 1.5, "wall_s": 0.1}
        assert "k1" in cache
        assert len(cache) == 1

    def test_miss_and_none_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.get(None) is None
        with pytest.raises(ValueError):
            cache.put(None, {})

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        with open(cache.path("bad"), "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        assert cache.get("bad") is None
        assert "bad" not in cache

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"value": 1})
        cache.clear()
        assert len(cache) == 0


class TestWorker:
    def test_execute_task_returns_value_and_wall_time(self):
        out = execute_task("repro.fleet.library:seeded_value", {"seed": 5})
        assert 0.0 <= out["value"] < 1.0
        assert out["wall_s"] >= 0.0

    def test_in_worker_timeout(self):
        with pytest.raises(TaskTimeout):
            execute_task("repro.fleet.library:sleep_for",
                         {"seconds": 5.0}, timeout_s=0.1)

    def test_per_task_timeout_overrides_default(self):
        from repro.fleet import run_task

        task = Task(id="t", fn="repro.fleet.library:sleep_for",
                    params={"seconds": 0.01}, timeout_s=5.0)
        out = run_task(task, timeout_s=0.001)  # task override wins
        assert out["value"] == 0.01


def exit_holding_report_locks():
    """Die the way a worker does when ``os._exit`` lands while a report
    is being written: holding the write lock of every queue the worker
    loop reports on (its inbox is the coordinator's to write)."""
    from repro.fleet.pool import _worker_main

    frame = sys._getframe()
    while frame.f_code is not _worker_main.__code__:
        frame = frame.f_back
    for value in list(frame.f_locals.values()):
        lock = getattr(value, "_wlock", None)
        if lock is not None and value is not frame.f_locals["inbox"]:
            lock.acquire()
    os._exit(17)


def _spec(*tasks, name="test"):
    return CampaignSpec(name=name, tasks=tasks)


class TestRunnerSerial:
    def test_values_in_task_order(self):
        spec = _spec(
            Task(id="a", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
            Task(id="b", fn="repro.fleet.library:seeded_value",
                 params={"seed": 2}),
        )
        result = FleetRunner(jobs=1).run(spec)
        assert [r.task_id for r in result.results] == ["a", "b"]
        assert result.ok
        assert result.telemetry.succeeded == 2

    def test_failure_recorded_not_raised(self):
        spec = _spec(
            Task(id="bad", fn="repro.fleet.library:always_fail"),
            Task(id="good", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
        )
        result = FleetRunner(jobs=1, retries=1, backoff_s=0.0).run(spec)
        assert not result.ok
        (failure,) = result.failures
        assert failure.task_id == "bad"
        assert "injected fault" in failure.error
        assert failure.attempts == 2  # first try + one retry
        assert result.value("good") is not None
        with pytest.raises(KeyError):
            result.value("bad")
        with pytest.raises(CampaignError) as err:
            result.raise_on_failure()
        assert err.value.failures == result.failures

    def test_retry_recovers_transient_fault(self, tmp_path):
        marker = str(tmp_path / "marker")
        spec = _spec(
            Task(id="flaky", fn="repro.fleet.library:fail_until_marker",
                 params={"marker": marker, "value": 9.0}),
        )
        result = FleetRunner(jobs=1, retries=2, backoff_s=0.0).run(spec)
        assert result.ok
        assert result.value("flaky") == 9.0
        assert result.results[0].attempts == 2
        assert result.telemetry.retried == 1

    def test_cache_round_trip_and_warm_run(self, tmp_path):
        spec = _spec(
            Task(id="a", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
            Task(id="b", fn="repro.fleet.library:seeded_value",
                 params={"seed": 2}),
        )
        cold = FleetRunner(jobs=1, cache=tmp_path / "c").run(spec)
        warm = FleetRunner(jobs=1, cache=tmp_path / "c").run(spec)
        assert cold.telemetry.executed == 2
        assert warm.telemetry.executed == 0
        assert warm.telemetry.cached == 2
        assert warm.values == cold.values

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetRunner(jobs=0)
        with pytest.raises(ValueError):
            FleetRunner(retries=-1)


class TestRunnerPool:
    def test_parallel_matches_serial(self):
        tasks = [
            Task(id=f"t{i}", fn="repro.fleet.library:seeded_value",
                 params={"seed": i})
            for i in range(12)
        ]
        serial = FleetRunner(jobs=1).run(_spec(*tasks))
        parallel = FleetRunner(jobs=4).run(_spec(*tasks))
        assert serial.values == parallel.values
        assert [r.task_id for r in parallel.results] == [t.id for t in tasks]

    def test_partial_results_with_fault_and_timeout(self):
        spec = _spec(
            Task(id="good", fn="repro.fleet.library:seeded_value",
                 params={"seed": 3}),
            Task(id="bad", fn="repro.fleet.library:always_fail"),
            Task(id="hung", fn="repro.fleet.library:sleep_for",
                 params={"seconds": 30.0}),
        )
        result = FleetRunner(
            jobs=2, retries=1, backoff_s=0.01, timeout_s=0.2
        ).run(spec)
        by_id = {r.task_id: r for r in result.results}
        assert by_id["good"].status == "ok"
        assert by_id["bad"].status == "failed"
        assert by_id["hung"].status == "failed"
        assert "TaskTimeout" in by_id["hung"].error
        assert result.telemetry.failed == 2
        # Hung worker was interrupted in-place, not abandoned: the
        # campaign finished in far less than the task's 30 s sleep.
        assert result.telemetry.wall_s < 10.0

    def test_worker_crash_is_a_recorded_failure(self):
        # os._exit(3) takes the worker process down hard: the pool reaps
        # it and spawns a replacement, each attempt burns one retry, and
        # the task becomes a recorded failure instead of hanging the run.
        spec = _spec(Task(id="boom", fn="os:_exit", payload=(3,)))
        result = FleetRunner(jobs=2, retries=1, backoff_s=0.01).run(spec)
        (failure,) = result.failures
        assert failure.task_id == "boom"
        assert "crash" in failure.error
        # The runner recovered: a fresh campaign on the same settings runs.
        ok = FleetRunner(jobs=2).run(_spec(
            Task(id="fine", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
        ))
        assert ok.ok

    def test_worker_crash_spares_in_flight_sibling(self):
        # The crash takes down only the worker that ran it: the healthy
        # task running beside it on the other worker still lands.
        spec = _spec(
            Task(id="slow", fn="repro.fleet.library:sleep_for",
                 params={"seconds": 1.0, "value": 7.0}),
            Task(id="boom", fn="os:_exit", payload=(3,)),
        )
        result = FleetRunner(jobs=2, retries=0).run(spec)
        slow = result.results[0]
        assert slow.status == "ok"
        assert slow.value == 7.0
        (failure,) = result.failures
        assert failure.task_id == "boom"
        assert "crash" in failure.error

    def test_worker_dying_mid_report_spares_sibling_reports(self):
        # A worker that exits holding a lock its reports take must not
        # hold up any other worker's reports: the healthy task beside
        # it is reported done, not reclaimed as stale.
        from repro.fleet.pool import WorkerPool

        pool = WorkerPool(2, heartbeat_s=0.05, heartbeat_timeout_s=2.0)
        deadline = time.monotonic() + 15.0
        done, reclaimed = [], []
        try:
            pool.start()
            while (len(pool.idle_workers()) < 2
                   and time.monotonic() < deadline):
                pool.poll()
            dying, healthy = pool.idle_workers()
            pool.assign(dying, "j", Task(
                id="dies", fn="tests.test_fleet:exit_holding_report_locks"),
                1, None)
            pool.assign(healthy, "j", Task(
                id="fine", fn="repro.fleet.library:sleep_for",
                params={"seconds": 0.5, "value": "ok"}), 1, None)
            while not (done and reclaimed) and time.monotonic() < deadline:
                done += [(event[3], event[5]["value"])
                         for event in pool.poll() if event[0] == "done"]
                reclaimed += [(task.id, reason)
                              for _, task, _, reason in pool.reap_dead()]
        finally:
            pool.shutdown()
        assert done == [("fine", "ok")]
        assert reclaimed == [("dies", f"worker {dying.id} exited (code 17)")]

    def test_unpicklable_value_is_a_recorded_failure(self):
        # The worker pickles the value itself, so a value that cannot
        # cross the process boundary fails its task instead of leaving
        # the runner waiting for a result that never arrives.
        spec = _spec(
            Task(id="lock", fn="threading:Lock"),
            Task(id="fine", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
        )
        result = FleetRunner(jobs=2, retries=0).run(spec)
        (failure,) = result.failures
        assert failure.task_id == "lock"
        assert "pickle" in failure.error
        assert result.results[1].ok

    def test_retry_across_processes(self, tmp_path):
        marker = str(tmp_path / "marker")
        spec = _spec(
            Task(id="flaky", fn="repro.fleet.library:fail_until_marker",
                 params={"marker": marker, "value": 4.0}),
        )
        result = FleetRunner(jobs=2, retries=2, backoff_s=0.01).run(spec)
        assert result.ok
        assert result.value("flaky") == 4.0


class TestTelemetry:
    def test_progress_events_and_snapshot(self, tmp_path):
        events = []

        def progress(event, task_id, telemetry, detail=None):
            events.append((event, task_id))

        spec = _spec(
            Task(id="a", fn="repro.fleet.library:seeded_value",
                 params={"seed": 1}),
            Task(id="bad", fn="repro.fleet.library:always_fail"),
        )
        runner = FleetRunner(jobs=1, retries=1, backoff_s=0.0,
                             cache=tmp_path, progress=progress)
        result = runner.run(spec)
        assert ("ok", "a") in events
        assert ("retry", "bad") in events
        assert ("failed", "bad") in events
        snap = result.telemetry.snapshot()
        assert snap["total"] == 2
        assert snap["succeeded"] == 1
        assert snap["failed"] == 1
        assert "fleet: 2 tasks" in result.telemetry.render()

        warm = FleetRunner(jobs=1, cache=tmp_path, progress=progress)
        events.clear()
        warm_result = warm.run(_spec(spec.tasks[0]))
        assert events == [("cached", "a")]
        assert warm_result.telemetry.cached == 1
