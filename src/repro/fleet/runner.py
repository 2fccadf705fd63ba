"""FleetRunner: execute a campaign across a process pool, fault-tolerantly.

Execution contract:

* **Determinism.** Tasks are independent and individually deterministic,
  so results depend only on each task's spec — never on worker count or
  completion order.  ``CampaignResult.results`` is always in campaign
  task order, which makes serial (``jobs=1``) and parallel aggregates
  bit-identical.
* **Fault tolerance.** A task that raises, times out, or takes its
  worker process down is retried up to ``retries`` times with
  exponential backoff; a task that exhausts its attempts becomes a
  *recorded failure* — the campaign still completes and returns every
  other result.  Failures are never silently dropped.  A dead worker
  costs only the attempt it held: the pool replaces it and every other
  in-flight task runs on.
* **Caching.** With a cache attached, each cacheable task's result is
  stored under its stable spec hash; a re-run executes only tasks whose
  spec changed.
* **Serial path.** ``jobs=1`` runs everything in-process with the same
  retry/cache/telemetry semantics and zero pool overhead — it is both
  the speedup baseline and the degenerate case.

The retry/cache/telemetry semantics themselves live in
:class:`~repro.fleet.execution.CampaignExecution`; this module only
decides *where* attempts run: in-process, or on a
:class:`~repro.fleet.pool.WorkerPool` started for the one campaign.
The persistent :mod:`repro.service` keeps the same pool warm across
jobs and drives the same execution engine, so one-shot and service
campaigns are bit-identical.
"""

from __future__ import annotations

import os
import time

from repro.fleet.cache import ResultCache
from repro.fleet.execution import (
    CampaignExecution,
    CampaignResult,
    TaskResult,
    describe_error,
)
from repro.fleet.worker import run_task
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer

__all__ = ["FleetRunner", "TaskResult", "CampaignResult"]


class FleetRunner:
    """Run :class:`~repro.fleet.spec.CampaignSpec` instances.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``, ``1`` runs
        serially in-process.
    timeout_s:
        Default per-task wall-clock budget, enforced inside workers
        (see :mod:`repro.fleet.worker`).  ``Task.timeout_s`` overrides.
    retries:
        Extra attempts after the first failure of a task.
    backoff_s:
        Base retry delay; attempt *n* waits ``backoff_s * 2**(n-1)``.
    cache:
        ``None``, a directory path, or a :class:`ResultCache`.
    progress:
        Optional callable ``progress(event, task_id, telemetry, detail)``
        invoked on cached/ok/failed/retry events.
    worker_trace:
        Collect a ring-buffered trace *inside* each worker and merge it
        into the coordinator's stream when the task completes: every
        worker event re-emits under the ``fleet`` category on a
        ``w<pid>/<task-id>`` track, named ``<orig-cat>/<orig-name>`` —
        so per-task sim activity is visible without polluting the
        coordinator's sim-domain categories (decision spines and power
        joins never read ``fleet``).  Effective only when the
        coordinator's own ``fleet`` gate is open.
    """

    def __init__(self, jobs=None, timeout_s=None, retries=2,
                 backoff_s=0.05, cache=None, progress=None,
                 tracer=None, metrics=None, worker_trace=False):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        # Tracing happens at the coordinator (pool workers are separate
        # processes) with wall-clock timestamps on the "fleet" category.
        self.tracer = tracer if tracer is not None else current_tracer()
        self._trace = self.tracer.gate("fleet")
        # Shipping worker rings is pure overhead when nothing records
        # them, so the flag only takes effect with an open fleet gate.
        self.worker_trace = bool(worker_trace) and self._trace is not None
        self.metrics = metrics if metrics is not None else current_metrics()

    def _execution(self, spec):
        return CampaignExecution(
            spec, cache=self.cache, retries=self.retries,
            backoff_s=self.backoff_s, timeout_s=self.timeout_s,
            progress=self.progress, tracer=self.tracer,
            metrics=self.metrics, worker_trace=self.worker_trace,
        )

    # ------------------------------------------------------------------
    def run(self, spec):
        """Execute every task; returns a :class:`CampaignResult`."""
        execution = self._execution(spec)
        pending = execution.admit()
        if pending:
            if self.jobs == 1:
                self._run_serial(execution, pending)
            else:
                self._run_pool(execution, pending)
        return execution.finish()

    # ------------------------------------------------------------------
    def _run_serial(self, execution, tasks):
        for task in tasks:
            attempt = 1
            while True:
                execution.note_attempt()
                try:
                    outcome = run_task(task, execution.timeout_s,
                                       collect_trace=execution.worker_trace)
                except Exception as exc:
                    due = execution.record_error(
                        task, describe_error(exc), attempt
                    )
                    if due is None:
                        break
                    while True:
                        time.sleep(max(0.0, due - time.monotonic()))
                        popped = execution.pop_due()
                        if popped:
                            ((task, attempt),) = popped
                            break
                else:
                    execution.record_success(task, outcome, attempt)
                    break

    # ------------------------------------------------------------------
    def _run_pool(self, execution, tasks):
        from repro.fleet.pool import WorkerPool

        telemetry = execution.telemetry
        by_id = {task.id: task for task in tasks}
        first = list(reversed(tasks))  # first attempts, popped in order
        due = []  # retries whose backoff expired
        pool = WorkerPool(min(self.jobs, len(tasks))).start()
        try:
            while not execution.done:
                due.extend(execution.pop_due())
                for handle in pool.idle_workers():
                    if due:
                        task, attempt = due.pop(0)
                    elif first:
                        task, attempt = first.pop(), 1
                    else:
                        break
                    execution.note_attempt()
                    telemetry.running += 1
                    pool.assign(handle, None, task, attempt,
                                execution.task_budget(task),
                                execution.worker_trace)
                for kind, _, _, task_id, attempt, payload in pool.poll():
                    telemetry.running -= 1
                    if kind == "done":
                        execution.record_success(by_id[task_id], payload,
                                                 attempt)
                    else:
                        execution.record_error(by_id[task_id], payload,
                                               attempt)
                for _, task, attempt, reason in pool.reap_dead():
                    telemetry.running -= 1
                    execution.record_error(
                        task, f"worker process crashed ({reason})", attempt
                    )
        finally:
            pool.shutdown()
