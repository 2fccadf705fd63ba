"""CampaignService: a persistent, multi-tenant campaign orchestrator.

The service plays the role the Odyssey viceroy plays for applications,
one level up: it is a long-lived arbiter that multiplexes *many
clients'* campaigns onto one warm worker pool.  Where
:class:`~repro.fleet.runner.FleetRunner` builds a process pool, runs one
campaign, and tears everything down, the service accepts jobs forever:

* **submit/status/result.** A client submits a
  :class:`~repro.fleet.spec.CampaignSpec` into a *named queue* with a
  priority and gets a job id back; it polls status (state + per-task
  progress) and fetches the result when the job is terminal.
* **named priority queues.** Queues are served round-robin (so one
  tenant's giant campaign cannot starve another queue); within a queue,
  jobs run by descending priority, FIFO on ties.  One task at a time is
  dispatched per idle worker, so concurrent jobs genuinely interleave.
* **shared cache + coalescing.** All jobs share one sha256
  :class:`~repro.fleet.cache.ResultCache`.  Cache checks happen at
  dispatch time, so a task finished by *any* job (or a previous run of
  the service, or a one-shot ``repro sweep``) is served from cache; a
  task identical to one currently *in flight* for another job is parked
  and served from the cache when the running copy lands — two clients
  submitting the same campaign concurrently execute it once.
* **failure handling.** Retries/backoff/timeouts are exactly
  :class:`~repro.fleet.execution.CampaignExecution`'s — the same engine
  the one-shot runner drives — plus worker-death reclaim: when a worker
  dies or its heartbeat goes stale, its attempt is requeued (burning one
  attempt) and a replacement worker joins the pool.

**Determinism invariant.** Seeds derive from task identity
(:func:`~repro.fleet.spec.derive_seed`), never placement; the service
adds no placement information to any task.  A campaign submitted here is
therefore bit-identical to the same campaign run via ``repro sweep`` —
including when a worker dies mid-task and the attempt reruns elsewhere.
"""

from __future__ import annotations

import threading
import time

from repro.fleet.cache import ResultCache
from repro.fleet.execution import CampaignExecution
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
)
from repro.service.pool import WorkerPool

__all__ = ["CampaignService"]


class CampaignService:
    """The orchestrator: queues, a warm pool, and the shared cache.

    Parameters
    ----------
    workers:
        Warm pool size (persistent worker processes).
    cache:
        ``None``, a directory path, or a :class:`ResultCache` — shared
        by every job the service ever runs.
    retries / backoff_s / timeout_s:
        Default :class:`CampaignExecution` parameters for submitted
        jobs (a submission may override ``retries``/``timeout_s``).
    heartbeat_s / heartbeat_timeout_s:
        Worker heartbeat period and the staleness bound past which a
        worker is declared dead and its work reclaimed.
    poll_s:
        Scheduler loop granularity (how long one pass waits for worker
        messages when otherwise idle).
    """

    def __init__(self, workers=2, cache=None, retries=2, backoff_s=0.05,
                 timeout_s=None, heartbeat_s=0.2, heartbeat_timeout_s=5.0,
                 poll_s=0.05, tracer=None, metrics=None):
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.tracer = tracer if tracer is not None else current_tracer()
        self._trace = self.tracer.gate("service")
        self.metrics = metrics if metrics is not None else current_metrics()
        self._m_submitted = self.metrics.counter("service.jobs_submitted")
        self._m_done = self.metrics.counter("service.jobs_done")
        self._m_failed = self.metrics.counter("service.jobs_failed")
        self._m_reclaimed = self.metrics.counter("service.tasks_reclaimed")
        self._m_coalesced = self.metrics.counter("service.tasks_coalesced")
        self._m_queue_depth = self.metrics.gauge("fleet.queue_depth")
        self._m_beat_age = self.metrics.gauge("fleet.heartbeat_age_s")

        self.pool = WorkerPool(workers, heartbeat_s=heartbeat_s,
                               heartbeat_timeout_s=heartbeat_timeout_s)
        self._lock = threading.RLock()
        self._jobs = {}
        self._seq = 0
        #: queue name → insertion-ordered presence (round-robin cursor
        #: walks the sorted names).
        self._rr_cursor = 0
        #: cache key → (job_id, task_id) currently executing that key.
        self._inflight_keys = {}
        #: cache key → list of (job, task) parked on the in-flight copy.
        self._parked = {}
        self._stop = threading.Event()
        self._thread = None
        self.started_at = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the warm pool and the scheduler thread; idempotent."""
        with self._lock:
            if self._thread is not None:
                return self
            self.pool.start()
            self.started_at = time.monotonic()
            self._thread = threading.Thread(
                target=self._run, name="repro-service-scheduler", daemon=True,
            )
            self._thread.start()
        if self._trace is not None:
            self._trace.instant(
                self.tracer.wall(), "service", "service.start",
                track="service", args={"workers": self.pool.size},
            )
        return self

    def stop(self):
        """Stop the scheduler and the pool; idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(5.0)
        self.pool.shutdown()
        if self._trace is not None:
            self._trace.instant(
                self.tracer.wall(), "service", "service.stop",
                track="service", args={},
            )

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, spec, queue="default", priority=0, client=None,
               retries=None, timeout_s=None):
        """Accept a campaign; returns its job id immediately."""
        if self._stop.is_set():
            raise RuntimeError("service is shutting down")
        with self._lock:
            self._seq += 1
            job_id = f"j{self._seq:04d}"
            execution = CampaignExecution(
                spec,
                cache=self.cache,
                retries=self.retries if retries is None else retries,
                backoff_s=self.backoff_s,
                timeout_s=self.timeout_s if timeout_s is None else timeout_s,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            job = JobRecord(job_id, spec, execution, queue=queue,
                            priority=priority, client=client, seq=self._seq)
            job.state = QUEUED
            self._jobs[job_id] = job
            self._m_submitted.inc()
        if self._trace is not None:
            self._trace.instant(
                self.tracer.wall(), "service", "job.submit",
                track=f"q/{queue}",
                args={"job": job_id, "campaign": spec.name,
                      "tasks": len(spec.tasks), "priority": priority,
                      "client": client},
            )
        return job_id

    def status(self, job_id):
        with self._lock:
            return self._job(job_id).status_payload()

    def result(self, job_id):
        with self._lock:
            return self._job(job_id).result_payload()

    def jobs(self):
        """Summaries of every job, newest first."""
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda j: -j.seq)
            return [
                {"job_id": j.job_id, "campaign": j.spec.name,
                 "queue": j.queue, "priority": j.priority,
                 "state": j.state, "done": j.execution.telemetry.done,
                 "total": j.execution.telemetry.total}
                for j in records
            ]

    def queues(self):
        """Per-queue depth: jobs and not-yet-terminal tasks."""
        with self._lock:
            summary = {}
            for job in self._jobs.values():
                entry = summary.setdefault(
                    job.queue,
                    {"jobs": 0, "active_jobs": 0, "pending_tasks": 0},
                )
                entry["jobs"] += 1
                if not job.terminal:
                    entry["active_jobs"] += 1
                    entry["pending_tasks"] += (
                        job.execution.telemetry.total
                        - job.execution.telemetry.done
                    )
            return summary

    def workers(self):
        # Under the lock, a worker shown holding a task is always shown
        # registered, with its pid: dispatch cannot interleave the read.
        with self._lock:
            return self.pool.snapshot()

    def wait(self, job_id, timeout=None, poll_s=0.05):
        """Block until ``job_id`` is terminal; returns its status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in (DONE, FAILED):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll_s)

    def _job(self, job_id):
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no job {job_id!r}") from None

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _run(self):
        while not self._stop.is_set():
            self._pass()
        # Drain one final pass so stop() observes settled bookkeeping.
        with self._lock:
            self._update_gauges()

    def _pass(self):
        events = self.pool.poll(timeout=self.poll_s)
        with self._lock:
            for event in events:
                self._apply_event(*event)
            for job_id, task, attempt, reason in self.pool.reap_dead():
                self._reclaim(job_id, task, attempt, reason)
            self._dispatch_ready()
            self._finish_done_jobs()
            self._update_gauges()

    # -- event application ---------------------------------------------
    def _apply_event(self, kind, worker_id, job_id, task_id, attempt,
                     payload):
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return
        task = next((t for t in job.spec.tasks if t.id == task_id), None)
        if task is None:
            return
        job.running_tasks.discard(task_id)
        job.execution.telemetry.running -= 1
        if kind == "done":
            job.execution.record_success(task, payload, attempt)
            self._unpark(task, payload)
        else:
            job.execution.record_error(task, payload, attempt)
            self._release_inflight(task, failed=True)

    def _reclaim(self, job_id, task, attempt, reason):
        """A worker died holding this attempt: burn it, retry elsewhere."""
        job = self._jobs.get(job_id)
        self._m_reclaimed.inc()
        if self._trace is not None:
            self._trace.instant(
                self.tracer.wall(), "service", "task.reclaimed",
                track="service",
                args={"job": job_id, "task": task.id, "attempt": attempt,
                      "reason": reason},
            )
        if job is None or job.terminal:
            return
        job.running_tasks.discard(task.id)
        job.execution.telemetry.running -= 1
        job.execution.record_error(task, reason, attempt)
        self._release_inflight(task, failed=True)

    # -- coalescing ----------------------------------------------------
    def _unpark(self, task, outcome):
        """An in-flight key landed: serve every parked duplicate."""
        key = task.key()
        if key is None:
            return
        self._inflight_keys.pop(key, None)
        for parked_job, parked_task in self._parked.pop(key, ()):
            if parked_job.terminal:
                continue
            parked_job.parked_tasks.pop(parked_task.id, None)
            record = self.cache.get(key) if self.cache else None
            if record is None:
                # No cache attached (or eviction raced us): fall back to
                # the outcome we just observed — same value, same bytes.
                record = {"value": outcome["value"],
                          "wall_s": outcome["wall_s"]}
            parked_job.execution.record_cached(parked_task, record)
            self._m_coalesced.inc()

    def _release_inflight(self, task, failed=False):
        """A running key failed: let parked duplicates run it themselves."""
        key = task.key()
        if key is None:
            return
        self._inflight_keys.pop(key, None)
        for parked_job, parked_task in self._parked.pop(key, ()):
            if parked_job.terminal:
                continue
            parked_job.parked_tasks.pop(parked_task.id, None)
            parked_job.pending.insert(0, parked_task)

    # -- dispatch ------------------------------------------------------
    def _ready_jobs(self):
        """Active jobs grouped by queue, in scheduling order."""
        by_queue = {}
        for job in self._jobs.values():
            if job.terminal:
                continue
            by_queue.setdefault(job.queue, []).append(job)
        for jobs in by_queue.values():
            jobs.sort(key=JobRecord.sort_key)
        return by_queue

    def _next_attempt(self, job):
        """The next runnable ``(task, attempt)`` of ``job``, or ``None``.

        Retries whose backoff expired take precedence over first
        attempts, matching the one-shot pool's drain order.
        """
        job.retry_ready.extend(job.execution.pop_due())
        if job.retry_ready:
            return job.retry_ready.pop(0)
        while job.pending:
            task = job.pending.pop(0)
            if job.execution.try_cache(task):
                continue
            key = task.key()
            if key is not None and key in self._inflight_keys:
                holder = self._inflight_keys[key]
                if holder != (job.job_id, task.id):
                    job.parked_tasks[task.id] = key
                    self._parked.setdefault(key, []).append((job, task))
                    continue
            return task, 1
        return None

    def _dispatch_ready(self):
        idle = self.pool.idle_workers()
        if not idle:
            return
        by_queue = self._ready_jobs()
        if not by_queue:
            return
        queue_names = sorted(by_queue)
        for handle in idle:
            assigned = False
            for _ in range(len(queue_names)):
                queue = queue_names[self._rr_cursor % len(queue_names)]
                self._rr_cursor += 1
                for job in by_queue[queue]:
                    picked = self._next_attempt(job)
                    if picked is None:
                        continue
                    task, attempt = picked
                    if job.state == QUEUED:
                        job.state = RUNNING
                    job.execution.note_attempt()
                    job.execution.telemetry.running += 1
                    job.running_tasks.add(task.id)
                    key = task.key()
                    if key is not None:
                        self._inflight_keys[key] = (job.job_id, task.id)
                    self.pool.assign(
                        handle, job.job_id, task, attempt,
                        job.execution.task_budget(task),
                    )
                    assigned = True
                    break
                if assigned:
                    break
            if not assigned:
                break  # nothing runnable anywhere

    def _finish_done_jobs(self):
        for job in self._jobs.values():
            if job.terminal or not job.execution.done:
                continue
            job.finish()
            (self._m_done if job.state == DONE else self._m_failed).inc()
            if self._trace is not None:
                wall = job.execution.telemetry.wall_s
                end = self.tracer.wall()
                self._trace.complete(
                    max(0.0, end - wall), "service", "job", dur=wall,
                    track=f"job/{job.job_id}",
                    args={"campaign": job.spec.name, "queue": job.queue,
                          "state": job.state,
                          **job.execution.telemetry.snapshot()},
                )

    def _update_gauges(self):
        depth = 0
        for job in self._jobs.values():
            if job.terminal:
                continue
            telemetry = job.execution.telemetry
            depth += telemetry.total - telemetry.done - telemetry.running
        self._m_queue_depth.set(depth)
        self._m_beat_age.set(round(self.pool.max_beat_age(), 3))

    # ------------------------------------------------------------------
    def snapshot(self):
        """One JSON-able view of the whole service (the /health body)."""
        with self._lock:
            return {
                "workers": len(self.pool),
                "reclaimed_workers": self.pool.reclaimed_workers,
                "jobs": len(self._jobs),
                "queues": self.queues(),
                "uptime_s": (
                    round(time.monotonic() - self.started_at, 3)
                    if self.started_at is not None else 0.0
                ),
            }
