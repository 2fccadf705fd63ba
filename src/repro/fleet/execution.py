"""CampaignExecution: the placement-independent half of a campaign run.

Everything about a campaign's progress that does not depend on *where*
tasks execute lives here: cache admission, retry budgets with backoff
deadlines, outcome recording (cache writes, telemetry counters, metrics,
tracing, progress callbacks), and assembly of the ordered
:class:`~repro.fleet.runner.CampaignResult`.  Drivers feed it outcomes
and ask it what to run next:

* :class:`~repro.fleet.runner.FleetRunner` drives one execution per
  ``run()`` call — serially in-process or on a
  :class:`~repro.fleet.pool.WorkerPool` started for the campaign — and
  tears it down when the campaign completes;
* :class:`~repro.service.core.CampaignService` keeps one execution per
  submitted *job* and multiplexes many of them onto the same pool kept
  warm, reusing exactly the same retry/cache/telemetry semantics.

Both drivers feed a dead worker's attempt back as one ordinary
:meth:`CampaignExecution.record_error`, so a crash costs only the
attempt that worker held.  Because the execution never sees worker
identities, a campaign's results depend only on its spec: the same spec
driven by either driver — or re-driven after a worker died mid-task —
produces bit-identical results.
"""

from __future__ import annotations

import heapq
import itertools
import time

from dataclasses import dataclass

from repro.fleet.cache import ResultCache
from repro.fleet.telemetry import FleetTelemetry
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer

__all__ = [
    "CampaignExecution",
    "TaskResult",
    "CampaignResult",
    "describe_error",
    "OK",
    "CACHED",
    "FAILED",
]

#: Terminal task states.
OK, CACHED, FAILED = "ok", "cached", "failed"


def describe_error(exc):
    """One-line ``TypeName: message`` rendering of an exception."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task: a value, a cache hit, or a recorded failure."""

    task_id: str
    status: str
    value: object = None
    error: str = None
    attempts: int = 0
    wall_s: float = 0.0

    @property
    def ok(self):
        return self.status in (OK, CACHED)


@dataclass(frozen=True)
class CampaignResult:
    """Every task's outcome, in campaign order, plus run telemetry."""

    spec: object
    results: tuple
    telemetry: FleetTelemetry

    @property
    def values(self):
        """``{task_id: value}`` for every task that produced a value."""
        return {r.task_id: r.value for r in self.results if r.ok}

    @property
    def failures(self):
        return tuple(r for r in self.results if r.status == FAILED)

    @property
    def ok(self):
        return not self.failures

    def value(self, task_id):
        """The value of one task; raises if it failed or is unknown."""
        for result in self.results:
            if result.task_id == task_id:
                if not result.ok:
                    raise KeyError(
                        f"task {task_id!r} failed: {result.error}"
                    )
                return result.value
        raise KeyError(f"no task {task_id!r} in campaign {self.spec.name!r}")

    def raise_on_failure(self):
        """Raise :class:`~repro.fleet.errors.CampaignError` if any task failed."""
        if self.failures:
            from repro.fleet.errors import CampaignError

            summary = "; ".join(
                f"{r.task_id}: {r.error}" for r in self.failures
            )
            raise CampaignError(
                f"{len(self.failures)} of {len(self.results)} tasks failed "
                f"in campaign {self.spec.name!r}: {summary}",
                failures=self.failures,
            )
        return self


class CampaignExecution:
    """Scheduling/retry/cache state machine for one campaign.

    Parameters mirror :class:`~repro.fleet.runner.FleetRunner`'s; the
    runner simply forwards its own.  ``clock`` is injectable for tests.

    The driver contract:

    * call :meth:`admit` once (or :meth:`try_cache` per task, lazily)
      to resolve cache hits;
    * call :meth:`note_attempt` when an attempt is actually submitted
      somewhere, then :meth:`record_success` or :meth:`record_error`
      with its outcome;
    * poll :meth:`pop_due` / :meth:`next_due` to learn when backoff
      timers expire and which ``(task, attempt)`` pairs to resubmit;
    * when :attr:`done` turns true, call :meth:`finish` exactly once.
    """

    def __init__(self, spec, cache=None, retries=2, backoff_s=0.05,
                 timeout_s=None, progress=None, tracer=None, metrics=None,
                 worker_trace=False, clock=time.monotonic):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.spec = spec
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.progress = progress
        self.tracer = tracer if tracer is not None else current_tracer()
        self._trace = self.tracer.gate("fleet")
        self.worker_trace = bool(worker_trace) and self._trace is not None
        self.metrics = metrics if metrics is not None else current_metrics()
        self._m_events = {
            OK: self.metrics.counter("fleet.tasks_ok"),
            CACHED: self.metrics.counter("fleet.tasks_cached"),
            FAILED: self.metrics.counter("fleet.tasks_failed"),
            "retry": self.metrics.counter("fleet.retries"),
        }
        self._m_cache_hit = self.metrics.counter("fleet.cache_hit")
        self._m_task_wall = self.metrics.histogram("fleet.task_wall_s")
        self._m_queue_depth = self.metrics.gauge("fleet.queue_depth")

        self.telemetry = FleetTelemetry(total=len(spec.tasks))
        self.results = {}
        self._clock = clock
        self._started = clock()
        self._campaign_t0 = (
            self.tracer.wall() if self._trace is not None else 0.0
        )
        self._retry_heap = []  # (due_time, tiebreak, task, next_attempt)
        self._tiebreak = itertools.count()
        self._finished = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self):
        """Resolve cache hits for every task; returns the pending rest."""
        pending = []
        for task in self.spec.tasks:
            if not self.try_cache(task):
                pending.append(task)
        return pending

    def try_cache(self, task):
        """Serve ``task`` from the cache if possible; True on a hit."""
        record = self.cache.get(task.key()) if self.cache else None
        if record is None:
            return False
        self.record_cached(task, record)
        return True

    def record_cached(self, task, record):
        """Record a cache-served result (a hit here or a shared one)."""
        self.results[task.id] = TaskResult(
            task.id, CACHED, value=record["value"],
            wall_s=record.get("wall_s", 0.0),
        )
        self.telemetry.cached += 1
        self._m_cache_hit.inc()
        self._emit(CACHED, task.id)

    # ------------------------------------------------------------------
    # outcome recording
    # ------------------------------------------------------------------
    def note_attempt(self):
        """Count one attempt actually dispatched to a worker."""
        self.telemetry.attempts += 1

    def task_budget(self, task):
        """Effective per-task timeout: task override, else the default."""
        return task.timeout_s if task.timeout_s is not None else self.timeout_s

    def record_success(self, task, outcome, attempt):
        self.results[task.id] = TaskResult(
            task.id, OK, value=outcome["value"],
            attempts=attempt, wall_s=outcome["wall_s"],
        )
        self.telemetry.succeeded += 1
        self.telemetry.busy_s += outcome["wall_s"]
        value = outcome["value"]
        if isinstance(value, dict) and value.get("snapshot_restored"):
            self.telemetry.restored += 1
        self._merge_worker_trace(task, outcome)
        self._m_task_wall.observe(outcome["wall_s"])
        if self._trace is not None:
            end = self.tracer.wall()
            self._trace.complete(
                max(0.0, end - outcome["wall_s"]), "fleet", "task",
                dur=outcome["wall_s"], track="tasks",
                args={"task": task.id, "attempts": attempt},
            )
        if self.cache is not None and task.cacheable:
            self.cache.put(task.key(), {
                "fn": task.fn,
                "params": task.params,
                "value": outcome["value"],
                "wall_s": outcome["wall_s"],
            })
        self._emit(OK, task.id, f"{outcome['wall_s']:.3f}s")

    def record_error(self, task, error, attempt):
        """Record a failed attempt; returns the retry due time, or
        ``None`` when the task's budget is exhausted (permanent failure).
        """
        if attempt <= self.retries:
            self.telemetry.retried += 1
            self._emit("retry", task.id, error)
            due = self._clock() + self.backoff_s * 2 ** (attempt - 1)
            heapq.heappush(
                self._retry_heap, (due, next(self._tiebreak), task,
                                   attempt + 1)
            )
            return due
        self.results[task.id] = TaskResult(
            task.id, FAILED, error=error, attempts=attempt,
        )
        self.telemetry.failed += 1
        self._emit(FAILED, task.id, error)
        return None

    # ------------------------------------------------------------------
    # retry timers
    # ------------------------------------------------------------------
    def pop_due(self, now=None):
        """Every ``(task, attempt)`` whose backoff expired by ``now``."""
        if now is None:
            now = self._clock()
        due = []
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task, attempt = heapq.heappop(self._retry_heap)
            due.append((task, attempt))
        return due

    def next_due(self):
        """Earliest pending retry deadline, or ``None``."""
        return self._retry_heap[0][0] if self._retry_heap else None

    @property
    def awaiting_retry(self):
        return len(self._retry_heap)

    @property
    def done(self):
        """True once every task reached a terminal state."""
        return self.telemetry.done >= self.telemetry.total

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finish(self):
        """Stamp wall time, emit the campaign span, assemble the result."""
        if self._finished:
            raise RuntimeError(
                f"campaign {self.spec.name!r} already finished"
            )
        self._finished = True
        self.telemetry.wall_s = self._clock() - self._started
        if self._trace is not None:
            self._trace.complete(
                self._campaign_t0, "fleet", "campaign",
                dur=self.telemetry.wall_s, track="campaign",
                args={"name": self.spec.name, **self.telemetry.snapshot()},
            )
        ordered = tuple(self.results[task.id] for task in self.spec.tasks)
        return CampaignResult(spec=self.spec, results=ordered,
                              telemetry=self.telemetry)

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------
    def _emit(self, event, task_id, detail=None):
        counter = self._m_events.get(event)
        if counter is not None:
            counter.inc()
        self._m_queue_depth.set(self.telemetry.queued)
        if self._trace is not None and event != OK:
            # OK tasks get a complete-span from record_success instead.
            args = {"task": task_id, "done": self.telemetry.done}
            if detail:
                args["detail"] = detail
            self._trace.instant(
                self.tracer.wall(), "fleet", f"task.{event}",
                track="tasks", args=args,
            )
        if self.progress is not None:
            self.progress(event, task_id, self.telemetry, detail)

    def _merge_worker_trace(self, task, outcome):
        """Replay one worker's ring buffer onto a per-task fleet track."""
        records = outcome.get("trace")
        if self._trace is None or not records:
            return
        worker = outcome.get("worker_pid")
        track = f"w{worker}/{task.id}" if worker is not None else f"w/{task.id}"
        for record in records:
            self._trace.replay(
                record, cat="fleet",
                name=f"{record.get('cat', '?')}/{record.get('name', '?')}",
                track=track,
            )
        dropped = outcome.get("trace_dropped", 0)
        if dropped:
            self._trace.instant(
                self.tracer.wall(), "fleet", "task.trace_dropped",
                track=track, args={"task": task.id, "dropped": dropped},
            )
