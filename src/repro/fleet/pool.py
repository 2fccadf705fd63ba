"""The worker pool: persistent processes, heartbeats, reclaim.

This is the one process pool in the package, and both campaign drivers
run on it.  :class:`~repro.fleet.runner.FleetRunner` starts one for a
``jobs > 1`` campaign and shuts it down when the campaign completes;
:class:`~repro.service.core.CampaignService` keeps one warm for every
job the service ever accepts.  The design keeps placement fully
observable so failure handling can be exact:

* every worker has its **own inbox** queue and is handed **one task at
  a time** — the coordinator always knows precisely which attempt a
  worker holds, so a dead worker's work can be requeued without
  guessing;
* every worker reports on its **own one-way channel**, so no lock is
  shared between processes: a worker that dies mid-report (``os._exit``,
  a terminate) takes only its own channel with it, never a lock its
  siblings' reports wait on;
* workers **register** on startup and **heartbeat** on a side thread
  (so a worker busy simulating still beats); the coordinator treats a
  worker as dead when its process exits *or* its heartbeat goes stale —
  the latter catches wedged processes that are technically alive;
* a dead worker is killed, its in-flight attempt is **reclaimed** for
  the scheduler to retry elsewhere, and a **replacement worker** is
  spawned so the pool stays at its configured size.  A dead worker
  therefore costs only the attempt it held; tasks on other workers run
  on undisturbed.

Task execution inside a worker is :func:`repro.fleet.worker.run_task` —
the same function, with the same in-worker ``SIGALRM`` timeout, that
the serial runner calls in-process — so a task behaves identically on
either path.  Nothing about placement (worker id, pid, attempt timing)
ever reaches task parameters, which is half of the determinism
invariant: serial == ``jobs=N`` == service.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
import time
from multiprocessing.connection import wait

from repro.fleet.execution import describe_error
from repro.fleet.worker import run_task

__all__ = ["WorkerPool", "WorkerHandle"]

#: Worker → coordinator message kinds.
REGISTER, HEARTBEAT, START, DONE, ERROR = (
    "register", "heartbeat", "start", "done", "error",
)


def _worker_main(worker_id, inbox, channel, heartbeat_s):
    """The loop a pool process runs: register, beat, execute, report.

    Reports go down ``channel``, the write end of this worker's own
    pipe; the main and heartbeat threads take turns on a process-local
    lock.
    """
    send_lock = threading.Lock()

    def send(*message):
        with send_lock:
            channel.send(message)

    send(REGISTER, worker_id, multiprocessing.current_process().pid)
    stop_beating = threading.Event()

    def beat():
        while not stop_beating.wait(heartbeat_s):
            send(HEARTBEAT, worker_id, time.monotonic())

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            item = inbox.get()
            if item is None:
                break
            job_id, task, attempt, timeout_s, collect_trace = item
            send(START, worker_id, job_id, task.id, attempt)
            try:
                # Pickled inside the try, so an unpicklable value is
                # reported as the task's error.
                outcome = pickle.dumps(run_task(task, timeout_s,
                                                collect_trace=collect_trace))
            except BaseException as exc:  # noqa: BLE001 — report, don't die
                send(ERROR, worker_id, job_id, task.id, attempt,
                     describe_error(exc))
            else:
                send(DONE, worker_id, job_id, task.id, attempt, outcome)
    finally:
        stop_beating.set()


class WorkerHandle:
    """Coordinator-side view of one pool worker."""

    def __init__(self, worker_id, process, inbox, channel):
        self.id = worker_id
        self.process = process
        self.inbox = inbox
        #: Read end of the worker's report pipe; ``None`` once it closed.
        self.channel = channel
        self.pid = None
        self.registered = False
        self.last_beat = time.monotonic()
        #: ``(job_id, task, attempt)`` currently dispatched, or ``None``.
        self.current = None
        self.completed = 0

    def close_channel(self):
        if self.channel is not None:
            self.channel.close()
            self.channel = None

    @property
    def idle(self):
        return self.registered and self.current is None

    def beat_age(self, now=None):
        return (now if now is not None else time.monotonic()) - self.last_beat

    def snapshot(self, now=None):
        return {
            "id": self.id,
            "pid": self.pid,
            "alive": self.process.is_alive(),
            "registered": self.registered,
            "heartbeat_age_s": round(self.beat_age(now), 3),
            "current": (
                {"job": self.current[0], "task": self.current[1].id,
                 "attempt": self.current[2]}
                if self.current else None
            ),
            "completed": self.completed,
        }


class WorkerPool:
    """A fixed-size pool of persistent, heartbeating worker processes.

    The pool is a passive mechanism: it moves tasks and messages, and
    detects death.  All scheduling *policy* (which task runs next, retry
    budgets) lives in its driver, :class:`~repro.fleet.runner.FleetRunner`
    or :class:`~repro.service.core.CampaignService`.
    """

    def __init__(self, size, heartbeat_s=0.2, heartbeat_timeout_s=5.0):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                f"heartbeat_timeout_s ({heartbeat_timeout_s}) must exceed "
                f"heartbeat_s ({heartbeat_s})"
            )
        self.size = size
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._ctx = multiprocessing.get_context()
        self.workers = {}
        self._ids = itertools.count(1)
        self._started = False
        #: Monotonically counts workers declared dead and replaced.
        self.reclaimed_workers = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return self
        self._started = True
        for _ in range(self.size):
            self._spawn()
        return self

    def _spawn(self):
        worker_id = f"w{next(self._ids)}"
        inbox = self._ctx.Queue()
        channel, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, writer, self.heartbeat_s),
            daemon=True,
            name=f"repro-pool-{worker_id}",
        )
        process.start()
        # The worker holds the only write end, so its exit reads as EOF.
        writer.close()
        handle = WorkerHandle(worker_id, process, inbox, channel)
        self.workers[worker_id] = handle
        return handle

    def shutdown(self):
        """Stop every worker; idempotent."""
        for handle in self.workers.values():
            try:
                handle.inbox.put_nowait(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self.workers.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            handle.close_channel()
        self.workers.clear()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def idle_workers(self):
        return [h for h in self.workers.values() if h.idle]

    def assign(self, handle, job_id, task, attempt, timeout_s,
               collect_trace=False):
        """Hand one attempt to an idle worker."""
        if handle.current is not None:
            raise RuntimeError(f"worker {handle.id} is busy")
        handle.current = (job_id, task, attempt)
        handle.inbox.put((job_id, task, attempt, timeout_s, collect_trace))

    # ------------------------------------------------------------------
    # message pump
    # ------------------------------------------------------------------
    def poll(self, timeout=0.05):
        """Drain worker messages; returns completed/errored attempts.

        Waits up to ``timeout`` for the first message, then reads every
        channel until none is ready.  Registration, heartbeats and
        ``start`` markers are absorbed into worker handles; a channel at
        EOF (its worker exited) is closed.  Returns a list of
        ``(kind, worker_id, job_id, task_id, attempt, payload)`` tuples
        for ``kind`` in ``{"done", "error"}``.
        """
        events = []
        handles = {handle.channel: handle for handle in self.workers.values()
                   if handle.channel is not None}
        ready = wait(list(handles), timeout)
        while ready:
            for channel in ready:
                handle = handles[channel]
                try:
                    message = channel.recv()
                except (EOFError, OSError):
                    # The worker is gone; reap_dead replaces it.
                    del handles[channel]
                    handle.close_channel()
                    continue
                self._absorb(handle, message, events)
            ready = wait(list(handles), 0.0)  # drain without waiting
        return events

    @staticmethod
    def _absorb(handle, message, events):
        kind = message[0]
        # Every message is a sign of life; a heartbeat is only that, and
        # a ``start`` echoes what assign() already recorded.
        handle.last_beat = time.monotonic()
        if kind == REGISTER:
            handle.registered = True
            handle.pid = message[2]
        elif kind in (DONE, ERROR):
            _, worker_id, job_id, task_id, attempt, payload = message
            if kind == DONE:
                payload = pickle.loads(payload)
            handle.current = None
            handle.completed += 1
            events.append((kind, worker_id, job_id, task_id, attempt,
                           payload))

    # ------------------------------------------------------------------
    # death
    # ------------------------------------------------------------------
    def reap_dead(self, now=None):
        """Kill and replace dead workers; returns reclaimed attempts.

        A worker is dead when its process has exited, or when it has
        not heartbeaten within ``heartbeat_timeout_s`` (a wedged-but-
        alive process; ``SIGSTOP``, a native hang).  Its in-flight
        attempt — if any — is returned as ``(job_id, task, attempt,
        reason)`` for the service to retry elsewhere; a replacement
        worker is spawned immediately so capacity never decays.
        """
        if now is None:
            now = time.monotonic()
        reclaimed = []
        for worker_id in list(self.workers):
            handle = self.workers[worker_id]
            alive = handle.process.is_alive()
            stale = (handle.registered
                     and handle.beat_age(now) > self.heartbeat_timeout_s)
            if alive and not stale:
                continue
            reason = (
                f"worker {worker_id} "
                + (f"exited (code {handle.process.exitcode})" if not alive
                   else f"heartbeat stale ({handle.beat_age(now):.1f}s)")
            )
            if alive:
                handle.process.terminate()
                handle.process.join(1.0)
                if handle.process.is_alive():  # pragma: no cover
                    handle.process.kill()
                    handle.process.join(1.0)
            if handle.current is not None:
                job_id, task, attempt = handle.current
                reclaimed.append((job_id, task, attempt, reason))
            handle.close_channel()
            del self.workers[worker_id]
            self.reclaimed_workers += 1
            self._spawn()
        return reclaimed

    # ------------------------------------------------------------------
    def max_beat_age(self, now=None):
        """Oldest heartbeat across live workers (the exported gauge)."""
        if not self.workers:
            return 0.0
        if now is None:
            now = time.monotonic()
        return max(h.beat_age(now) for h in self.workers.values())

    def snapshot(self):
        now = time.monotonic()
        return [self.workers[k].snapshot(now) for k in sorted(self.workers)]

    def __len__(self):
        return len(self.workers)
