"""Worker-side task execution: the function a pool process actually runs.

Both campaign drivers run tasks through :func:`run_task` on the one
:class:`~repro.fleet.pool.WorkerPool` (the serial runner calls it
in-process).  The timeout is enforced *inside* the worker with
``SIGALRM`` rather than by the coordinator killing the worker: a kill
costs a process respawn and reads as a crash, while an in-worker alarm
interrupts the task at the deadline, frees the worker for the next
task, and surfaces as an ordinary :class:`TaskTimeout` failure the
driver can retry or record.  On platforms without ``SIGALRM`` the
timeout degrades to unenforced (documented, not silent: the record
notes enforcement was unavailable only via this docstring — results
are still correct, just unbounded).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager

from repro.fleet.errors import TaskTimeout
from repro.fleet.spec import resolve_callable

__all__ = ["execute_task", "run_task"]

#: Ring-buffer size for in-worker tracing: bounds the per-task result
#: payload shipped back through the pool's result channel.
WORKER_TRACE_CAPACITY = 4096


def _alarm_supported():
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _deadline(timeout_s):
    """Raise :class:`TaskTimeout` if the block runs past ``timeout_s``."""
    if not timeout_s or not _alarm_supported():
        yield
        return

    def _expired(signum, frame):
        raise TaskTimeout(f"task exceeded its {timeout_s:g}s budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_task(fn, params, payload=(), timeout_s=None,
                 collect_trace=False):
    """Run one task to completion; returns ``{"value", "wall_s"}``.

    With ``collect_trace`` a ring-buffered tracer is installed for the
    duration of the task and its events ride back in the outcome as
    ``trace`` (``to_dict``-shaped records, plus ``trace_dropped`` and
    ``worker_pid``) — the coordinator merges them into its own stream
    on a per-task track (see ``FleetRunner``).

    Exceptions (including :class:`TaskTimeout`) propagate to the caller
    — in a pool worker that means into an ``error`` message back to the
    driver.
    """
    start = time.perf_counter()
    if not collect_trace:
        with _deadline(timeout_s):
            value = resolve_callable(fn)(*payload, **params)
        return {"value": value, "wall_s": time.perf_counter() - start}

    from repro.obs.tracer import Tracer, installed

    tracer = Tracer(capacity=WORKER_TRACE_CAPACITY)
    with installed(tracer):
        with _deadline(timeout_s):
            value = resolve_callable(fn)(*payload, **params)
    tracer.flush()
    return {
        "value": value,
        "wall_s": time.perf_counter() - start,
        "trace": [event.to_dict() for event in tracer.events],
        "trace_dropped": tracer.dropped,
        "worker_pid": os.getpid(),
    }


def run_task(task, timeout_s=None, collect_trace=False):
    """:func:`execute_task` for a :class:`~repro.fleet.spec.Task`.

    A per-task ``timeout_s`` overrides the campaign-level default.
    """
    budget = task.timeout_s if task.timeout_s is not None else timeout_s
    return execute_task(task.fn, task.params, task.payload, budget,
                        collect_trace=collect_trace)
