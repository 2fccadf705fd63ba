"""The discrete-event simulation kernel.

The kernel is deliberately small: a monotonic clock, a binary-heap event
queue, and a handful of *waitable* primitives (:class:`Timeout`,
:class:`Event`) that generator-based processes may yield on.  Everything
else in the reproduction — hardware power models, the PowerScope
profiler, the Odyssey viceroy — is built on top of these primitives.

Determinism
-----------
Events scheduled for the same instant fire in FIFO order (a strictly
increasing sequence number breaks ties), so a simulation with a fixed
random seed is exactly reproducible run-to-run.
"""

from __future__ import annotations

import heapq

from repro.obs.tracer import current_tracer
from repro.sim.errors import ProcessError, SchedulingError

__all__ = ["Simulator", "Waitable", "Timeout", "Event"]


class Waitable:
    """Base class for things a process may ``yield`` on.

    A waitable is *triggered* exactly once; callbacks subscribed before
    the trigger fire at trigger time, callbacks subscribed afterwards
    fire immediately.  The triggered ``value`` is delivered back into
    the yielding generator by the process runner.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim):
        self.sim = sim
        self._callbacks = []
        self.triggered = False
        self.value = None

    def subscribe(self, callback):
        """Register ``callback(value)`` to run when the waitable fires."""
        if self.triggered:
            callback(self.value)
        else:
            self._callbacks.append(callback)

    def trigger(self, value=None):
        """Fire the waitable, delivering ``value`` to all subscribers."""
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)


class Timeout(Waitable):
    """A waitable that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay):
        # Waitable's fields set inline, and the NaN test as in
        # Simulator.schedule: one Timeout per simulated wait.
        if delay < 0 or delay != delay:
            raise SchedulingError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.delay = delay
        sim.schedule(delay, self.trigger)


class Event(Waitable):
    """A waitable fired explicitly by some other actor.

    Unlike :class:`Timeout` there is no implicit schedule; call
    :meth:`Waitable.trigger` (optionally via :meth:`succeed`) when the
    condition the event models has occurred.
    """

    def succeed(self, value=None):
        """Alias for :meth:`Waitable.trigger` that reads better at call sites."""
        self.trigger(value)


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(2.5, lambda _: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    def __init__(self, start_time=0.0, tracer=None):
        self.now = float(start_time)
        self._heap = []
        # A plain integer rather than itertools.count so a snapshot can
        # read and restore the counter without burning a value.
        self._next_seq = 0
        self._processes = []
        self._cancelled = set()
        # Snapshot support (repro.snapshot): objects registered here are
        # walked by Snapshot.capture in registration order; the builder
        # reference names the callable that can rebuild this stack.
        self._snapshottables = {}
        self.snapshot_builder = None
        # Tracing (repro.obs): explicit tracer, else the process-wide
        # installed one (the null tracer unless e.g. the CLI's --trace
        # installed a recorder).  The gate is None when the "sim"
        # category is off, so the per-event cost of disabled tracing is
        # one attribute load and one branch.
        self.tracer = tracer if tracer is not None else current_tracer()
        self._trace = self.tracer.gate("sim")
        # Bounded-run marker: set while `run(until=...)` (or an
        # equivalent driver loop) is in charge, so periodic callbacks
        # that batch work ahead of the clock (see OnlinePowerMonitor's
        # fused sampling) know how far they may safely run.
        self._fuse_until = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback):
        """Run ``callback(sim_time)`` after ``delay`` simulated seconds."""
        # `delay != delay` is the NaN test without a math.isnan call;
        # this runs tens of thousands of times per simulated minute.
        if delay < 0 or delay != delay:
            raise SchedulingError(f"cannot schedule {delay!r}s in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (self.now + delay, seq, callback)
        heapq.heappush(self._heap, entry)
        return entry

    #: Absolute times within this relative tolerance of ``now`` count as
    #: "now": accumulated float error in ``when`` computed as a sum of
    #: intervals can land a few ulps before the clock.
    SCHEDULE_AT_EPSILON = 1e-9

    def schedule_at(self, when, callback):
        """Run ``callback(sim_time)`` at absolute simulated time ``when``."""
        delay = when - self.now
        if delay < 0 and -delay <= self.SCHEDULE_AT_EPSILON * max(1.0, abs(self.now)):
            delay = 0.0
        return self.schedule(delay, callback)

    def cancel(self, entry):
        """Cancel a pending entry returned by :meth:`schedule`.

        The cancellation is a lazy tombstone: the heap entry stays in
        place and is discarded, without firing, when it reaches the top
        of the queue.  Cancelling an entry that already fired (or was
        already cancelled) is a no-op.  Periodic samplers use this so
        that stopping them leaves no live callback in the heap.
        """
        self._cancelled.add(entry[1])
        trace = self._trace
        if trace is not None:
            trace.instant(self.now, "sim", "cancel", track="engine",
                          args={"seq": entry[1], "due": entry[0]})

    def timeout(self, delay):
        """Return a :class:`Timeout` waitable firing ``delay`` seconds from now."""
        return Timeout(self, delay)

    def event(self):
        """Return a fresh, untriggered :class:`Event`."""
        return Event(self)

    # ------------------------------------------------------------------
    # process management (see repro.sim.process)
    # ------------------------------------------------------------------
    def spawn(self, generator, name=None):
        """Start a generator-based process; returns its :class:`Process`."""
        from repro.sim.process import Process

        process = Process(self, generator, name=name)
        self._processes.append(process)
        return process

    @property
    def processes(self):
        """All processes ever spawned, in spawn order."""
        return tuple(self._processes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self):
        """Execute the single next live event; returns False if none remain.

        Cancelled entries surfacing at the top of the heap are discarded
        without firing and without advancing the clock.
        """
        heap = self._heap
        cancelled = self._cancelled
        trace = self._trace
        while heap:
            when, seq, callback = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                if trace is not None:
                    trace.instant(self.now, "sim", "tombstone",
                                  track="engine", args={"seq": seq})
                continue
            if when < self.now:
                raise ProcessError("event heap corrupted: time ran backwards")
            self.now = when
            if trace is not None:
                trace.dispatch(when, seq)
            callback(when)
            return True
        return False

    def run(self, until=None):
        """Run until the event queue drains or the clock reaches ``until``.

        When stopped by ``until`` the clock is advanced exactly to
        ``until`` even if no event falls on that instant, so power
        integration up to the horizon is exact.
        """
        if until is None:
            while self.step():
                pass
            return self.now
        if until < self.now:
            raise SchedulingError(f"cannot run until {until} < now {self.now}")
        previous = self._fuse_until
        self._fuse_until = until
        try:
            if self._trace is not None:
                while self._heap and self._heap[0][0] <= until:
                    if not self.step():
                        break
            else:
                # Traceless inner loop: the same dispatch as step(),
                # inlined — this is the branch-advance hot path.
                heap = self._heap
                cancelled = self._cancelled
                pop = heapq.heappop
                while heap and heap[0][0] <= until:
                    when, seq, callback = pop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    if when < self.now:
                        raise ProcessError(
                            "event heap corrupted: time ran backwards"
                        )
                    self.now = when
                    callback(when)
        finally:
            self._fuse_until = previous
        self.now = until
        return self.now

    def peek(self):
        """Time of the next live scheduled event, or ``None`` if none remain."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and cancelled and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # state capture (see repro.snapshot)
    # ------------------------------------------------------------------
    def register_snapshottable(self, key, obj):
        """Register an object implementing ``__snapshot__``/``__restore__``.

        ``Snapshot.capture`` walks registered objects in registration
        order; each must claim every pending heap entry it owns, so a
        capture with an unclaimed live event fails loudly instead of
        silently dropping it.
        """
        if key in self._snapshottables:
            raise SchedulingError(f"duplicate snapshottable key {key!r}")
        if not hasattr(obj, "__snapshot__") or not hasattr(obj, "__restore__"):
            raise SchedulingError(
                f"{key!r} does not implement __snapshot__/__restore__"
            )
        self._snapshottables[key] = obj
        return obj

    @property
    def snapshottables(self):
        """Registered ``{key: object}`` mapping, in registration order."""
        return dict(self._snapshottables)

    def live_entries(self):
        """Pending ``(when, seq, callback)`` entries, tombstones excluded."""
        cancelled = self._cancelled
        return sorted(e for e in self._heap if e[1] not in cancelled)

    def restore_entry(self, when, seq, callback):
        """Re-push a captured heap entry with its original stamps.

        Used only by snapshot restore: the original ``(when, seq)`` pair
        is preserved so same-instant FIFO ties break exactly as they
        would have in the uninterrupted run.  The sequence counter is
        not consumed.
        """
        entry = (when, seq, callback)
        heapq.heappush(self._heap, entry)
        return entry
