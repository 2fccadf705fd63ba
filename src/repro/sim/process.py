"""Generator-based simulated processes.

A process is a Python generator that ``yield``\\ s :class:`~repro.sim.engine.Waitable`
objects (timeouts, events, resource grants).  The process runner drives
the generator, resuming it with the waitable's value each time one
fires.  Processes compose with ``yield from``, which is how higher
layers (applications, RPCs, device drivers) build structured activity.

A process is itself a waitable: other processes may ``yield proc`` to
join on its completion and receive its return value.
"""

from __future__ import annotations

import types

from repro.sim.engine import Waitable
from repro.sim.errors import ProcessError

__all__ = ["Process"]


class Process(Waitable):
    """Runs a generator to completion over simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    generator:
        A generator object yielding waitables.
    name:
        Optional human-readable name used in traces and profiles.
    """

    _ids = 0

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        if not isinstance(generator, types.GeneratorType):
            raise ProcessError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        Process._ids += 1
        self.pid = Process._ids
        self.name = name or f"process-{self.pid}"
        self._generator = generator
        self.alive = True
        self.failed = False
        self.error = None
        # Start on the next event-loop iteration at the current instant so
        # that the caller finishes its own time step first (FIFO fairness).
        sim.schedule(0.0, lambda _t: self._resume(None))

    def __repr__(self):
        state = "alive" if self.alive else ("failed" if self.failed else "done")
        return f"<Process {self.name} pid={self.pid} {state}>"

    # ------------------------------------------------------------------
    def _resume(self, value):
        # A trampoline: a yielded waitable that has already fired (an
        # uncontended grant, a finished child) resumes the generator in
        # this loop rather than in a nested call from `subscribe`, so a
        # run of them costs no stack depth.
        if not self.alive:
            return
        generator = self._generator
        while True:
            try:
                target = generator.send(value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except Exception as exc:  # propagate process crash to joiners
                self.alive = False
                self.failed = True
                self.error = exc
                raise
            if not isinstance(target, Waitable):
                self.alive = False
                self.failed = True
                raise ProcessError(
                    f"{self.name} yielded {target!r}; processes must yield Waitables"
                )
            if not target.triggered:
                target.subscribe(self._resume)
                return
            value = target.value

    def _finish(self, value):
        self.alive = False
        self.trigger(value)
