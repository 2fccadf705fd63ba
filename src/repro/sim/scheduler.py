"""Quantum-based CPU scheduling.

The default CPU model serializes whole compute bursts FIFO, which is
accurate for the paper's single-application experiments but coarse for
the concurrent ones: Linux 2.2 timeslices runnable processes at quantum
granularity, so the composite application's recognition bursts and the
video player's decode bursts interleave rather than queue behind each
other.  :class:`QuantumScheduler` provides that behaviour — work is
executed in quantum-sized slices granted FIFO, which for multiple
runnable processes is exactly round-robin.
"""

from __future__ import annotations

from repro.sim.resources import Resource

__all__ = ["QuantumScheduler"]


class QuantumScheduler:
    """Round-robin CPU time-slicing built on a FIFO resource.

    Parameters
    ----------
    sim:
        The driving simulator.
    quantum:
        Timeslice length in seconds (Linux 2.2 default ~= 0.05-0.2 s
        depending on HZ and nice level; 0.05 by default here).
    """

    def __init__(self, sim, quantum=0.05, name="cpu-rr"):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.sim = sim
        self.quantum = quantum
        self.name = name
        self._resource = Resource(sim, capacity=1, name=name)
        self.slices_granted = 0
        self.preemptions = 0

    def run(self, duration, owner=None, on_slice_start=None, on_slice_end=None):
        """Generator: execute ``duration`` seconds of work in slices.

        ``on_slice_start``/``on_slice_end`` run around every slice —
        the machine layer uses them to flip CPU power state and
        attribution, so energy accounting stays exact across
        preemptions.
        """
        if duration < 0:
            raise ValueError(f"negative work duration {duration}")
        remaining = duration
        while remaining > 1e-12:
            grant = self._resource.acquire(owner=owner)
            if not grant.triggered:
                yield grant
            slice_length = min(self.quantum, remaining)
            if on_slice_start is not None:
                on_slice_start()
            try:
                yield self.sim.timeout(slice_length)
            finally:
                if on_slice_end is not None:
                    on_slice_end()
                self._resource.release(grant)
            self.slices_granted += 1
            remaining -= slice_length
            if remaining > 1e-12 and self._resource.in_use > 0:
                # The release handed the CPU to a waiter: this slice
                # boundary preempted us (we re-queue behind them —
                # that's the round-robin).
                self.preemptions += 1
