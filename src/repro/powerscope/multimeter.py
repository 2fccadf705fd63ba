"""The digital multimeter and system monitor of PowerScope's collection
stage (paper Figure 1).

A Hewlett-Packard 3458a sampled the profiling computer's external
current at roughly 600 Hz; each reading also triggered the system
monitor on the profiling computer to record the program counter and
process id of the executing code.  Here the multimeter reads the
simulated machine's instantaneous current and the system monitor reads
the machine's attribution context — including the interrupt overlay,
which it resolves probabilistically with a seeded RNG exactly the way a
hardware sampler would catch the interrupt handler some fraction of the
time.

Lazy sampling
-------------
The power signal is piecewise constant, so scheduling one simulator
event per sample (~600/s) would buy nothing: every tick between change
points reads the same value.  The multimeter therefore schedules *no*
events at all.  It pins the machine's segment journal at
:meth:`Multimeter.start`; :meth:`Multimeter.stop` merely freezes the
sampling horizon, and the pending window is consumed by whichever
reader comes first.  Reading :attr:`Multimeter.samples` replays the
journal to synthesize the sample stream a per-sample ticker would have
produced: sample instants accumulate the period in floating point one
tick at a time, current values come from the journal's cached power,
and the seeded RNG is drawn once per sample for overlay resolution.
Calling :meth:`Multimeter.profile` instead folds the journal straight
into an :class:`EnergyProfile` without materializing per-sample records
— still drawing the RNG per sample instant, and bit-identical to
correlating the materialized streams, but an order of magnitude cheaper
on long runs.  ``tests/test_multimeter_lazy.py`` keeps a reference
ticker that the meter must match exactly, and
``tests/goldens/profile-video.json`` pins the ``repro profile`` tables.

One convention is worth stating: a sample falling exactly on a change
instant reads the *new* power (segments are half-open ``[t0, t1)``).
Sample grids accumulate a binary-float period, so exact collisions
with workload event times do not occur in practice.
"""

from __future__ import annotations

import random

from repro.powerscope.correlate import CorrelationError
from repro.powerscope.profile import EnergyProfile, ProfileEntry
from repro.powerscope.samples import CurrentSample, PcPidSample

__all__ = ["Multimeter", "SystemMonitor"]


class SystemMonitor:
    """Samples the (process, procedure) executing on the machine."""

    def __init__(self, machine, seed=0):
        self.machine = machine
        self._samples = []
        self._rng = random.Random(seed)
        self._meter = None  # set when attached to a Multimeter

    @property
    def samples(self):
        """All PC/PID samples; synthesizes pending lazy samples first."""
        if self._meter is not None:
            self._meter.sync()
        return self._samples

    def sample(self):
        """Record one PC/PID sample at the current instant."""
        machine = self.machine
        return self.sample_at(
            machine.sim.now, machine.context, machine.overlay_snapshot()
        )

    def sample_at(self, time, context, overlays):
        """Record one sample against an explicit state snapshot.

        Used both live (from :meth:`sample`) and by the multimeter's
        journal replay; both draw the RNG once per sample and resolve
        overlays identically.
        """
        # Resolve overlays (asynchronous interrupt handlers) the way a
        # real sampler would: with probability equal to the overlay's
        # share of wall time, the sample lands in the handler.
        draw = self._rng.random()
        cumulative = 0.0
        process, procedure = context
        for fraction, ov_process, ov_procedure in overlays:
            cumulative += fraction
            if draw < cumulative:
                process, procedure = ov_process, ov_procedure
                break
        record = PcPidSample(time, process, procedure)
        self._samples.append(record)
        return record


class Multimeter:
    """Current sampler driving the system-monitor trigger line.

    Parameters
    ----------
    machine:
        Machine whose external current input is measured.
    rate_hz:
        Sampling frequency (paper: approximately 600 Hz).
    monitor:
        Optional :class:`SystemMonitor` triggered on every reading.
    """

    def __init__(self, machine, rate_hz=600.0, monitor=None):
        if rate_hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {rate_hz}")
        self.machine = machine
        self.sim = machine.sim
        self.period = 1.0 / rate_hz
        self.monitor = monitor
        self._samples = []
        self._running = False
        self._next_t = None      # next sample instant
        self._cursor = 0         # index into the pinned journal
        self._pinned = False
        self._stop_horizon = None  # frozen horizon of a stopped window
        tracer = getattr(self.sim, "tracer", None)
        self._trace = tracer.gate("powerscope") if tracer is not None else None
        if monitor is not None:
            monitor._meter = self

    def start(self):
        """Begin sampling at the configured rate."""
        if self._running:
            return
        self._running = True
        if self._trace is not None:
            self._trace.instant(
                self.sim.now, "powerscope", "meter.start", track="multimeter",
                args={"rate_hz": 1.0 / self.period},
            )
        self.machine.advance()
        if self._stop_horizon is not None:
            # A previous start/stop window is still pending; materialize
            # it so the new window starts from a clean cursor.
            self._synthesize(self._stop_horizon)
            self._stop_horizon = None
        if not self._pinned:
            self.machine.pin_journal()
            self._pinned = True
        self._cursor = max(0, len(self.machine.journal) - 1)
        self._next_t = self.sim.now + self.period

    def stop(self):
        """Stop sampling; samples up to this instant are kept.

        The sampling horizon is frozen at the current instant but
        nothing is synthesized yet: the pending window is consumed — and
        the journal pin released — by whichever reader comes first, the
        materializing :attr:`samples` or the folding :meth:`profile`.
        """
        if not self._running:
            return
        self.machine.advance()
        self._stop_horizon = self.sim.now
        self._running = False
        if self._trace is not None:
            self._trace.instant(
                self.sim.now, "powerscope", "meter.stop", track="multimeter",
                args={"materialized": len(self._samples)},
            )

    def _release_pin(self):
        if self._pinned:
            self.machine.unpin_journal()
            self._pinned = False

    def sync(self):
        """Materialize pending samples up to the current instant.

        Reading :attr:`samples` / :attr:`sample_count` calls this
        implicitly.  On a stopped meter this consumes the pending window
        and releases the journal pin.
        """
        if self._running:
            self.machine.advance()
            self._synthesize(self.sim.now)
        elif self._stop_horizon is not None:
            self._synthesize(self._stop_horizon)
            self._stop_horizon = None
            self._release_pin()

    def _synthesize(self, horizon):
        """Replay journal segments into sample records up to ``horizon``.

        Sample instants accumulate ``t += period`` one sample at a time,
        exactly as chained ``schedule(period, ...)`` calls would, so the
        floating-point timestamps match a per-sample ticker's.
        """
        journal = self.machine.journal
        count = len(journal)
        if count == 0 or self._next_t is None:
            return
        voltage = self.machine.voltage
        monitor = self.monitor
        samples = self._samples
        period = self.period
        t = self._next_t
        i = min(self._cursor, count - 1)
        while t <= horizon:
            while i + 1 < count and journal[i].t1 <= t:
                i += 1
            segment = journal[i]
            if t > segment.t1:
                break  # journal does not cover t yet
            samples.append(CurrentSample(t, segment.power / voltage))
            if monitor is not None:
                monitor.sample_at(t, segment.context, segment.overlays)
            t = t + period
        self._next_t = t
        self._cursor = i

    def profile(self):
        """Build the correlated :class:`EnergyProfile` for this meter.

        The pending window folds straight from the journal without
        materializing per-sample records: each sample instant still
        draws the monitor RNG once (attribution is statistical), but the
        per-entry accumulation batches all samples of a segment
        together.  Within a segment every sample adds the same
        ``(period, joules)`` pair, and floating-point accumulation of a
        constant is a function only of the addend count, so the result
        is bit-identical to ``correlate()`` of the materialized streams
        — the tests assert this.

        Folding consumes the pending window: afterwards
        :attr:`samples` only holds records that were materialized
        before this call.
        """
        monitor = self.monitor
        if monitor is None:
            raise CorrelationError(
                "profile() requires a SystemMonitor attached to the meter"
            )
        voltage = self.machine.voltage
        period = self.period
        current_samples = self._samples
        pcpid_samples = monitor._samples
        if len(current_samples) != len(pcpid_samples):
            raise CorrelationError(
                f"sample sequences differ in length: {len(current_samples)} "
                f"current vs {len(pcpid_samples)} pc/pid"
            )
        prof = EnergyProfile()
        record = prof.record
        for current, pcpid in zip(current_samples, pcpid_samples):
            record(
                pcpid.process, pcpid.procedure, period,
                voltage * current.amps * period,
            )
        total = len(current_samples)
        if self._running:
            self.machine.advance()
            total += self._fold_pending(prof, self.sim.now)
        elif self._stop_horizon is not None:
            total += self._fold_pending(prof, self._stop_horizon)
            self._stop_horizon = None
            self._release_pin()
        prof.sample_count = total
        prof.elapsed = total * period
        if self._trace is not None:
            self._trace.instant(
                self.sim.now, "powerscope", "profile.fold", track="multimeter",
                args={"samples": total, "energy_j": prof.total_energy},
            )
        return prof

    def _fold_pending(self, prof, horizon):
        """Fold un-materialized samples up to ``horizon`` into ``prof``.

        Walks the journal exactly like :meth:`_synthesize` — same sample
        instants, same RNG draw per sample — but accumulates counts per
        (process, procedure) bucket and flushes them segment by segment,
        preserving ``correlate()``'s entry insertion order and per-entry
        addition order.  Returns the number of samples folded.
        """
        journal = self.machine.journal
        count = len(journal)
        if count == 0 or self._next_t is None:
            return 0
        rng_random = self.monitor._rng.random
        voltage = self.machine.voltage
        period = self.period
        t = self._next_t
        i = min(self._cursor, count - 1)
        total = 0
        seg = None
        joules = 0.0
        context = None
        overlays = ()
        counts = {}
        while t <= horizon:
            while i + 1 < count and journal[i].t1 <= t:
                i += 1
            segment = journal[i]
            if t > segment.t1:
                break  # journal does not cover t yet
            if segment is not seg:
                if counts:
                    _flush_counts(prof, counts, period, joules)
                    counts = {}
                seg = segment
                # Same float op order as CurrentSample + correlate:
                # amps = power / voltage, joules = voltage * amps * period.
                joules = voltage * (segment.power / voltage) * period
                context = segment.context
                overlays = segment.overlays
            draw = rng_random()
            bucket = context
            if overlays:
                cumulative = 0.0
                for fraction, ov_process, ov_procedure in overlays:
                    cumulative += fraction
                    if draw < cumulative:
                        bucket = (ov_process, ov_procedure)
                        break
            counts[bucket] = counts.get(bucket, 0) + 1
            total += 1
            t = t + period
        if counts:
            _flush_counts(prof, counts, period, joules)
        self._next_t = t
        self._cursor = i
        return total

    @property
    def samples(self):
        """Current samples collected so far (synthesized on demand)."""
        self.sync()
        return self._samples

    @property
    def sample_count(self):
        """Number of current samples collected so far."""
        return len(self.samples)


def _flush_counts(prof, counts, period, joules):
    """Credit one segment's bucket counts to the profile.

    Buckets flush in first-hit order (``counts`` is insertion-ordered),
    so new entries appear in the order ``correlate()`` would create
    them; the repeated same-value adds reproduce its accumulator values
    bit for bit.
    """
    processes = prof.processes
    procedures = prof.procedures
    for (process, procedure), n in counts.items():
        entry = processes.get(process)
        if entry is None:
            entry = processes[process] = ProfileEntry(process)
        detail = procedures.get(process)
        if detail is None:
            detail = procedures[process] = {}
        proc_entry = detail.get(procedure)
        if proc_entry is None:
            proc_entry = detail[procedure] = ProfileEntry(procedure)
        cs = entry.cpu_seconds
        ej = entry.energy_joules
        pcs = proc_entry.cpu_seconds
        pej = proc_entry.energy_joules
        for _ in range(n):
            cs += period
            ej += joules
            pcs += period
            pej += joules
        entry.cpu_seconds = cs
        entry.energy_joules = ej
        proc_entry.cpu_seconds = pcs
        proc_entry.energy_joules = pej
