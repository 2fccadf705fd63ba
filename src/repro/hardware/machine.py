"""The composite machine: component aggregation, energy integration,
and PowerScope-style attribution.

Power model
-----------
Total machine power is the sum of component powers plus a *superlinear
correction*: the paper measured 10.28 W with everything on, 0.21 W more
than the sum of the individual component draws, and a 5.6 W background
(display dim, WaveLAN and disk in standby) that likewise exceeds the
component sum slightly.  The correction is a pluggable callable so the
ThinkPad 560X calibration can reproduce both published totals.

Because the power signal is piecewise constant, the machine caches the
instantaneous total (and the correction, computed once per refresh) and
invalidates the cache only when a component is about to change state —
components announce changes through their ``_pre_change`` hook, which
:meth:`Machine.attach` points at :meth:`Machine.power_will_change`.
Component authors adding new power-affecting mutations must call that
hook *before* mutating; see docs/architecture.md ("Performance").

Segment journal
---------------
Instead of updating the attribution dictionaries on every integration
step, :meth:`Machine.advance` appends to a *segment journal*: a list of
``(t0, t1, power, context, overlays, component powers)`` spans.
Consecutive advances with identical state extend the open span in
place, so the journal length is proportional to the number of genuine
change points, not to how often anyone polled.  Per-component and
per-process energies *fold* lazily from closed segments the first time
they are read; the lazy PowerScope sampler replays the journal to
synthesize its sample streams without ever scheduling a tick.

Attribution model
-----------------
PowerScope attributes each current sample — i.e. the *whole machine's*
instantaneous power — to the process/procedure executing at sample time
(paper Section 2.1).  The machine therefore maintains an execution
context stack (process, procedure); the bottom of the stack is the
kernel idle loop.  Asynchronous network interrupt handling is modeled
as an *overlay*: while a transfer is in flight, a fixed fraction of
wall time executes the interrupt handler, so that fraction of energy is
attributed to ``Interrupts-WaveLAN`` exactly as in the paper's Figure 2.

These continuously integrated, exactly attributed energies are the
ground truth; :mod:`repro.powerscope` reconstructs them by statistical
sampling, and tests assert the two agree.
"""

from __future__ import annotations

import json
import marshal

from repro.hardware.battery import Battery, ExternalSupply
from repro.hardware.component import HardwareError
from repro.obs.metrics import current_metrics
from repro.sim.resources import Resource

__all__ = ["Machine", "PowerSegment", "IDLE_PROCESS", "IDLE_PROCEDURE"]

IDLE_PROCESS = "Idle"
IDLE_PROCEDURE = "_kernel_idle"


def zero_correction(machine):
    """The default superlinear correction: none."""
    return 0.0


class PowerSegment:
    """One piecewise-constant span of the machine's power signal.

    ``context``, ``overlays`` and ``comp_powers`` are immutable
    snapshots taken when the span opened; ``t1`` extends in place while
    the machine's state stays unchanged.  ``sid`` is the machine-unique
    segment id — the join key between trace events and the joules the
    span cost (see :mod:`repro.obs.export`).
    """

    __slots__ = ("t0", "t1", "power", "context", "overlays",
                 "comp_powers", "correction", "sid")

    def __init__(self, t0, t1, power, context, overlays, comp_powers,
                 correction, sid=0):
        self.t0 = t0
        self.t1 = t1
        self.power = power
        self.context = context
        self.overlays = overlays
        self.comp_powers = comp_powers
        self.correction = correction
        self.sid = sid

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def energy(self):
        return self.power * (self.t1 - self.t0)

    def __repr__(self):
        return (f"<PowerSegment [{self.t0:.6f}, {self.t1:.6f}] "
                f"{self.power:.2f}W {self.context}>")


def _segment_row(s):
    """The JSON row for one segment — the snapshot wire format."""
    return [s.t0, s.t1, s.power, list(s.context),
            [list(o) for o in s.overlays],
            [list(cp) for cp in s.comp_powers], s.correction, s.sid]


class _SealedBlock:
    """A run of closed journal segments, serialized exactly once.

    Closed segments are immutable (``advance`` only ever touches the
    open tail), so a block can be shared by reference between the live
    machine, every snapshot taken after it was sealed, and every branch
    restored from those snapshots.  ``rows`` caches the JSON rows and
    ``nbytes`` their canonical encoding size — what a non-COW capture
    would have re-serialized each time.
    """

    __slots__ = ("segments", "rows", "nbytes")

    def __init__(self, segments, rows):
        self.segments = segments
        self.rows = rows
        self.nbytes = len(json.dumps(rows, separators=(",", ":")))


class _SharedJournal:
    """One capture's copy-on-write view of a machine journal.

    Holds the sealed-block tuple by reference plus a private copy of
    the open tail (which the parent keeps mutating), so capturing is
    O(new segments) instead of O(journal).  ``materialize()`` produces
    the exact flat row list a non-sharing capture would have emitted —
    the on-disk payload is byte-identical either way.
    """

    __slots__ = ("blocks", "flat", "flat_len", "suffix_segments",
                 "suffix_rows", "sealed_bytes")

    def __init__(self, blocks, flat, flat_len, suffix_segments, suffix_rows,
                 sealed_bytes):
        self.blocks = blocks
        # The machine's live flat sealed list plus the length at capture
        # time: later seals only append, so `flat[:flat_len]` is this
        # capture's immutable prefix (a compaction swaps in a new list
        # object, leaving this reference untouched).
        self.flat = flat
        self.flat_len = flat_len
        self.suffix_segments = suffix_segments
        self.suffix_rows = suffix_rows
        self.sealed_bytes = sealed_bytes

    def materialize(self):
        rows = []
        for block in self.blocks:
            rows.extend(block.rows)
        rows.extend(self.suffix_rows)
        return rows

    def shared_bytes(self):
        return self.sealed_bytes


class _ContextNode:
    """Doubly-linked context-stack entry, addressable by token in O(1)."""

    __slots__ = ("token", "process", "procedure", "prev", "next")

    def __init__(self, token, process, procedure):
        self.token = token
        self.process = process
        self.procedure = procedure
        self.prev = None
        self.next = None


class Machine:
    """A mobile computer assembled from power components.

    Parameters
    ----------
    sim:
        The driving :class:`~repro.sim.Simulator`.
    supply:
        Object with ``drain(joules)`` (battery or external supply).
    voltage:
        Input voltage; the paper notes it is controlled to within
        0.25 %, so current = power / voltage.
    correction:
        ``callable(machine) -> watts`` superlinear correction term.
        Evaluated once per power-cache refresh (i.e. once per state
        change), never per integration step.
    """

    #: Fold the journal automatically once this many unfolded segments
    #: accumulate, bounding both memory and worst-case fold latency.
    AUTO_FOLD_SEGMENTS = 4096

    def __init__(self, sim, supply, voltage=16.0, correction=None,
                 scheduler=None, metrics=None, profile=None):
        self.sim = sim
        self.supply = supply
        self.voltage = voltage
        self.correction = correction or zero_correction
        # Optional repro.devices.DeviceProfile: scales the wattage table
        # of every subsequently attached component.  Construction-time
        # identity (like `correction`), not snapshotted state — forks
        # rebuild it from the builder params.
        self.profile = profile
        self.components = {}
        self.cpu_resource = Resource(sim, capacity=1, name="cpu")
        # One disk head: concurrent accesses serialize (thrashing is
        # only painful because of this).
        self.disk_resource = Resource(sim, capacity=1, name="disk")
        # Optional quantum scheduler (repro.sim.scheduler) replaces the
        # FIFO whole-burst CPU model with round-robin time-slicing.
        self.scheduler = scheduler

        # Execution context: a doubly-linked stack with a dict from
        # token to node, so out-of-order pops are O(1) instead of a
        # list scan.  The sentinel at the bottom is the kernel idle loop.
        self._ctx_bottom = _ContextNode(0, IDLE_PROCESS, IDLE_PROCEDURE)
        self._ctx_top = self._ctx_bottom
        self._ctx_nodes = {}
        # Plain integers rather than itertools.count so a snapshot can
        # read and restore the counters without burning values.
        self._next_context_token = 1
        self._context = (IDLE_PROCESS, IDLE_PROCEDURE)

        self._overlays = {}
        self._next_overlay_token = 1
        self._overlays_snapshot = ()

        # Cached instantaneous power (piecewise constant between
        # component changes).  Dirty until first read.
        self._power = 0.0
        self._correction_value = 0.0
        self._comp_powers = ()
        self._power_dirty = True

        # Segment journal + lazily folded attribution accumulators.
        self._journal = []
        self._fold_index = 0
        self._journal_pins = 0
        self._folded_journal_energy = 0.0
        self._sid = 0  # last assigned segment id (1-based, monotonic)
        # Copy-on-write capture state: journal[:_sealed_len] is covered
        # by _sealed_blocks — closed, immutable, serialized once, and
        # shared by reference with every snapshot taken since.
        self._sealed_blocks = ()
        self._sealed_len = 0
        self._sealed_bytes = 0
        # Flat view of the sealed prefix, grown in step with the blocks
        # so restore adopts it with one slice instead of a block walk.
        # Not "owned" after adopting a parent's list: the next seal
        # copies before extending (the parent keeps growing it).
        self._sealed_flat = []
        self._sealed_flat_owned = True

        # Observability (repro.obs): the "power" trace gate emits one
        # complete-event per closed journal segment plus a watts
        # counter series; metrics default to the process-wide registry.
        tracer = getattr(sim, "tracer", None)
        self._trace = tracer.gate("power") if tracer is not None else None
        self._last_emitted_sid = 0
        # The one components payload per exact component split; see
        # _trace_segment.
        self._span_components = {}
        # Branch identity: lookahead evaluators stamp forked machines so
        # their power/span events disentangle from the trunk's (see
        # repro.obs.export.power_spans).  None = the trunk.
        self.branch_id = None
        if self._trace is not None:
            self._trace.add_flush_hook(self.trace_flush)
        self.metrics = metrics if metrics is not None else current_metrics()
        self._m_segments = self.metrics.counter("machine.segments")
        self._m_folds = self.metrics.counter("machine.folds")
        self._m_energy = self.metrics.gauge("machine.energy_j")

        self._last_update = sim.now
        self.energy_total = 0.0
        self._energy_by_process = {}
        self._energy_by_procedure = {}
        self._energy_by_component = {}

        # The supply interface is fixed at construction; resolve the
        # optional methods once instead of via getattr on every advance.
        self._supply_drain = supply.drain
        self._supply_note_power = getattr(supply, "note_power", None)
        self._supply_recover = getattr(supply, "recover", None)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def attach(self, component):
        """Add a component; its state changes now integrate energy first."""
        if component.name in self.components:
            raise HardwareError(f"duplicate component {component.name!r}")
        self.advance()
        if self.profile is not None:
            factor = self.profile.multiplier(component.name)
            if factor != 1.0:
                component.states = {
                    state: watts * factor
                    for state, watts in component.states.items()
                }
        self.components[component.name] = component
        component._pre_change = self.power_will_change
        self._power_dirty = True
        return component

    def __getitem__(self, name):
        return self.components[name]

    def __contains__(self, name):
        return name in self.components

    # ------------------------------------------------------------------
    # instantaneous readings
    # ------------------------------------------------------------------
    def _refresh_power(self):
        """Recompute the cached total, correction, and component split."""
        total = 0.0
        comp_powers = []
        for name, component in self.components.items():
            watts = component.power
            comp_powers.append((name, watts))
            total += watts
        self._comp_powers = tuple(comp_powers)
        self._correction_value = self.correction(self)
        self._power = total + self._correction_value
        self._power_dirty = False

    @property
    def power(self):
        """Instantaneous whole-machine draw in watts (cached)."""
        if self._power_dirty:
            self._refresh_power()
        return self._power

    @property
    def current(self):
        """Instantaneous current in amperes (what the multimeter samples)."""
        return self.power / self.voltage

    def power_will_change(self):
        """Integrate at the outgoing power, then invalidate the cache.

        Components call this (via their ``_pre_change`` hook) *before*
        any power-affecting mutation; the next :attr:`power` read — which
        necessarily happens after the mutation — recomputes the cache.
        """
        self.advance()
        self._power_dirty = True

    # ------------------------------------------------------------------
    # execution context (who gets the energy)
    # ------------------------------------------------------------------
    @property
    def context(self):
        """Current ``(process, procedure)`` attribution context."""
        return self._context

    def push_context(self, process, procedure="main"):
        """Enter an attribution context; returns a token for pop."""
        self.advance()
        token = self._next_context_token
        self._next_context_token = token + 1
        node = _ContextNode(token, process, procedure)
        node.prev = self._ctx_top
        self._ctx_top.next = node
        self._ctx_top = node
        self._ctx_nodes[token] = node
        self._context = (process, procedure)
        return token

    def pop_context(self, token):
        """Leave a context previously entered with :meth:`push_context`.

        Pops may arrive out of order (concurrent activities interleave);
        removing a non-top entry unlinks it without disturbing the rest
        of the stack.
        """
        node = self._ctx_nodes.get(token)
        if node is None:
            raise HardwareError("pop_context with unknown token")
        self.advance()
        del self._ctx_nodes[token]
        node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._ctx_top = node.prev
        self._context = (self._ctx_top.process, self._ctx_top.procedure)

    def overlay_snapshot(self):
        """Current overlays as an immutable ``(fraction, process,
        procedure)`` tuple, in insertion order."""
        return self._overlays_snapshot

    def add_overlay(self, fraction, process, procedure="_interrupt"):
        """Attribute ``fraction`` of machine energy to ``process``.

        Models asynchronous activity (network interrupts) that steals a
        share of wall time from whatever context is executing.  Returns
        a handle for :meth:`remove_overlay`.  Overlapping overlay
        fractions are capped at 1.0 in total.
        """
        if not 0.0 <= fraction <= 1.0:
            raise HardwareError(f"overlay fraction {fraction} outside [0, 1]")
        self.advance()
        handle = self._next_overlay_token
        self._next_overlay_token = handle + 1
        self._overlays[handle] = (fraction, process, procedure)
        self._overlays_snapshot = tuple(self._overlays.values())
        return handle

    def remove_overlay(self, handle):
        """Remove an attribution overlay."""
        if handle not in self._overlays:
            raise HardwareError("remove_overlay with unknown handle")
        self.advance()
        del self._overlays[handle]
        self._overlays_snapshot = tuple(self._overlays.values())

    # ------------------------------------------------------------------
    # energy integration
    # ------------------------------------------------------------------
    def advance(self):
        """Integrate energy from the last update to the current instant.

        Power is piecewise constant, so integration is exact provided
        this runs before every state, context, or overlay change —
        which components and context methods guarantee.  The elapsed
        span joins the segment journal: it extends the open segment
        when nothing changed, and opens a new one otherwise.
        """
        now = self.sim.now
        t0 = self._last_update
        dt = now - t0
        if dt <= 0.0:
            self._last_update = now
            return
        self._last_update = now
        if self._power_dirty:
            self._refresh_power()
        power = self._power
        energy = power * dt
        self.energy_total += energy
        # Non-ideal supplies (Peukert, recovery) scale their drain by
        # the instantaneous draw and relax during light load.
        if self._supply_note_power is not None:
            self._supply_note_power(power)
        self._supply_drain(energy)
        if self._supply_recover is not None:
            self._supply_recover(dt)

        journal = self._journal
        if len(journal) > self._fold_index:
            last = journal[-1]
            if (last.power == power
                    and last.context is self._context
                    and last.overlays is self._overlays_snapshot
                    and last.comp_powers is self._comp_powers):
                last.t1 = now
                return
        trace = self._trace
        if trace is not None:
            if journal:
                self._trace_segment(journal[-1])
            trace.watts(t0, power)
        self._sid += 1
        journal.append(PowerSegment(
            t0, now, power, self._context, self._overlays_snapshot,
            self._comp_powers, self._correction_value, sid=self._sid,
        ))
        self._m_segments.inc()
        if (len(journal) - self._fold_index > self.AUTO_FOLD_SEGMENTS):
            self._fold()

    def _advance_extends(self):
        """Would :meth:`advance` only extend the open segment and drain
        a plain supply?  The online monitor's fused ticks replay advances
        on locals only while this holds: clean cached power, an open
        segment matching the current state, and a Battery or
        ExternalSupply without note_power or recover hooks, whose drain
        the fused loop inlines."""
        if (self._power_dirty or self._supply_note_power is not None
                or self._supply_recover is not None
                or type(self.supply) not in (Battery, ExternalSupply)):
            return False
        journal = self._journal
        if len(journal) <= self._fold_index:
            return False
        last = journal[-1]
        return (last.power == self._power
                and last.context is self._context
                and last.overlays is self._overlays_snapshot
                and last.comp_powers is self._comp_powers)

    # ------------------------------------------------------------------
    # segment journal
    # ------------------------------------------------------------------
    @property
    def journal(self):
        """The live segment list (read-only by convention).

        Folded segments are compacted away unless a reader holds a pin
        (see :meth:`pin_journal`), so indices are only stable while
        pinned.
        """
        return self._journal

    def pin_journal(self):
        """Keep folded segments in memory until :meth:`unpin_journal`.

        Lazy samplers pin while running so they can replay every span
        between their start and stop instants.
        """
        self._journal_pins += 1

    def unpin_journal(self):
        """Release a pin taken with :meth:`pin_journal`."""
        if self._journal_pins <= 0:
            raise HardwareError("unpin_journal without matching pin")
        self._journal_pins -= 1

    def journal_energy(self):
        """Total joules recorded by the journal (folded + open spans)."""
        total = self._folded_journal_energy
        for segment in self._journal[self._fold_index:]:
            total += segment.power * (segment.t1 - segment.t0)
        return total

    def _fold(self):
        """Fold closed segments into the attribution accumulators.

        Folding is idempotent per segment; once every pin is released
        the folded prefix is discarded to bound memory.
        """
        journal = self._journal
        end = len(journal)
        if self._fold_index < end:
            by_component = self._energy_by_component
            for index in range(self._fold_index, end):
                segment = journal[index]
                dt = segment.t1 - segment.t0
                energy = segment.power * dt
                self._folded_journal_energy += energy
                for name, watts in segment.comp_powers:
                    by_component[name] = (
                        by_component.get(name, 0.0) + watts * dt
                    )
                if segment.correction:
                    by_component["(superlinear)"] = (
                        by_component.get("(superlinear)", 0.0)
                        + segment.correction * dt
                    )
                # Attribution: overlays first, remainder to the context.
                remaining = 1.0
                for fraction, process, procedure in segment.overlays:
                    share = min(fraction, remaining)
                    remaining -= share
                    self._credit(process, procedure, energy * share)
                if remaining > 0.0:
                    process, procedure = segment.context
                    self._credit(process, procedure, energy * remaining)
            self._fold_index = end
            self._m_folds.inc()
            self._m_energy.set(self.energy_total)
        if self._journal_pins == 0 and self._fold_index:
            if self._trace is not None:
                # The open segment is about to be compacted away; emit
                # it now or its span is lost (closed predecessors were
                # emitted at append time — the sid guard skips them).
                self._trace_segment(journal[self._fold_index - 1])
            del journal[:self._fold_index]
            self._fold_index = 0
            # Sealed blocks indexed the pre-compaction prefix; drop
            # them (snapshots holding references are unaffected) and
            # let the next capture reseal the now-short journal.
            self._sealed_blocks = ()
            self._sealed_len = 0
            self._sealed_bytes = 0
            self._sealed_flat = []
            self._sealed_flat_owned = True

    # ------------------------------------------------------------------
    # tracing (repro.obs)
    # ------------------------------------------------------------------
    def _trace_segment(self, segment):
        """Record one ``power/span`` complete-event per journal segment.

        Idempotent via the monotonic sid guard: a segment may reach
        here when its successor is appended, when the fold compacts it
        away, or from the tracer's flush hook — it is emitted once.

        Spans with the same component split share one ``components``
        dict, so an exporter encodes each split once.  Emitted ``args``
        are read-only: a reader that mutated them would change every
        span sharing the dict.  The split is keyed by its ``marshal``
        bytes, which are equal only for values of the same type and
        bits, so ``-0.0`` watts never share ``0.0``'s payload.

        The span is recorded as a :class:`~repro.obs.tracer.SpanEvent`
        of the segment's values, never the segment: the fold rewrites
        the journal.
        """
        if segment.sid <= self._last_emitted_sid:
            return
        self._last_emitted_sid = segment.sid
        dur = segment.t1 - segment.t0
        process, procedure = segment.context
        try:
            key = marshal.dumps((segment.comp_powers, segment.correction),
                                2)
        except ValueError:  # a subclass marshal refuses: share nothing
            key = None
        components = self._span_components.get(key)
        if components is None:
            components = dict(segment.comp_powers)
            if segment.correction:
                components["(superlinear)"] = segment.correction
            if key is not None:
                self._span_components[key] = components
        # branch_id is None on the trunk, whose span payloads (and the
        # goldens pinned to them) carry no "branch" key.
        self._trace.span(segment.t0, dur, segment.sid, segment.power,
                         segment.power * dur, process, procedure,
                         components, self.branch_id)

    def power_span_id(self):
        """The journal span id covering the current instant.

        Instrumented call sites stamp events with this sid as their
        ``power_span`` argument — the join key back to the watts and
        joules of the covering segment (:func:`repro.obs.export.join_power`).
        When no span is open yet the *next* sid is returned, a forward
        reference to the segment that will cover this instant.
        """
        self.advance()
        journal = self._journal
        return journal[-1].sid if journal else self._sid + 1

    def trace_flush(self):
        """Tracer flush hook: emit the still-open tail journal segment."""
        if self._trace is None:
            return
        self.advance()
        journal = self._journal
        if journal:
            self._trace_segment(journal[-1])

    def _credit(self, process, procedure, joules):
        if joules <= 0.0:
            return
        self._energy_by_process[process] = (
            self._energy_by_process.get(process, 0.0) + joules
        )
        key = (process, procedure)
        self._energy_by_procedure[key] = (
            self._energy_by_procedure.get(key, 0.0) + joules
        )

    # ------------------------------------------------------------------
    # folded accounting views
    # ------------------------------------------------------------------
    @property
    def energy_by_process(self):
        """Joules per process, folded from the journal on access."""
        self._fold()
        return self._energy_by_process

    @property
    def energy_by_procedure(self):
        """Joules per (process, procedure), folded on access."""
        self._fold()
        return self._energy_by_procedure

    @property
    def energy_by_component(self):
        """Joules per component (plus the correction row), folded on access."""
        self._fold()
        return self._energy_by_component

    # ------------------------------------------------------------------
    # structured activity helpers
    # ------------------------------------------------------------------
    def compute(self, duration, process, procedure="main"):
        """Generator: run a CPU burst with contention and attribution.

        Acquires the (single) CPU, marks it busy, attributes machine
        energy to ``process``/``procedure``, then restores the idle
        state.  Concurrent bursts serialize FIFO by default; with a
        quantum scheduler attached they interleave round-robin, with
        power state and attribution handled per slice.
        """
        cpu = self.components.get("cpu")
        token_box = []

        def on_grant():
            token_box.append(self.push_context(process, procedure))
            if cpu is not None:
                cpu.set_state("busy")

        def on_release():
            if cpu is not None:
                cpu.set_state("idle")
            self.pop_context(token_box.pop())

        if self.scheduler is not None:
            yield from self.scheduler.run(
                duration, owner=process,
                on_slice_start=on_grant, on_slice_end=on_release,
            )
        else:
            yield from self.cpu_resource.use(
                duration, owner=process, on_grant=on_grant, on_release=on_release
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def finish(self):
        """Integrate up to the current instant and return total joules."""
        self.advance()
        self._m_energy.set(self.energy_total)
        return self.energy_total

    def energy_report(self):
        """Energy by process, largest first, after a final integration."""
        self.advance()
        return dict(
            sorted(self.energy_by_process.items(), key=lambda kv: -kv[1])
        )

    # ------------------------------------------------------------------
    # snapshot protocol (repro.snapshot)
    # ------------------------------------------------------------------
    def _seal_closed(self):
        """Extend the sealed-block cache over every closed segment.

        Only the last journal entry can still mutate (``advance``
        extends its ``t1`` in place), so everything before it is sealed:
        serialized once, then shared by reference with every later
        capture.  Amortized O(1) per segment over the machine's life.
        """
        journal = self._journal
        closed = len(journal) - 1 if journal else 0
        if closed > self._sealed_len:
            segments = journal[self._sealed_len:closed]
            block = _SealedBlock(
                tuple(segments), [_segment_row(s) for s in segments],
            )
            self._sealed_blocks = self._sealed_blocks + (block,)
            if not self._sealed_flat_owned:
                self._sealed_flat = self._sealed_flat[:self._sealed_len]
                self._sealed_flat_owned = True
            self._sealed_flat.extend(segments)
            self._sealed_len = closed
            self._sealed_bytes += block.nbytes

    def __snapshot__(self, ctx):
        """Serialize the full accounting state, journal included.

        Deliberately does NOT :meth:`advance` first: capture is
        side-effect free, and the not-yet-integrated span between
        ``_last_update`` and ``sim.now`` is integrated by the branch's
        first advance exactly as the uninterrupted run would.  The raw
        journal is serialized without folding — fold points are part of
        the replayable state.  The machine owns no heap entries, so it
        claims nothing.

        The journal travels on the shared-structure channel: the state
        dict carries a marker, the sealed prefix is shared by
        reference, and only the open tail is copied — capture cost is
        O(segments since the last capture), not O(journal).
        """
        if self._journal_pins:
            raise HardwareError(
                "cannot snapshot a machine while its journal is pinned"
            )
        self._seal_closed()
        suffix = self._journal[self._sealed_len:]
        journal_ref = ctx.share("journal", _SharedJournal(
            self._sealed_blocks,
            self._sealed_flat,
            self._sealed_len,
            tuple(
                PowerSegment(s.t0, s.t1, s.power, s.context, s.overlays,
                             s.comp_powers, s.correction, sid=s.sid)
                for s in suffix
            ),
            [_segment_row(s) for s in suffix],
            self._sealed_bytes,
        ))
        stack = []
        node = self._ctx_bottom.next
        while node is not None:
            stack.append([node.token, node.process, node.procedure])
            node = node.next
        return {
            "components": {
                name: comp.state for name, comp in self.components.items()
            },
            "context_stack": stack,
            "next_context_token": self._next_context_token,
            "overlays": [
                [token, fraction, process, procedure]
                for token, (fraction, process, procedure)
                in self._overlays.items()
            ],
            "next_overlay_token": self._next_overlay_token,
            "power": self._power,
            "correction_value": self._correction_value,
            "comp_powers": [list(cp) for cp in self._comp_powers],
            "power_dirty": self._power_dirty,
            "journal": journal_ref,
            "fold_index": self._fold_index,
            "folded_journal_energy": self._folded_journal_energy,
            "sid": self._sid,
            "last_emitted_sid": self._last_emitted_sid,
            "last_update": self._last_update,
            "energy_total": self.energy_total,
            "energy_by_process": dict(self._energy_by_process),
            "energy_by_procedure": [
                [process, procedure, joules]
                for (process, procedure), joules
                in self._energy_by_procedure.items()
            ],
            "energy_by_component": dict(self._energy_by_component),
        }

    def __restore__(self, state, ctx):
        if set(state["components"]) != set(self.components):
            raise HardwareError(
                f"snapshot components {sorted(state['components'])} do not "
                f"match machine components {sorted(self.components)}"
            )
        for name, comp_state in state["components"].items():
            component = self.components[name]
            if comp_state not in component.states:
                raise HardwareError(
                    f"{name}: snapshot state {comp_state!r} unknown"
                )
            component.state = comp_state
        self._ctx_nodes = {}
        self._ctx_top = self._ctx_bottom
        self._ctx_bottom.next = None
        for token, process, procedure in state["context_stack"]:
            node = _ContextNode(int(token), process, procedure)
            node.prev = self._ctx_top
            self._ctx_top.next = node
            self._ctx_top = node
            self._ctx_nodes[node.token] = node
        self._next_context_token = int(state["next_context_token"])
        self._context = (self._ctx_top.process, self._ctx_top.procedure)
        self._overlays = {
            int(token): (fraction, process, procedure)
            for token, fraction, process, procedure in state["overlays"]
        }
        self._next_overlay_token = int(state["next_overlay_token"])
        self._overlays_snapshot = tuple(self._overlays.values())
        self._power = state["power"]
        self._correction_value = state["correction_value"]
        self._comp_powers = tuple(
            (name, watts) for name, watts in state["comp_powers"]
        )
        self._power_dirty = bool(state["power_dirty"])
        journal_state = state["journal"]
        if type(journal_state) is dict:
            # COW adoption: sealed blocks join by reference (closed
            # segments are immutable), only the open tail is copied so
            # this branch's extensions stay private.
            shared = ctx.shared("journal")
            if shared is None:
                raise HardwareError(
                    "shared journal marker without a live structure; "
                    "flat restores must carry materialized rows"
                )
            journal = shared.flat[:shared.flat_len]
            journal.extend(
                PowerSegment(s.t0, s.t1, s.power, s.context, s.overlays,
                             s.comp_powers, s.correction, sid=s.sid)
                for s in shared.suffix_segments
            )
            self._journal = journal
            self._sealed_blocks = shared.blocks
            self._sealed_len = shared.flat_len
            self._sealed_bytes = shared.sealed_bytes
            self._sealed_flat = shared.flat
            self._sealed_flat_owned = False
        else:
            self._journal = [
                PowerSegment(
                    t0, t1, power, tuple(context),
                    tuple(tuple(o) for o in overlays),
                    tuple(tuple(cp) for cp in comp_powers),
                    correction, sid=sid,
                )
                for t0, t1, power, context, overlays, comp_powers,
                correction, sid in journal_state
            ]
            self._sealed_blocks = ()
            self._sealed_len = 0
            self._sealed_bytes = 0
            self._sealed_flat = []
            self._sealed_flat_owned = True
        # `advance` merges the open segment via identity (`is`) checks
        # on the context/overlays/component-power tuples, so wherever
        # the values still agree the open segment must share the
        # machine's *current* objects — otherwise the first post-restore
        # advance would open a spurious segment the uninterrupted run
        # never has.
        if self._journal:
            last = self._journal[-1]
            if last.context == self._context:
                last.context = self._context
            if last.overlays == self._overlays_snapshot:
                last.overlays = self._overlays_snapshot
            if last.comp_powers == self._comp_powers:
                last.comp_powers = self._comp_powers
        self._fold_index = int(state["fold_index"])
        self._folded_journal_energy = state["folded_journal_energy"]
        self._sid = int(state["sid"])
        self._last_emitted_sid = int(state["last_emitted_sid"])
        self._last_update = state["last_update"]
        self.energy_total = state["energy_total"]
        self._energy_by_process = dict(state["energy_by_process"])
        self._energy_by_procedure = {
            (process, procedure): joules
            for process, procedure, joules in state["energy_by_procedure"]
        }
        self._energy_by_component = dict(state["energy_by_component"])
