"""The state-capture protocol: ``__snapshot__``/``__restore__``.

Python generators cannot be serialized, so the snapshot subsystem does
not try to freeze live process frames.  Instead every stateful object
in a snapshot-capable stack is *registered* with its simulator
(:meth:`repro.sim.Simulator.register_snapshottable`) and implements two
methods:

``__snapshot__(ctx)``
    Return a JSON-shaped dict of the object's live state.  For every
    pending heap entry the object owns (its next timer tick, its next
    decision), it must call :meth:`CaptureContext.claim` with a *kind*
    string naming the callback.  Capture fails loudly if any live heap
    entry goes unclaimed — an unclaimed event would silently vanish
    from the branch.

``__restore__(state, ctx)``
    Apply a previously captured state dict to a freshly built (never
    started) object.  For each claimed event, :meth:`RestoreContext.
    events` hands back ``(when, seq, kind)`` triples; the object maps
    each kind to a bound callback and re-pushes it via
    :meth:`RestoreContext.push`, preserving the original stamps so
    same-instant FIFO ties break exactly as in the parent.

Both dicts must round-trip through JSON unchanged (``repr`` float
round-tripping is exact in Python, so float state is safe).  The dicts
an in-memory fork restores from are the captured ones themselves, so
``__snapshot__`` must copy whatever the live object keeps mutating and
``__restore__`` must copy whatever it keeps: one snapshot seeds any
number of branches, and none of them may reach another's state.
"""

from __future__ import annotations

__all__ = ["SnapshotError", "CaptureContext", "RestoreContext"]


class SnapshotError(Exception):
    """Capture or restore failed (unclaimed events, version skew, ...)."""


class CaptureContext:
    """Collects event claims while ``__snapshot__`` walks the registry."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []  # [(when, seq, key, kind)] in claim order
        self._live = {entry[1] for entry in sim.live_entries()}
        self._claimed = set()
        self._current_key = None

    def claim(self, entry, kind):
        """Claim one pending heap entry (as returned by ``schedule``).

        ``kind`` is the owner-local name ``__restore__`` will map back
        to a bound callback.  Claiming ``None`` (no pending entry) or a
        cancelled/fired entry is a no-op, so owners can claim their
        ``self._entry`` unconditionally — a stale handle never smuggles
        a dead event into the branch.
        """
        if entry is None:
            return
        when, seq, _callback = entry
        if seq not in self._live or seq in self._claimed:
            return
        self._claimed.add(seq)
        self.events.append((when, seq, self._current_key, str(kind)))

    def capture(self, key, obj):
        """Run one object's ``__snapshot__`` under its registry key."""
        self._current_key = key
        try:
            return obj.__snapshot__(self)
        finally:
            self._current_key = None

    def unclaimed(self):
        """Live heap entries no owner claimed (capture-blocking)."""
        return [e for e in self.sim.live_entries()
                if e[1] not in self._claimed]


class RestoreContext:
    """Hands claimed events back to their owners during restore."""

    def __init__(self, sim, events):
        self.sim = sim
        self._by_key = {}
        for when, seq, key, kind in events:
            self._by_key.setdefault(key, []).append((when, seq, kind))
        self._current_key = None
        self._pushed = 0
        self._total = len(events)

    def events(self):
        """``(when, seq, kind)`` triples claimed by the current owner."""
        return list(self._by_key.get(self._current_key, ()))

    def push(self, when, seq, callback):
        """Re-push one claimed event with its original stamps."""
        self._pushed += 1
        return self.sim.restore_entry(when, seq, callback)

    def restore(self, key, obj, state):
        """Run one object's ``__restore__`` under its registry key."""
        self._current_key = key
        try:
            return obj.__restore__(state, self)
        finally:
            self._current_key = None

    def verify_consumed(self):
        if self._pushed != self._total:
            raise SnapshotError(
                f"restore re-pushed {self._pushed} of {self._total} "
                f"captured events — an owner dropped its claims"
            )
