"""Snapshot: capture, fork, and restore a registered simulation stack.

A snapshot is a pure JSON-shaped payload — builder reference, simulator
header (clock + sequence counter), per-object state dicts, and the
pending event list with original ``(when, seq)`` stamps.  ``fork()``
and :meth:`Snapshot.restore` share one code path: every branch is built
from the payload, so the in-memory fork and the on-disk warm start are
the same operation and the determinism tests cover both.

Determinism contract
--------------------
Capturing is side-effect free for the parent (the integer sequence
counter is read, not consumed) and restoring reproduces the parent's
future exactly: a stack restored at time T and advanced to T' produces
a byte-identical decision spine and power journal to the uninterrupted
run — enforced by ``tests/test_snapshot_determinism.py`` and the
snapshot-smoke CI job.
"""

from __future__ import annotations

from time import perf_counter

from repro.fleet.spec import resolve_callable
from repro.obs.metrics import current_metrics
from repro.snapshot.protocol import CaptureContext, RestoreContext, SnapshotError

__all__ = ["Snapshot", "PAYLOAD_VERSION"]

#: Bump when the payload layout changes; the store refuses mismatches.
PAYLOAD_VERSION = 1

#: Capture/fork latencies sit in the micro- to millisecond range, far
#: below the registry's default (second-scale) boundaries.
_SNAPSHOT_TIME_BUCKETS = (
    0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 1.0,
)


class Snapshot:
    """One captured state of a snapshot-capable stack."""

    def __init__(self, payload):
        self.payload = payload

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, sim):
        """Serialize ``sim`` and every registered snapshottable.

        The simulator must carry a ``snapshot_builder`` — a
        ``(dotted_path, params)`` pair naming the callable that rebuilds
        this stack — and every live heap entry must be claimed by some
        registered object, or the capture raises naming the stragglers.
        """
        start = perf_counter()
        if sim.snapshot_builder is None:
            raise SnapshotError(
                "simulator has no snapshot_builder; build the stack with a "
                "snapshot-capable builder (see repro.snapshot.scenario)"
            )
        builder, params = sim.snapshot_builder
        ctx = CaptureContext(sim)
        states = {}
        for key, obj in sim.snapshottables.items():
            states[key] = ctx.capture(key, obj)
        stragglers = ctx.unclaimed()
        if stragglers:
            names = ", ".join(
                f"seq={seq} due={when:g} "
                f"{getattr(cb, '__qualname__', repr(cb))}"
                for when, seq, cb in stragglers[:5]
            )
            raise SnapshotError(
                f"{len(stragglers)} pending event(s) not claimed by any "
                f"snapshottable: {names}" +
                (" ..." if len(stragglers) > 5 else "")
            )
        payload = {
            "version": PAYLOAD_VERSION,
            "builder": builder,
            "params": dict(params),
            "sim": {"now": sim.now, "next_seq": sim._next_seq},
            "states": states,
            "events": [list(e) for e in ctx.events],
        }
        current_metrics().histogram(
            "snapshot.capture_s", _SNAPSHOT_TIME_BUCKETS
        ).observe(perf_counter() - start)
        return cls(payload)

    # ------------------------------------------------------------------
    def restore(self, tracer=None):
        """Build a fresh stack from the payload and apply the state.

        The builder gets the captured params and ``tracer``, which is
        runtime environment, not identity (None resolves the installed
        tracer, as a plain build does).  Returns whatever the builder
        returns (the scenario object owning the new simulator).
        """
        start = perf_counter()
        payload = self.payload
        if payload.get("version") != PAYLOAD_VERSION:
            raise SnapshotError(
                f"snapshot payload version {payload.get('version')!r} != "
                f"supported {PAYLOAD_VERSION}"
            )
        scenario = resolve_callable(payload["builder"])(
            tracer=tracer, **payload["params"])
        sim = scenario.sim
        if sim.live_entries():
            raise SnapshotError(
                "snapshot builder scheduled events before restore; "
                "builders must return a never-started stack"
            )
        sim.now = float(payload["sim"]["now"])
        sim._next_seq = int(payload["sim"]["next_seq"])
        states = payload["states"]
        registered = sim.snapshottables
        missing = [k for k in states if k not in registered]
        if missing:
            raise SnapshotError(
                f"builder did not register snapshottable(s): {missing}"
            )
        ctx = RestoreContext(sim, payload["events"])
        for key, obj in registered.items():
            if key in states:
                ctx.restore(key, obj, states[key])
        ctx.verify_consumed()
        current_metrics().histogram(
            "snapshot.fork_s", _SNAPSHOT_TIME_BUCKETS
        ).observe(perf_counter() - start)
        return scenario

    def fork(self, tracer=None):
        """Alias for :meth:`restore`: yield an independent branch."""
        return self.restore(tracer=tracer)

    # ------------------------------------------------------------------
    @property
    def time(self):
        return self.payload["sim"]["now"]

    @property
    def builder(self):
        return self.payload["builder"]

    @property
    def params(self):
        return dict(self.payload["params"])

    def __repr__(self):
        return (f"<Snapshot t={self.time:g} builder={self.builder} "
                f"events={len(self.payload['events'])}>")
