"""FIFO resources for simulated contention.

The reproduction uses resources for the client CPU (capacity 1) and the
wireless link (capacity 1): only one compute burst or one transfer
proceeds at a time, and waiters are served strictly in arrival order.
This mirrors the coarse-grained, non-preemptive interleaving visible in
the paper's PowerScope profiles.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Waitable
from repro.sim.errors import ResourceError

__all__ = ["Resource", "ResourceGrant"]


class ResourceGrant(Waitable):
    """Waitable handed to acquirers; fires when the resource is granted.

    A grant is its own value (``grant = yield resource.acquire()``).
    ``value`` computes it rather than storing it, so a grant holds no
    reference to itself and reference counting alone frees it.
    """

    __slots__ = ("resource", "owner")

    def __init__(self, resource, owner):
        # Waitable's fields set inline: its __init__ would also run the
        # `value` setter below, and there is one grant per resource use.
        self.sim = resource.sim
        self._callbacks = []
        self.triggered = False
        self.resource = resource
        self.owner = owner

    @property
    def value(self):
        return self if self.triggered else None

    @value.setter
    def value(self, value):
        # Waitable records what it delivers; a grant delivers itself.
        pass


class Resource:
    """A capacity-limited resource with FIFO granting.

    Examples
    --------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> cpu = Resource(sim, capacity=1, name="cpu")
    >>> def worker():
    ...     grant = cpu.acquire(owner="worker")
    ...     yield grant
    ...     yield sim.timeout(1.0)
    ...     cpu.release(grant)
    >>> _ = sim.spawn(worker())
    >>> _ = sim.run()
    """

    def __init__(self, sim, capacity=1, name=None):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._queue = deque()
        self._holders = []

    def __repr__(self):
        return (
            f"<Resource {self.name} {len(self._holders)}/{self.capacity} held, "
            f"{len(self._queue)} queued>"
        )

    @property
    def in_use(self):
        """Number of grants currently held."""
        return len(self._holders)

    @property
    def queued(self):
        """Number of acquirers waiting."""
        return len(self._queue)

    def acquire(self, owner=None):
        """Request the resource; returns a :class:`ResourceGrant` waitable."""
        grant = ResourceGrant(self, owner)
        if len(self._holders) < self.capacity:
            self._holders.append(grant)
            # Nothing can have subscribed to a grant not yet returned,
            # so firing it is just marking it fired.
            grant.triggered = True
        else:
            self._queue.append(grant)
        return grant

    def release(self, grant):
        """Release a previously granted :class:`ResourceGrant`."""
        if grant not in self._holders:
            raise ResourceError(f"{self.name}: releasing a grant that is not held")
        self._holders.remove(grant)
        if self._queue:
            nxt = self._queue.popleft()
            self._holders.append(nxt)
            nxt.trigger(nxt)

    def use(self, duration, owner=None, on_grant=None, on_release=None):
        """Generator: hold the resource for ``duration`` simulated seconds.

        ``on_grant``/``on_release`` are optional zero-argument callbacks
        invoked when the resource is actually granted/released — the
        network link uses them to wake the NIC and add its interrupt
        overlay exactly while the link is held.  ``Machine.compute``
        inlines this same order for its FIFO CPU bursts.
        """
        grant = self.acquire(owner=owner)
        if not grant.triggered:
            yield grant
        if on_grant is not None:
            on_grant()
        try:
            yield self.sim.timeout(duration)
        finally:
            if on_release is not None:
                on_release()
            self.release(grant)
