"""Declarative campaign model: tasks, stable keys, deterministic seeds.

A *task* is one independent simulation: a module-level callable named by
dotted path, plus JSON-serializable keyword parameters.  A *campaign*
is an ordered collection of uniquely-named tasks.  Everything about a
task is data, which buys three properties at once:

* it pickles across a process pool without dragging closures along;
* it hashes stably (:func:`task_key`), so an on-disk cache can tell
  whether a task has already been executed by *any* previous run;
* seeds derive deterministically from the campaign seed and the task id
  (:func:`derive_seed`), so serial and parallel execution are
  bit-identical — ordering and worker count never leak into results.

Tasks may optionally carry an opaque ``payload`` of extra positional
arguments (e.g. a caller-supplied experiment callable).  Payloads ride
along to workers via pickle but are *not* part of the cache key; a task
with a payload is simply uncacheable.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field, replace

__all__ = [
    "Task",
    "CampaignSpec",
    "derive_seed",
    "task_key",
    "resolve_callable",
]

# Bump to invalidate every previously cached result (task semantics changed).
CACHE_KEY_VERSION = 1


def canonical_json(obj):
    """Canonical JSON text for hashing: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(root_seed, *components):
    """Derive a deterministic 63-bit seed from a root seed and labels.

    The derivation is a stable hash, so it is independent of execution
    order, worker count, and Python's per-process hash randomization.
    """
    text = canonical_json([int(root_seed), list(map(str, components))])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_callable(path):
    """Import ``"pkg.module:attr"`` (or ``"pkg.module.attr"``) to a callable."""
    if ":" in path:
        module_name, _, attr = path.partition(":")
    else:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise ValueError(f"not a dotted callable path: {path!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(fn):
        raise ValueError(f"{path!r} resolved to non-callable {fn!r}")
    return fn


def task_key(fn, params):
    """Stable hex digest identifying one task's work, or the cache key."""
    text = canonical_json({
        "v": CACHE_KEY_VERSION,
        "fn": fn,
        "params": params,
    })
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Task:
    """One schedulable simulation: ``resolve(fn)(*payload, **params)``.

    Parameters must be JSON-serializable (they are hashed into the
    cache key); anything that is not — a callable, a rich object —
    travels in ``payload`` and marks the task uncacheable.
    """

    id: str
    fn: str
    params: dict = field(default_factory=dict)
    payload: tuple = ()
    timeout_s: float = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("task id must be non-empty")
        object.__setattr__(self, "payload", tuple(self.payload))
        object.__setattr__(self, "params", dict(self.params))
        if self.cacheable:
            canonical_json(self.params)  # fail fast on non-JSON params

    @property
    def cacheable(self):
        """Only pure-data tasks have a stable identity worth caching."""
        return not self.payload

    def key(self):
        """Cache key, or ``None`` when the task carries a payload."""
        if not self.cacheable:
            return None
        return task_key(self.fn, self.params)

    def to_dict(self):
        """Wire format for the campaign service; pure-data tasks only."""
        if self.payload:
            raise ValueError(
                f"task {self.id!r} carries a payload and cannot be "
                f"serialized for submission"
            )
        record = {"id": self.id, "fn": self.fn, "params": self.params}
        if self.timeout_s is not None:
            record["timeout_s"] = self.timeout_s
        return record

    @classmethod
    def from_dict(cls, record):
        return cls(
            id=record["id"],
            fn=record["fn"],
            params=record.get("params", {}),
            timeout_s=record.get("timeout_s"),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered, uniquely-named collection of independent tasks."""

    name: str
    tasks: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen = set()
        for task in self.tasks:
            if task.id in seen:
                raise ValueError(
                    f"duplicate task id {task.id!r} in campaign {self.name!r}"
                )
            seen.add(task.id)

    def __len__(self):
        return len(self.tasks)

    def to_dict(self):
        """Wire format for the campaign service (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "tasks": [task.to_dict() for task in self.tasks],
        }

    @classmethod
    def from_dict(cls, record):
        """Rebuild a spec a client serialized with :meth:`to_dict`.

        The round-trip is exact for pure-data campaigns, so a spec
        submitted over the service wire hashes (and therefore caches
        and seeds) identically to the in-process original.
        """
        return cls(
            name=record["name"],
            tasks=tuple(Task.from_dict(t) for t in record.get("tasks", ())),
            seed=record.get("seed", 0),
        )

    def auto_seeded(self, param="seed"):
        """Give every task lacking ``param`` a seed derived from its id.

        The derived seed depends only on ``(self.seed, task.id)``, never
        on position or worker assignment, so any execution order
        reproduces the same per-task randomness.
        """
        tasks = []
        for task in self.tasks:
            if param in task.params:
                tasks.append(task)
            else:
                params = dict(task.params)
                params[param] = derive_seed(self.seed, self.name, task.id)
                tasks.append(replace(task, params=params))
        return replace(self, tasks=tuple(tasks))
