"""Fold a cProfile of the timed operations into per-package layer figures.

A layer is a top-level package of ``repro`` (``repro.sim``,
``repro.hardware``, ...).  Its self time is the profiled self time of
its own functions plus the share of non-``repro`` code (builtins and
standard library) run on its behalf: a non-repro function's self time
is split over its callers in proportion to the time it spent for each,
and a non-repro caller passes its share on up to its own callers, so
``heapq.heappush`` inside the engine counts as engine time and the JSON
encoder behind an exporter's ``json.dump`` counts as ``obs`` time.
Time no repro caller accounts for (the benchmark's own code) stays in
``python``.

Self time is reported as a percentage of all profiled self time: the
host's speed drifts between runs, and a share does not move with it.
Calls count each layer's own function calls per operation, a work
count that repeats exactly for the same inputs.
"""

from __future__ import annotations

import os
import pstats

#: Layers whose self-time share is reported: every workload enters each
#: of them, so none reads a constant zero.
TIMED_LAYERS = ("sim", "hardware", "powerscope", "core", "obs")

#: Layers whose call counts are reported; a workload that never enters
#: one reports 0 calls.
COUNTED_LAYERS = ("sim", "hardware", "powerscope", "core", "obs",
                  "snapshot", "fleet", "devices", "apps", "experiments")


def _layer_of(filename, root):
    """``repro`` package a code file belongs to, or None outside it."""
    if not filename.startswith(root):
        return None
    head = filename[len(root):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


def fold(profile):
    """Return ``(self_seconds, calls)`` dicts keyed by ``repro`` package.

    ``self_seconds`` also has ``python`` for time no repro caller
    accounts for.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    stats = pstats.Stats(profile).stats
    owners = {}

    def owner_shares(func, visiting):
        """``{layer: fraction}`` of ``func``'s self time, summing to 1.

        None when ``func`` is reached only through a recursion cycle
        already being resolved: that path adds no owner of its own.
        """
        layer = _layer_of(func[0], root)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        if func in visiting:
            return None
        # A frame already running when profiling began has no entry.
        callers = stats[func][4] if func in stats else {}
        visiting.add(func)
        resolved = []
        for caller, edge in callers.items():
            shares = owner_shares(caller, visiting)
            if shares is not None:
                # Weight by time spent for the caller, plus its calls
                # so an edge that rounds to zero time still counts.
                resolved.append((shares, edge[2] + edge[0] * 1e-9))
        visiting.discard(func)
        if not resolved:
            if callers:
                return None
            owners[func] = {"python": 1.0}
            return owners[func]
        total = sum(weight for _shares, weight in resolved)
        merged = {}
        for shares, weight in resolved:
            for owner, fraction in shares.items():
                merged[owner] = (merged.get(owner, 0.0)
                                 + fraction * weight / total)
        owners[func] = merged
        return merged

    self_s = {}
    calls = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = _layer_of(func[0], root)
        if layer is not None:
            calls[layer] = calls.get(layer, 0) + nc
        shares = owner_shares(func, set()) or {"python": 1.0}
        for owner, fraction in shares.items():
            self_s[owner] = self_s.get(owner, 0.0) + tt * fraction
    return self_s, calls


def layer_metrics(profile, ops):
    """Per-operation layer metrics, named as in ``BENCHMARK.json``."""
    self_s, calls = fold(profile)
    total = sum(self_s.values())
    shares = {layer: 100.0 * seconds / total
              for layer, seconds in self_s.items()}
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_self_pct"] = (shares.get(layer, 0.0), "%")
    metrics["other_repro_self_pct"] = (
        sum(share for layer, share in shares.items()
            if layer not in TIMED_LAYERS and layer != "python"), "%")
    metrics["python_self_pct"] = (shares.get("python", 0.0), "%")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}_calls"] = (calls.get(layer, 0) / ops, "count")
    return metrics
