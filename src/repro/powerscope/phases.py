"""Fold a power journal into per-phase joule totals.

The machine's segment journal (and its traced ``power/span`` image) is
a piecewise-constant power function of simulated time.  Given a sorted
list of phase boundaries — decision instants from the spine, workload
``phase.begin`` markers — this module integrates that function per
phase, pro-rating segments that straddle a boundary, and attributes
each phase's joules to hardware components.  It is the journal→phase
fold under :mod:`repro.obs.signature`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = [
    "fold_phase_energy",
    "spans_to_segments",
]


def spans_to_segments(spans):
    """Convert a :func:`repro.obs.export.power_spans` index to segments.

    Returns ``(t0, t1, watts, components)`` tuples sorted by start
    time; ``components`` is a ``{name: watts}`` dict or ``None`` for
    spans traced before per-component attribution existed.
    """
    segments = []
    for span in spans.values():
        t0 = span["t0"]
        t1 = t0 + (span["dur"] or 0.0)
        segments.append((t0, t1, span["watts"] or 0.0, span.get("components")))
    segments.sort(key=lambda seg: (seg[0], seg[1]))
    return segments


def fold_phase_energy(segments, boundaries):
    """Integrate piecewise-constant power between phase boundaries.

    ``segments`` is an iterable of ``(t0, t1, watts, components)``;
    ``boundaries`` a sorted list of at least two instants — phase *i*
    spans ``[boundaries[i], boundaries[i+1])``.  Returns one dict per
    phase: ``{"t0", "t1", "joules", "components": {name: joules}}``.
    Segments overlapping a boundary contribute pro rata to both sides.
    Each segment visits only the phases a bisect of ``boundaries`` says
    it can overlap, in phase order, so every phase receives the same
    products in the same (segment) order as a scan of all phases.
    """
    if len(boundaries) < 2:
        raise ValueError("need at least two phase boundaries")
    if any(b < a for a, b in zip(boundaries, boundaries[1:])):
        raise ValueError("phase boundaries must be sorted")
    phases = [
        {"t0": t0, "t1": t1, "joules": 0.0, "components": {}}
        for t0, t1 in zip(boundaries, boundaries[1:])
    ]
    # A NaN boundary passes the sort check but breaks bisection; a NaN
    # edge (boundary or segment) takes the scan.
    bisectable = all(a <= b for a, b in zip(boundaries, boundaries[1:]))
    for t0, t1, watts, components in segments:
        if t1 <= t0:
            continue
        if bisectable and t0 == t0 and t1 == t1:
            # Phase i spans [boundaries[i], boundaries[i+1]).
            lo = max(bisect_right(boundaries, t0) - 1, 0)
            hi = min(bisect_left(boundaries, t1, lo), len(phases))
            visited = phases[lo:hi]
        else:
            visited = phases
        for phase in visited:
            overlap = min(t1, phase["t1"]) - max(t0, phase["t0"])
            if overlap <= 0.0:
                continue
            phase["joules"] += watts * overlap
            if components:
                rows = phase["components"]
                for name, comp_watts in components.items():
                    rows[name] = rows.get(name, 0.0) + comp_watts * overlap
    return phases
