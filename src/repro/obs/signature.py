"""Energy signatures: per-phase power profiles as a validation surface.

Behavioural diffing (:mod:`repro.obs.diff`) catches runs that *decide*
differently; it is blind to runs that decide identically but *spend*
differently — a mis-calibrated power table, a component left in a hot
state, a regression in the energy accounting itself.  Following the
power-profile validation literature ("Software Validation using Power
Profiles", ARENA), this module derives a compact **energy signature**
from any traced run:

1. The run's ``power/span`` journal events give a piecewise-constant
   power function of sim time (with per-component watt attribution).
2. The decision spine (fidelity-changing decisions, infeasibility
   verdicts) plus workload ``phase.begin`` markers give a stable,
   behaviour-keyed list of phase boundaries.
3. :func:`repro.powerscope.phases.fold_phase_energy` integrates power
   between boundaries, yielding one ``{id, joules, components}`` row
   per phase — the signature vector.

Signatures are pure functions of sim timestamps and event payloads
(wall-clock stamps are never consulted), serialize to canonical JSON,
and carry their own tolerance bands, so a blessed ``*.sig.json`` beside
a golden trace spine turns "behaviour matches but energy doesn't" into
a failing exit code: :func:`diff_signatures` aligns on phase ids and
flags out-of-band joule deltas; ``repro verify-profile`` is the CLI.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.obs.diff import decision_spine
from repro.obs.export import power_spans
from repro.obs.metrics import current_metrics
from repro.powerscope.phases import fold_phase_energy, spans_to_segments

__all__ = [
    "SIGNATURE_VERSION",
    "SignatureError",
    "SignatureDiff",
    "compute_signature",
    "diff_signatures",
    "signature_distance",
    "verify_signature",
    "write_signature",
    "read_signature",
]

SIGNATURE_VERSION = 1

#: Default tolerance bands baked into a blessed signature: a phase is
#: in-band when its joule delta is within ``rel`` of the larger side or
#: ``abs_j`` absolute, whichever is looser.
DEFAULT_REL_TOLERANCE = 0.05
DEFAULT_ABS_TOLERANCE_J = 2.0

_COMPUTE_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01,
                    0.05, 0.1, 0.5, 1.0, 5.0)


class SignatureError(Exception):
    """The event stream cannot yield a signature (no power spans), or a
    signature file is malformed."""


def _spine_digest(spine):
    payload = json.dumps([entry.to_dict() for entry in spine],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _boundary_labels(events, spine, run_t0, run_t1):
    """Collect ``(ts, label)`` phase boundaries strictly inside the run.

    Decision boundaries come from spine entries that changed behaviour
    (delivered upcalls or reported infeasibility) — pure ``hold`` ticks
    segment nothing.  Workload boundaries come from ``phase.begin``
    instants on the ``workload`` category.
    """
    boundaries = []
    for entry in spine:
        if entry.upcalls:
            kind, application, level = entry.upcalls[0]
            label = f"did{entry.did}:{entry.action}>{application}:{level}"
        elif entry.infeasible:
            label = f"did{entry.did}:infeasible"
        else:
            continue
        boundaries.append((entry.ts, label))
    for event in events:
        if isinstance(event, dict):
            if (event.get("cat") != "workload"
                    or event.get("name") != "phase.begin"):
                continue
            ts = event["ts"]
            track = event.get("track", "workload")
            args = event.get("args") or {}
        elif event.cat != "workload" or event.name != "phase.begin":
            continue
        else:
            ts = event.ts
            # ``to_dict`` leaves an unset track out of the record.
            track = "workload" if event.track is None else event.track
            args = event.args or {}
        workload = args.get("workload", track)
        item = args.get("item", "item")
        boundaries.append((ts, f"{workload}:{item}"))
    boundaries = [(ts, label) for ts, label in boundaries
                  if run_t0 < ts < run_t1]
    boundaries.sort(key=lambda b: b[0])
    return boundaries


def _merge_and_uniquify(boundaries, run_t0):
    """Coalesce same-instant boundaries; make every phase id unique."""
    merged = [(run_t0, "start")]
    for ts, label in boundaries:
        if merged[-1][0] == ts and merged[-1][1] != "start":
            merged[-1] = (ts, merged[-1][1] + "+" + label)
        elif ts > merged[-1][0]:
            merged.append((ts, label))
        # A boundary at exactly run_t0 adds nothing: "start" covers it.
    seen = {}
    unique = []
    for ts, label in merged:
        count = seen.get(label, 0) + 1
        seen[label] = count
        unique.append((ts, label if count == 1 else f"{label}#{count}"))
    return unique


def compute_signature(events, rel_tolerance=DEFAULT_REL_TOLERANCE,
                      abs_tolerance_j=DEFAULT_ABS_TOLERANCE_J,
                      metrics=None, spine=None, spans=None):
    """Derive the energy signature of one traced run.

    ``events`` is a recorded stream (TraceEvent objects or JSONL
    dicts) that must contain ``power/span`` events; ``core`` decision
    events and ``workload`` phase markers refine the segmentation when
    present.  Returns the signature as a JSON-shaped dict.

    ``spine`` and ``spans`` let a caller that already reduced
    ``events`` hand over its :func:`~repro.obs.diff.decision_spine` and
    :func:`~repro.obs.export.power_spans` index instead of having them
    recomputed; they must come from these same events, and the
    signature is then identical to the one computed without them.
    ``events`` is still read for the ``workload`` phase markers.
    """
    started = time.perf_counter()
    if iter(events) is events:
        events = list(events)  # a one-shot iterator is read up to 3 times
    if spans is None:
        spans = power_spans(events)
    if not spans:
        raise SignatureError(
            "no power/span events in the stream — record with the "
            "'power' trace category enabled"
        )
    segments = spans_to_segments(spans)
    run_t0 = min(seg[0] for seg in segments)
    run_t1 = max(seg[1] for seg in segments)
    if run_t1 <= run_t0:
        raise SignatureError("power journal covers zero sim time")

    if spine is None:
        spine = decision_spine(events)
    labelled = _merge_and_uniquify(
        _boundary_labels(events, spine, run_t0, run_t1), run_t0
    )
    instants = [ts for ts, _label in labelled] + [run_t1]
    folded = fold_phase_energy(segments, instants)

    phases = []
    for (ts, label), phase in zip(labelled, folded):
        duration = phase["t1"] - phase["t0"]
        phases.append({
            "id": label,
            "t0": phase["t0"],
            "t1": phase["t1"],
            "duration_s": duration,
            "joules": phase["joules"],
            "mean_w": phase["joules"] / duration if duration > 0 else 0.0,
            "components": phase["components"],
        })

    signature = {
        "version": SIGNATURE_VERSION,
        "kind": "energy-signature",
        "t0": run_t0,
        "t1": run_t1,
        "duration_s": run_t1 - run_t0,
        "total_joules": sum(p["joules"] for p in phases),
        "phase_count": len(phases),
        "tolerance": {"rel": rel_tolerance, "abs_j": abs_tolerance_j},
        "spine": {"decisions": len(spine), "digest": _spine_digest(spine)},
        "phases": phases,
    }

    registry = metrics if metrics is not None else current_metrics()
    registry.histogram("signature.compute_s", buckets=_COMPUTE_BUCKETS) \
        .observe(time.perf_counter() - started)
    registry.gauge("signature.phase_count").set(len(phases))
    return signature


# ----------------------------------------------------------------------
# comparing signatures
# ----------------------------------------------------------------------
class SignatureDiff:
    """Aligned comparison of two signatures (A = golden, B = candidate).

    ``phases`` holds one row per matched phase id (golden order);
    ``only_a``/``only_b`` list unmatched ids.  ``behaviour_match`` is
    the spine check; ``regression`` is True when behaviour drifted,
    phases appeared/vanished, or any matched phase's joule delta left
    its tolerance band — the "behaviour matches but energy doesn't"
    case is exactly ``behaviour_match and regression``.
    """

    def __init__(self, phases, only_a, only_b, behaviour_match,
                 shape_distance, tolerance, total_a, total_b):
        self.phases = phases
        self.only_a = only_a
        self.only_b = only_b
        self.behaviour_match = behaviour_match
        self.shape_distance = shape_distance
        self.tolerance = tolerance
        self.total_a = total_a
        self.total_b = total_b

    @property
    def out_of_band(self):
        return [p for p in self.phases if not p["in_band"]]

    @property
    def regression(self):
        return (not self.behaviour_match or bool(self.only_a)
                or bool(self.only_b) or bool(self.out_of_band))

    @property
    def first_offender(self):
        """The first phase id that breaks the verification, if any."""
        if self.out_of_band:
            return self.out_of_band[0]["id"]
        if self.only_a:
            return self.only_a[0]
        if self.only_b:
            return self.only_b[0]
        return None

    def to_dict(self):
        record = {
            "behaviour_match": self.behaviour_match,
            "regression": self.regression,
            "shape_distance": self.shape_distance,
            "tolerance": dict(self.tolerance),
            "total_a": self.total_a,
            "total_b": self.total_b,
            "total_delta": self.total_b - self.total_a,
            "matched": len(self.phases),
            "out_of_band": len(self.out_of_band),
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "phases": [dict(p) for p in self.phases],
        }
        if self.first_offender is not None:
            record["first_offender"] = self.first_offender
        return record

    def render(self, max_phases=10):
        """Human-readable per-phase report for the CLI."""
        lines = [
            f"energy profile: {len(self.phases)} matched phase(s), "
            f"total {self.total_a:.1f} J (golden) vs "
            f"{self.total_b:.1f} J (run), "
            f"shape distance {self.shape_distance:.4f}",
            f"tolerance: ±{self.tolerance['rel'] * 100:.1f}% rel, "
            f"±{self.tolerance['abs_j']:.1f} J abs",
        ]
        if not self.behaviour_match:
            lines.append(
                "BEHAVIOUR MISMATCH: decision spines differ — compare "
                "with 'repro diff' first; per-phase deltas below are "
                "best-effort"
            )
        for name, ids in (("golden", self.only_a), ("run", self.only_b)):
            if ids:
                shown = ", ".join(ids[:4])
                more = f" (+{len(ids) - 4} more)" if len(ids) > 4 else ""
                lines.append(f"phases only in {name}: {shown}{more}")
        offenders = self.out_of_band
        if offenders:
            lines.append(f"{len(offenders)} phase(s) out of band:")
            for index, phase in enumerate(offenders):
                if index == max_phases:
                    lines.append(
                        f"  ... {len(offenders) - max_phases} more phase(s)"
                    )
                    break
                lines.append(
                    f"  {phase['id']}: {phase['joules_a']:.1f} J -> "
                    f"{phase['joules_b']:.1f} J "
                    f"(delta {phase['delta_j']:+.1f} J, "
                    f"{phase['rel_delta'] * 100:+.1f}%)"
                )
        elif self.behaviour_match and not self.only_a and not self.only_b:
            lines.append("all phases within tolerance")
        if self.regression:
            lines.append(
                f"verdict: REGRESSION (first offender: "
                f"{self.first_offender or 'spine'})"
            )
        else:
            lines.append("verdict: clean")
        return "\n".join(lines)


def diff_signatures(golden, candidate, rel_tolerance=None,
                    abs_tolerance_j=None):
    """Compare ``candidate`` against ``golden``, aligned on phase ids.

    Tolerances default to the bands baked into the golden signature.
    Returns a :class:`SignatureDiff`.
    """
    tolerance = golden.get("tolerance") or {}
    rel = (rel_tolerance if rel_tolerance is not None
           else tolerance.get("rel", DEFAULT_REL_TOLERANCE))
    abs_j = (abs_tolerance_j if abs_tolerance_j is not None
             else tolerance.get("abs_j", DEFAULT_ABS_TOLERANCE_J))

    index_b = {}
    for phase in candidate.get("phases", ()):
        index_b.setdefault(phase["id"], phase)

    phases = []
    only_a = []
    matched_b = set()
    for phase_a in golden.get("phases", ()):
        phase_b = index_b.get(phase_a["id"])
        if phase_b is None:
            only_a.append(phase_a["id"])
            continue
        matched_b.add(phase_a["id"])
        joules_a = phase_a["joules"]
        joules_b = phase_b["joules"]
        delta = joules_b - joules_a
        scale = max(abs(joules_a), abs(joules_b))
        phases.append({
            "id": phase_a["id"],
            "joules_a": joules_a,
            "joules_b": joules_b,
            "delta_j": delta,
            "rel_delta": delta / scale if scale > 0 else 0.0,
            "in_band": abs(delta) <= max(abs_j, rel * scale),
        })
    only_b = [phase["id"] for phase in candidate.get("phases", ())
              if phase["id"] not in matched_b]

    spine_a = golden.get("spine") or {}
    spine_b = candidate.get("spine") or {}
    behaviour_match = (
        spine_a.get("digest") == spine_b.get("digest")
        and spine_a.get("decisions") == spine_b.get("decisions")
    )

    # Shape distance: half the L1 distance between the two normalized
    # joule distributions over matched phases — 0.0 means identical
    # shape regardless of scale, 1.0 means disjoint spending.
    sum_a = sum(abs(p["joules_a"]) for p in phases)
    sum_b = sum(abs(p["joules_b"]) for p in phases)
    if sum_a > 0 and sum_b > 0:
        shape_distance = 0.5 * sum(
            abs(abs(p["joules_a"]) / sum_a - abs(p["joules_b"]) / sum_b)
            for p in phases
        )
    else:
        shape_distance = 0.0 if sum_a == sum_b else 1.0

    return SignatureDiff(
        phases, only_a, only_b, behaviour_match, shape_distance,
        {"rel": rel, "abs_j": abs_j},
        golden.get("total_joules", sum_a),
        candidate.get("total_joules", sum_b),
    )


def signature_distance(signature_a, signature_b):
    """Symmetric-use comparison of two peer signatures — no blessed side.

    :func:`diff_signatures` frames its inputs as golden-vs-candidate
    (tolerance bands come from the golden, ``regression`` encodes a
    verification verdict); policy comparisons have no blessed side —
    both runs are first-class.  This wraps the same phase alignment and
    shape metric into a compact scalar record: how differently did two
    runs *spend*, independent of any band.

    Returns ``{"shape_distance", "behaviour_match", "matched_phases",
    "unmatched_phases", "total_a", "total_b", "total_delta"}`` — a pure
    function of the two signature dicts.
    """
    diff = diff_signatures(signature_a, signature_b)
    return {
        "shape_distance": diff.shape_distance,
        "behaviour_match": diff.behaviour_match,
        "matched_phases": len(diff.phases),
        "unmatched_phases": len(diff.only_a) + len(diff.only_b),
        "total_a": diff.total_a,
        "total_b": diff.total_b,
        "total_delta": diff.total_b - diff.total_a,
    }


def verify_signature(events, golden, rel_tolerance=None,
                     abs_tolerance_j=None, metrics=None):
    """Compute a run's signature and check it against a blessed one.

    Returns the :class:`SignatureDiff`; bumps the
    ``signature.verify_failures`` counter when it is a regression.
    """
    registry = metrics if metrics is not None else current_metrics()
    candidate = compute_signature(events, metrics=registry)
    diff = diff_signatures(golden, candidate,
                           rel_tolerance=rel_tolerance,
                           abs_tolerance_j=abs_tolerance_j)
    if diff.regression:
        registry.counter("signature.verify_failures").inc()
    return diff


# ----------------------------------------------------------------------
# persistence (the *.sig.json golden format)
# ----------------------------------------------------------------------
def write_signature(signature, path):
    """Write canonical signature JSON (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(signature, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_signature(path):
    """Load and sanity-check a signature written by :func:`write_signature`."""
    with open(path, "r", encoding="utf-8") as handle:
        signature = json.load(handle)
    if signature.get("kind") != "energy-signature":
        raise SignatureError(f"{path}: not an energy signature file")
    if signature.get("version") != SIGNATURE_VERSION:
        raise SignatureError(
            f"{path}: signature version {signature.get('version')} "
            f"!= supported {SIGNATURE_VERSION}"
        )
    return signature
