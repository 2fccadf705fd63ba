"""Policy diff matrix: N policy variants vs one baseline, as a fleet.

The paper's Section 5 claim is comparative — adaptation policies differ
in energy and fidelity outcomes *relative to a common baseline*.  One
``repro diff`` compares exactly two traces; a hysteresis/horizon sweep
produces dozens of candidates.  This module turns that comparison into
a campaign:

1. :func:`policy_matrix_campaign` lays one fleet task per policy
   variant (plus a baseline self-row), each task carrying the candidate
   *and* baseline builder params as plain JSON — so tasks stay
   independent, cacheable, and service-submittable.
2. :func:`policy_matrix_row` runs inside a fleet worker: it simulates
   the candidate and the baseline under private tracers, reduces both
   to decision spine + power-span journal, and diffs them with
   :func:`repro.obs.diff.diff_row` and
   :func:`repro.obs.signature.signature_distance`.  Diffing is
   embarrassingly parallel (both helpers are pure), so the whole matrix
   scales with the pool.  A per-process memo keeps each worker from
   re-simulating the baseline for every candidate it is handed.
3. :func:`matrix_from_values` folds the per-task rows into a
   :class:`PolicyMatrix` — deterministic row order (spec order),
   canonical JSON document, rendered table, and threshold checks for
   CI gating.

An optional device axis (EMaaS-style, PAPERS.md) asks which policies
stay well-behaved across a fleet of *non-identical* devices: given
``devices``, the campaign lays the same rows once per
:class:`~repro.devices.profile.DeviceProfile`, each row simulating both
candidate and baseline on that device (so the diff is
candidate-on-D vs baseline-on-D), and the folded document becomes a
``fleet-matrix`` with the device block and a per-policy robustness
summary across devices.

Because each row is a pure function of ``(candidate, baseline,
scenario, device)`` params and the fold is keyed on task ids, the
matrix document is byte-identical across serial, parallel, cache-warm,
and service-submitted runs — the same invariant the fleet holds for
every other campaign.
"""

from __future__ import annotations

from repro.fleet.spec import CampaignSpec, Task, canonical_json

__all__ = [
    "MATRIX_KIND",
    "MATRIX_VERSION",
    "FLEET_MATRIX_KIND",
    "FLEET_MATRIX_VERSION",
    "MATRIX_TASK_FN",
    "POLICY_KEYS",
    "SCENARIO_KEYS",
    "DEFAULT_GRID",
    "PolicyMatrix",
    "parse_policy_spec",
    "policy_label",
    "policy_matrix_row",
    "policy_matrix_campaign",
    "matrix_from_values",
    "matrix_from_result",
]

MATRIX_KIND = "policy-matrix"
MATRIX_VERSION = 1
#: Document kind of a matrix with a device axis.
FLEET_MATRIX_KIND = "fleet-matrix"
FLEET_MATRIX_VERSION = 1
_VERSIONS = {MATRIX_KIND: MATRIX_VERSION,
             FLEET_MATRIX_KIND: FLEET_MATRIX_VERSION}
MATRIX_TASK_FN = "repro.fleet.diffmatrix:policy_matrix_row"

#: Builder params a policy variant may set (everything here is a
#: keyword of ``repro.snapshot.scenario.build_pulse_scenario``).
POLICY_KEYS = frozenset({
    "lookahead", "horizon", "beam_width", "beam_depth",
    "variable_fraction", "constant_fraction",
    "decision_period", "halflife_fraction", "upgrade_min_interval",
})

#: Builder params that size the shared scenario all variants run on.
SCENARIO_KEYS = frozenset({
    "goal_seconds", "initial_energy", "sample_period",
}) | POLICY_KEYS

_INT_KEYS = frozenset({"beam_width", "beam_depth"})
_BOOL_KEYS = frozenset({"lookahead"})

#: The CLI's default candidate set: hysteresis on/off x lookahead
#: off/on — the smallest grid that exercises a zero row, a pure
#: hysteresis delta, and the measurement-vs-extrapolation axis.
DEFAULT_GRID = (
    "hysteresis=on,lookahead=off",
    "hysteresis=off,lookahead=off",
    "hysteresis=on,lookahead=on",
    "hysteresis=off,lookahead=on",
)

#: Reserved row label for the baseline-vs-itself row.
BASELINE_LABEL = "baseline"


# ----------------------------------------------------------------------
# policy specs and labels
# ----------------------------------------------------------------------
def parse_policy_spec(text, allowed=None):
    """Parse ``"key=value,key=value"`` into builder params.

    ``"default"`` (or an empty string) means the unmodified policy.
    The sugar key ``hysteresis`` expands to the trigger's two margin
    fractions: ``hysteresis=off`` zeroes both, ``hysteresis=on`` keeps
    the defaults.  Booleans accept on/off/true/false; everything else
    parses as int or float.  Unknown keys raise ``ValueError``.
    """
    allowed = POLICY_KEYS if allowed is None else allowed
    params = {}
    text = (text or "").strip()
    if text in ("", "default", BASELINE_LABEL):
        return params
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"malformed policy spec item {item!r} "
                             f"(expected key=value)")
        if key == "hysteresis":
            if _parse_bool(key, value):
                params.pop("variable_fraction", None)
                params.pop("constant_fraction", None)
            else:
                params["variable_fraction"] = 0.0
                params["constant_fraction"] = 0.0
            continue
        if key not in allowed:
            raise ValueError(
                f"unknown policy key {key!r} (have: "
                f"{', '.join(sorted(allowed))}, plus 'hysteresis')"
            )
        if key in _BOOL_KEYS:
            params[key] = _parse_bool(key, value)
        else:
            params[key] = _parse_number(key, value)
    return params


def _parse_bool(key, value):
    lowered = value.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"{key} expects on/off, got {value!r}")


def _parse_number(key, value):
    kind, cast = (("an integer", int) if key in _INT_KEYS
                  else ("a number", float))
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{key} expects {kind}, got {value!r}") from None


def policy_label(params):
    """Canonical display label for a policy param dict."""
    if not params:
        return "default"
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return ",".join(parts)


# ----------------------------------------------------------------------
# the worker side: one row per candidate
# ----------------------------------------------------------------------
#: Per-process memo of traced runs, keyed on builder params with the
#: builder's defaults filled in (see :func:`_memo_key`).  Each worker
#: simulates the shared baseline (and any repeated policy) once;
#: results are pure functions of the params, so memoization can never
#: change a row — only skip a re-simulation.
_RECORD_MEMO = {}
_RECORD_MEMO_MAX = 16


def _memo_key(params, builder):
    """Canonical params with ``builder``'s defaults filled in, so ``{}``
    and ``{"lookahead": false}`` (the same scenario) share one entry.
    Process-local only: task, cache and snapshot keys keep the params
    as given."""
    import inspect

    full = {
        name: parameter.default
        for name, parameter in inspect.signature(builder).parameters.items()
        if name not in ("tracer", "metrics")
    }
    full.update(params)
    return canonical_json(full)


def _traced_record(params):
    """Run one traced pulse scenario; return its reduced artifacts."""
    from repro.snapshot.scenario import build_pulse_scenario

    key = _memo_key(params, build_pulse_scenario)
    record = _RECORD_MEMO.get(key)
    if record is not None:
        return record

    from repro.obs.diff import decision_spine
    from repro.obs.export import power_spans
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.signature import compute_signature
    from repro.obs.tracer import Tracer

    # A private tracer (not process-installed) so matrix tasks compose
    # with worker-trace rings and nested tooling; the machine registers
    # its flush hook on it at construction.
    tracer = Tracer(categories={"core", "power"})
    scenario = build_pulse_scenario(
        tracer=tracer, metrics=MetricsRegistry(), **params
    )
    scenario.start()
    scenario.run()
    tracer.flush()
    events = [event.to_dict() for event in tracer.events]
    record = {
        "spine": decision_spine(events),
        "spans": power_spans(events),
        "signature": compute_signature(events,
                                       metrics=MetricsRegistry()),
        "summary": scenario.summary(),
    }
    if len(_RECORD_MEMO) >= _RECORD_MEMO_MAX:
        _RECORD_MEMO.pop(next(iter(_RECORD_MEMO)))
    _RECORD_MEMO[key] = record
    return record


def policy_matrix_row(label, candidate=None, baseline=None, scenario=None,
                      gap=0, device=None):
    """Fleet task: diff one candidate policy against the baseline.

    Runs both policies on the shared scenario (baseline runs are
    memoized per process) and reduces the pair to one scorecard row.
    ``device`` (a :class:`~repro.devices.profile.DeviceProfile` dict)
    joins the scenario params, so candidate and baseline simulate on
    the same miscalibrated hardware and the memo keys on it; the row
    is stamped with its ``device_id``.  All inputs are plain JSON, so
    the task is cacheable and service-submittable; the row is a pure
    function of its params.
    """
    from repro.obs.diff import diff_row
    from repro.obs.signature import signature_distance

    scenario = dict(scenario or {})
    if device is not None:
        scenario["device"] = dict(device)
    candidate_params = dict(scenario, **dict(candidate or {}))
    baseline_params = dict(scenario, **dict(baseline or {}))
    cand = _traced_record(candidate_params)
    base = _traced_record(baseline_params)

    row = diff_row(base["spine"], base["spans"],
                   cand["spine"], cand["spans"], gap=gap)
    shape = signature_distance(base["signature"], cand["signature"])
    summary = cand["summary"]
    row.update({
        "policy": label,
        "params": dict(candidate or {}),
        "goal_met": summary["goal_met"],
        "baseline_goal_met": base["summary"]["goal_met"],
        "survived_seconds": summary["survived_seconds"],
        "battery_residual_j": summary["battery_residual_j"],
        "shape_distance": shape["shape_distance"],
        "behaviour_match": shape["behaviour_match"],
    })
    if device is not None:
        row["device"] = device["device_id"]
    return row


# ----------------------------------------------------------------------
# campaign construction and the matrix fold
# ----------------------------------------------------------------------
def _normalize_candidates(candidates):
    """Accept dicts, spec strings, or ``(label, params)`` pairs."""
    normalized = []
    for candidate in candidates:
        if isinstance(candidate, str):
            params = parse_policy_spec(candidate)
            label = candidate.strip() or "default"
            normalized.append((label, params))
        elif isinstance(candidate, dict):
            normalized.append((policy_label(candidate), dict(candidate)))
        else:
            label, params = candidate
            normalized.append((str(label), dict(params)))
    return normalized


def _device_dicts(devices):
    """Plain device dicts with unique, non-empty ids, in fleet order."""
    records = []
    seen = set()
    for device in devices:
        record = (device.to_dict() if hasattr(device, "to_dict")
                  else dict(device))
        if not record.get("device_id"):
            raise ValueError("device profile missing device_id")
        if record["device_id"] in seen:
            raise ValueError(f"duplicate device_id {record['device_id']!r}")
        seen.add(record["device_id"])
        records.append(record)
    if not records:
        raise ValueError("fleet must contain at least one device")
    return records


def policy_matrix_campaign(candidates, baseline=None, scenario=None,
                           name=None, gap=0, devices=None):
    """Build the matrix campaign: a baseline self-row plus one row per
    candidate, in the given order.

    ``candidates`` accepts policy spec strings, param dicts, or
    ``(label, params)`` pairs (explicit labels let two candidates share
    params).  ``baseline`` is the common comparison policy (params dict
    or spec string); ``scenario`` sizes the shared run (e.g.
    ``goal_seconds``/``initial_energy``).  Duplicate labels raise, as
    any duplicate task id does.

    With ``devices`` (profiles or their dicts), the rows repeat per
    device under ids ``row/{device_id}/{label}``: device-major in the
    given fleet order, baseline first within each device — the fold
    preserves spec order, so this is also the document order.  ``name``
    defaults to the document kind.
    """
    if isinstance(baseline, str):
        baseline = parse_policy_spec(baseline)
    baseline = dict(baseline or {})
    scenario = dict(scenario or {})
    unknown = set(scenario) - SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario key(s): "
                         f"{', '.join(sorted(unknown))}")
    rows = [(BASELINE_LABEL, dict(baseline))]
    rows.extend(_normalize_candidates(candidates))

    def make_task(device, label, params):
        task_params = {
            "label": label,
            "candidate": params,
            "baseline": baseline,
            "scenario": scenario,
        }
        # Recorded only when set: default payloads (and their cache
        # keys) stay stable if a gap axis is never used.
        if gap:
            task_params["gap"] = gap
        if device is None:
            task_id = f"row/{label}"
        else:
            task_params["device"] = device
            task_id = f"row/{device['device_id']}/{label}"
        return Task(id=task_id, fn=MATRIX_TASK_FN, params=task_params)

    fleet = [None] if devices is None else _device_dicts(devices)
    tasks = [make_task(device, label, params)
             for device in fleet for label, params in rows]
    if name is None:
        name = MATRIX_KIND if devices is None else FLEET_MATRIX_KIND
    return CampaignSpec(name=name, tasks=tuple(tasks))


def _robustness(rows):
    """Per-policy summary across devices (pure fold, document-stable)."""
    groups = {}
    for row in rows:
        if row["policy"] != BASELINE_LABEL:
            groups.setdefault(row["policy"], []).append(row)
    summary = {}
    for policy, group in groups.items():
        deltas = [row["energy_delta_j"] for row in group]
        summary[policy] = {
            "devices": len(group),
            "diverged": sum(1 for row in group if not row["identical"]),
            "goal_missed": sum(1 for row in group if not row["goal_met"]),
            "energy_delta_min_j": min(deltas),
            "energy_delta_max_j": max(deltas),
            "energy_delta_spread_j": max(deltas) - min(deltas),
            "shape_distance_max": max(row["shape_distance"]
                                      for row in group),
        }
    return summary


class PolicyMatrix:
    """The folded scorecard: one row per policy, baseline first.

    ``devices`` is ``None`` for a single-device matrix; a list makes it
    a fleet matrix, whose rows run device-major and whose document
    (kind ``fleet-matrix``) adds the device block and the cross-device
    robustness summary.

    ``document()`` is the byte-comparable artifact (canonical JSON +
    trailing newline, the :func:`repro.service.jobs.results_document`
    convention); ``render()`` is the human table; ``violations()`` is
    the CI gate.
    """

    def __init__(self, campaign, baseline, scenario, rows, devices=None):
        self.campaign = campaign
        self.baseline = dict(baseline)
        self.scenario = dict(scenario)
        self.rows = list(rows)
        self.devices = (None if devices is None
                        else [dict(device) for device in devices])

    def to_dict(self):
        record = {
            "kind": MATRIX_KIND,
            "version": MATRIX_VERSION,
            "campaign": self.campaign,
            "baseline": dict(self.baseline),
            "scenario": dict(self.scenario),
            "rows": [dict(row) for row in self.rows],
        }
        if self.devices is not None:
            record.update({
                "kind": FLEET_MATRIX_KIND,
                "version": FLEET_MATRIX_VERSION,
                "devices": [dict(device) for device in self.devices],
                "robustness": _robustness(self.rows),
            })
        return record

    @classmethod
    def from_dict(cls, record):
        kind = record.get("kind")
        if kind not in _VERSIONS:
            raise ValueError(f"not a policy- or fleet-matrix document "
                             f"(kind {kind!r})")
        if record.get("version") != _VERSIONS[kind]:
            raise ValueError(
                f"{kind} version {record.get('version')} "
                f"!= supported {_VERSIONS[kind]}"
            )
        devices = (record.get("devices", []) if kind == FLEET_MATRIX_KIND
                   else None)
        return cls(record["campaign"], record["baseline"],
                   record.get("scenario", {}), record["rows"],
                   devices=devices)

    def document(self):
        """Canonical JSON text + trailing newline — the blessed bytes."""
        return canonical_json(self.to_dict()) + "\n"

    @property
    def candidate_rows(self):
        """Rows excluding the baseline self-row."""
        return [row for row in self.rows
                if row["policy"] != BASELINE_LABEL]

    def violations(self, max_windows=None, max_abs_delta_j=None,
                   max_shape_distance=None):
        """CI-gate check over the candidate rows.

        With no thresholds, any divergence at all is a violation (the
        ``repro diff --fail-on-divergence`` semantics).  Each threshold
        relaxes its own axis: a row only violates when it exceeds a
        given bound.  Rows with a device are named ``device/policy``.
        Returns a list of human-readable strings.
        """
        thresholds = (max_windows is not None
                      or max_abs_delta_j is not None
                      or max_shape_distance is not None)
        problems = []
        for row in self.candidate_rows:
            label = row["policy"]
            if "device" in row:
                label = f"{row['device']}/{label}"
            if not thresholds:
                if not row["identical"]:
                    problems.append(
                        f"{label}: diverges from baseline "
                        f"({row['windows']} window(s), "
                        f"{row['energy_delta_j']:+.1f} J)"
                    )
                continue
            if max_windows is not None and row["windows"] > max_windows:
                problems.append(
                    f"{label}: {row['windows']} divergence window(s) "
                    f"> {max_windows}"
                )
            if (max_abs_delta_j is not None
                    and abs(row["energy_delta_j"]) > max_abs_delta_j):
                problems.append(
                    f"{label}: |energy delta| "
                    f"{abs(row['energy_delta_j']):.1f} J "
                    f"> {max_abs_delta_j:g} J"
                )
            if (max_shape_distance is not None
                    and row["shape_distance"] > max_shape_distance):
                problems.append(
                    f"{label}: shape distance "
                    f"{row['shape_distance']:.4f} "
                    f"> {max_shape_distance:g}"
                )
        return problems

    def render(self):
        """Human table: one line per row, led by its device if any."""
        from repro.analysis import render_table

        fleet = self.devices is not None
        headers = ["policy", "energy (J)", "ΔJ", "Δ%", "windows",
                   "first div", "goal", "shape dist"]
        rows = []
        for row in self.rows:
            first = row["first_divergence_did"]
            rows.append([row["device"]] if fleet else [])
            rows[-1].extend([
                row["policy"],
                f"{row['energy_total_j']:.1f}",
                f"{row['energy_delta_j']:+.1f}",
                f"{row['energy_delta_share'] * 100:+.2f}%",
                str(row["windows"]),
                str(first) if first is not None else "-",
                "met" if row["goal_met"] else "MISSED",
                f"{row['shape_distance']:.4f}",
            ])
        baseline = policy_label(self.baseline)
        if fleet:
            headers.insert(0, "device")
            title = (f"fleet robustness matrix — {self.campaign} "
                     f"({len(self.devices)} device(s), "
                     f"baseline: {baseline})")
        else:
            title = (f"policy diff matrix — {self.campaign} "
                     f"(baseline: {baseline})")
        return render_table(headers, rows, title=title)


def matrix_from_values(spec, values):
    """Fold per-task rows into a :class:`PolicyMatrix`.

    ``values`` is the ``{task_id: row}`` mapping both the one-shot
    runner (``CampaignResult.values``) and the service result payload
    expose, so both drivers fold — and serialize — identically.  Rows
    keep spec order; tasks without a value (permanent failures) are
    skipped, mirroring how partial sweeps render partial tables.  The
    device block comes from the task params, in first-seen order.
    """
    baseline = {}
    scenario = {}
    if spec.tasks:
        baseline = dict(spec.tasks[0].params.get("baseline", {}))
        scenario = dict(spec.tasks[0].params.get("scenario", {}))
    devices = {}
    rows = []
    for task in spec.tasks:
        device = task.params.get("device")
        if device:
            devices.setdefault(device["device_id"], device)
        value = values.get(task.id)
        if isinstance(value, dict) and "policy" in value:
            rows.append(value)
    return PolicyMatrix(spec.name, baseline, scenario, rows,
                        devices=list(devices.values()) if devices else None)


def matrix_from_result(result):
    """Fold a completed :class:`~repro.fleet.runner.CampaignResult`."""
    return matrix_from_values(result.spec, result.values)
