"""repro.fleet — a parallel, fault-tolerant simulation campaign engine.

Treats one independent simulation as a schedulable :class:`Task`, a set
of them as a :class:`CampaignSpec`, and runs campaigns across a process
pool with per-task timeouts, bounded retries, an on-disk result cache,
and live telemetry.  Serial (``jobs=1``) and parallel runs produce
bit-identical aggregates; failures become recorded partial results,
never silent drops.  See docs/architecture.md ("Fleet").

Every name resolves on first use (:mod:`repro._lazy`).  The prebuilt
Section-3 campaigns (``run_sweep``, ``energy_table`` …) matter most:
:mod:`repro.fleet.campaigns` pulls in the whole experiment suite, which
the snapshot and service layers never need.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Task",
    "CampaignSpec",
    "derive_seed",
    "task_key",
    "resolve_callable",
    "FleetRunner",
    "CampaignExecution",
    "TaskResult",
    "CampaignResult",
    "ResultCache",
    "FleetTelemetry",
    "ProgressPrinter",
    "FleetError",
    "TaskTimeout",
    "CampaignError",
    "execute_task",
    "run_task",
    "APPS",
    "energy_table",
    "energy_table_campaign",
    "figures_campaign",
    "sweep_campaign",
    "run_sweep",
    "tables_from_result",
    "DEFAULT_GRID",
    "PolicyMatrix",
    "parse_policy_spec",
    "policy_label",
    "policy_matrix_campaign",
    "policy_matrix_row",
    "matrix_from_values",
    "matrix_from_result",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "cache": ("ResultCache",),
    "campaigns": ("APPS", "energy_table", "energy_table_campaign",
                  "figures_campaign", "run_sweep", "sweep_campaign",
                  "tables_from_result"),
    "diffmatrix": ("DEFAULT_GRID", "PolicyMatrix", "matrix_from_result",
                   "matrix_from_values", "parse_policy_spec", "policy_label",
                   "policy_matrix_campaign", "policy_matrix_row"),
    "errors": ("CampaignError", "FleetError", "TaskTimeout"),
    "execution": ("CampaignExecution",),
    "runner": ("CampaignResult", "FleetRunner", "TaskResult"),
    "spec": ("CampaignSpec", "Task", "derive_seed", "resolve_callable",
             "task_key"),
    "telemetry": ("FleetTelemetry", "ProgressPrinter"),
    "worker": ("execute_task", "run_task"),
})
