"""Golden-trace scenario definitions, shared by the regression tests
(``tests/test_trace_golden.py``) and the re-blessing script
(``scripts/regen_goldens.py``).

Each scenario runs one short experiment under a ``core``-only tracer
and reduces it to its decision spine (see :mod:`repro.obs.diff`).  The
committed goldens under ``tests/goldens/`` are the canonical spines;
any change to controller behaviour — thresholds, hysteresis, priority
order, decision cadence — shows up as a divergence window and fails
the suite until intentionally re-blessed.

Scenario parameters are pinned literals (not derived at runtime) so a
change to ``derive_goals`` cannot silently move every golden at once.
"""

from __future__ import annotations

import os

from repro.obs import Tracer, installed
from repro.obs.diff import decision_spine

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: Pinned at energy 3000 J: the 197 s goal sits mid-bracket between the
#: highest-fidelity (~183 s) and lowest-fidelity (~219 s) runtimes, so
#: the controller both degrades and upgrades during the run.
GOAL_SECONDS = 197.0
GOAL_ENERGY_J = 3000.0
BURSTY_SEED = 3
BURSTY_GOAL_SECONDS = 240.0
#: The snapshot-capable pulse rig, pinned at its mid-bracket sizing
#: (full fidelity survives ~249 s, floor ~338 s; see
#: ``repro.snapshot.scenario``).
PULSE_GOAL_SECONDS = 290.0
PULSE_ENERGY_J = 2400.0
LOOKAHEAD_HORIZON_S = 12.0


def _run_goal(**controller_kwargs):
    from repro.experiments import run_goal_experiment

    run_goal_experiment(GOAL_SECONDS, initial_energy=GOAL_ENERGY_J,
                        **controller_kwargs)


def _run_goal_default():
    _run_goal()


def _run_goal_hysteresis_off():
    _run_goal(variable_fraction=0.0, constant_fraction=0.0)


def _run_bursty():
    from repro.experiments import run_bursty_experiment

    run_bursty_experiment(BURSTY_SEED, BURSTY_GOAL_SECONDS)


def _run_pulse():
    from repro.snapshot.scenario import run_pulse_goal

    run_pulse_goal(goal_seconds=PULSE_GOAL_SECONDS,
                   initial_energy=PULSE_ENERGY_J)


def _run_pulse_lookahead():
    from repro.snapshot.scenario import run_pulse_goal

    run_pulse_goal(goal_seconds=PULSE_GOAL_SECONDS,
                   initial_energy=PULSE_ENERGY_J,
                   lookahead=True, horizon=LOOKAHEAD_HORIZON_S)


SCENARIOS = {
    "goal-default": _run_goal_default,
    "goal-hysteresis-off": _run_goal_hysteresis_off,
    "bursty-supply": _run_bursty,
    "goal-pulse": _run_pulse,
    "goal-lookahead": _run_pulse_lookahead,
}


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.jsonl")


def run_scenario(name):
    """Run one scenario and return its decision spine."""
    tracer = Tracer(categories={"core"})
    with installed(tracer):
        SCENARIOS[name]()
    tracer.flush()
    return decision_spine(tracer.events)


# ----------------------------------------------------------------------
# Energy-signature goldens: per-phase joule vectors over the spine
# ----------------------------------------------------------------------
#: Scenarios with blessed ``*.sig.json`` energy signatures.  The
#: lookahead scenario is included: branch vetting forks stamp a
#: ``branch`` id on their power spans and ``power_spans`` folds the
#: trunk only, so the signature is clean even when forks trace.
SIGNATURE_SCENARIOS = ("goal-default", "goal-hysteresis-off",
                       "bursty-supply", "goal-pulse", "goal-lookahead")


def signature_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.sig.json")


def run_scenario_events(name):
    """Run one scenario and return its raw trace events.

    Signatures need the ``power`` spans for joule folding and the
    ``workload`` phase instants for segmentation on top of the ``core``
    spine the plain goldens use.
    """
    tracer = Tracer(categories={"core", "power", "workload"})
    with installed(tracer):
        SCENARIOS[name]()
    tracer.flush()
    return list(tracer.events)


def run_scenario_signature(name):
    """Run one scenario and compute its energy signature."""
    from repro.obs.signature import compute_signature

    return compute_signature(run_scenario_events(name))


# ----------------------------------------------------------------------
# Policy-matrix golden: the N-way diff matrix document
# ----------------------------------------------------------------------
#: Filename (without extension) of the policy-matrix golden.
MATRIX_GOLDEN = "policy-matrix"
#: Pinned at a short mid-bracket sizing so the sweep stays fast while
#: every candidate still both adapts and diverges from the baseline.
MATRIX_GOAL_SECONDS = 120.0
MATRIX_ENERGY_J = 1000.0
#: Hysteresis on/off crossed with two lookahead horizons: four
#: candidates whose spines all differ from the default baseline.
MATRIX_CANDIDATES = (
    "hysteresis=off",
    "lookahead=on,horizon=6",
    "lookahead=on,horizon=12",
    "hysteresis=off,lookahead=on,horizon=6",
)
MATRIX_SCENARIO = {
    "goal_seconds": MATRIX_GOAL_SECONDS,
    "initial_energy": MATRIX_ENERGY_J,
}


def matrix_golden_path():
    return os.path.join(GOLDEN_DIR, f"{MATRIX_GOLDEN}.json")


def matrix_campaign_spec():
    """The pinned policy-matrix campaign the golden is blessed from."""
    from repro.fleet.diffmatrix import policy_matrix_campaign

    return policy_matrix_campaign(MATRIX_CANDIDATES, baseline={},
                                  scenario=dict(MATRIX_SCENARIO),
                                  name=MATRIX_GOLDEN)


def run_matrix_scenario(jobs=1, cache=None):
    """Run the pinned matrix campaign; return the ``PolicyMatrix``.

    ``jobs``/``cache`` let the golden test assert the document is
    byte-identical across serial, parallel, and cache-warm drivers.
    """
    from repro.fleet.diffmatrix import matrix_from_result
    from repro.fleet.runner import FleetRunner

    runner = FleetRunner(jobs=jobs, cache=cache)
    return matrix_from_result(runner.run(matrix_campaign_spec()))


# ----------------------------------------------------------------------
# Fleet-matrix golden: per-device x per-policy robustness over a
# generated heterogeneous fleet
# ----------------------------------------------------------------------
FLEET_MATRIX_GOLDEN = "fleet-matrix"
#: Fleet sizing pinned by the acceptance criterion: 4 generated
#: devices at seed 7, the default policy grid, on the same short
#: mid-bracket scenario the policy matrix uses.
FLEET_SIZE = 4
FLEET_SEED = 7
FLEET_CANDIDATES = (
    "hysteresis=on,lookahead=off",
    "hysteresis=off,lookahead=off",
    "hysteresis=on,lookahead=on",
    "hysteresis=off,lookahead=on",
)
FLEET_SCENARIO = {
    "goal_seconds": MATRIX_GOAL_SECONDS,
    "initial_energy": MATRIX_ENERGY_J,
}


def fleet_matrix_golden_path():
    return os.path.join(GOLDEN_DIR, f"{FLEET_MATRIX_GOLDEN}.json")


def fleet_matrix_campaign_spec():
    """The pinned fleet-matrix campaign the golden is blessed from."""
    from repro.devices import generate_fleet
    from repro.fleet.diffmatrix import policy_matrix_campaign

    return policy_matrix_campaign(
        FLEET_CANDIDATES, baseline={}, scenario=dict(FLEET_SCENARIO),
        name=FLEET_MATRIX_GOLDEN,
        devices=generate_fleet(FLEET_SIZE, FLEET_SEED),
    )


def run_fleet_matrix_scenario(jobs=1, cache=None):
    """Run the pinned fleet campaign; return its ``PolicyMatrix``."""
    from repro.fleet.diffmatrix import matrix_from_result
    from repro.fleet.runner import FleetRunner

    runner = FleetRunner(jobs=jobs, cache=cache)
    return matrix_from_result(runner.run(fleet_matrix_campaign_spec()))


# ----------------------------------------------------------------------
# Campaign golden: task ordering + per-task retry counts
# ----------------------------------------------------------------------
#: Filename (without extension) of the campaign outcome golden.
CAMPAIGN_GOLDEN = "campaign-demo"


def campaign_ok(x):
    """A task that succeeds on the first attempt."""
    return {"x": x}


def campaign_flaky(marker):
    """Fails once, then succeeds: the retry path, deterministically.

    The first attempt writes ``marker`` and raises; the retry sees the
    file and succeeds — two attempts, every run, no randomness.
    """
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("transient failure (first attempt)")
    return {"recovered": True}


def campaign_doomed():
    """Fails every attempt: exhausts the retry budget."""
    raise RuntimeError("permanent failure")


def run_campaign_scenario():
    """Run the demo campaign; return ``[{id, status, attempts}, ...]``.

    The record is the campaign-order outcome spine: which tasks ran,
    what they resolved to, and how many attempts each took.  Changes to
    the runner's ordering, retry, or failure-recording behaviour move
    this record and fail the golden.
    """
    import tempfile

    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import CampaignSpec, Task

    fn = "tests.golden_scenarios.campaign_{}"
    with tempfile.TemporaryDirectory() as tmp:
        marker = os.path.join(tmp, "flaky.marker")
        spec = CampaignSpec(name=CAMPAIGN_GOLDEN, tasks=[
            Task(id="ok/first", fn=fn.format("ok"), params={"x": 1}),
            Task(id="flaky/recovers", fn=fn.format("flaky"),
                 params={"marker": marker}),
            Task(id="ok/second", fn=fn.format("ok"), params={"x": 2}),
            Task(id="doomed/exhausts", fn=fn.format("doomed"), params={}),
        ])
        result = FleetRunner(jobs=1, retries=1, backoff_s=0.0).run(spec)
    return [
        {"id": r.task_id, "status": r.status, "attempts": r.attempts}
        for r in result.results
    ]
