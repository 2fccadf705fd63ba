"""Golden tests shared by the policy- and fleet-matrix documents.

Both committed matrix documents (``tests/goldens/policy-matrix.json``
and ``tests/goldens/fleet-matrix.json``) come from one implementation,
:mod:`repro.fleet.diffmatrix`, so one suite pins both: the freshly
computed document must be *byte-identical* to its golden under every
driver — serial, parallel workers, a warm result cache, and a
service-submitted job — and the blessed bytes must round-trip and
carry meaningful gate bounds.

Each golden's test module defines a ``matrix_golden`` fixture naming
its :class:`MatrixGolden` and imports these tests, which then run
against that input; kind-specific assertions stay in the module.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.fleet.diffmatrix import PolicyMatrix, matrix_from_values
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.service import CampaignService
from tests.golden_scenarios import (
    FLEET_MATRIX_GOLDEN,
    MATRIX_GOLDEN,
    fleet_matrix_campaign_spec,
    fleet_matrix_golden_path,
    matrix_campaign_spec,
    matrix_golden_path,
    run_fleet_matrix_scenario,
    run_matrix_scenario,
)


def row_name(row):
    """``policy``, or ``device/policy`` for a row with a device."""
    if "device" in row:
        return f"{row['device']}/{row['policy']}"
    return row["policy"]


@dataclass(frozen=True)
class MatrixGolden:
    """One pinned matrix campaign and its committed document."""

    name: str
    path: str
    rebless_flag: str
    spec: object
    run: object

    def document(self):
        assert os.path.exists(self.path), (
            f"missing golden {self.path}; generate it with "
            f"scripts/regen_goldens.py {self.rebless_flag}"
        )
        with open(self.path, encoding="utf-8") as handle:
            return handle.read()

    def assert_matches(self, document, driver):
        golden = self.document()
        if document == golden:
            return
        got = json.loads(document)["rows"]
        want = json.loads(golden)["rows"]
        drifted = [row_name(r) for r, g in zip(got, want) if r != g]
        raise AssertionError(
            f"{self.name} document under {driver} is not byte-identical "
            f"to the golden (drifted rows: "
            f"{drifted or 'serialization only'})\n\n"
            f"If this behaviour change is intentional, re-bless with: "
            f"PYTHONPATH=src python scripts/regen_goldens.py "
            f"{self.rebless_flag}"
        )


POLICY_GOLDEN = MatrixGolden(
    name=MATRIX_GOLDEN, path=matrix_golden_path(), rebless_flag="--matrix",
    spec=matrix_campaign_spec, run=run_matrix_scenario,
)
FLEET_GOLDEN = MatrixGolden(
    name=FLEET_MATRIX_GOLDEN, path=fleet_matrix_golden_path(),
    rebless_flag="--fleet-matrix", spec=fleet_matrix_campaign_spec,
    run=run_fleet_matrix_scenario,
)


def test_serial_matches_golden(matrix_golden):
    matrix_golden.assert_matches(matrix_golden.run().document(), "serial")


def test_parallel_matches_golden(matrix_golden):
    matrix_golden.assert_matches(matrix_golden.run(jobs=2).document(),
                                 "jobs=2")


def test_cache_warm_matches_golden(matrix_golden, tmp_path):
    cache = tmp_path / "cache"
    cold = matrix_golden.run(cache=cache)
    warm = matrix_golden.run(cache=cache)
    matrix_golden.assert_matches(cold.document(), "cache-cold")
    matrix_golden.assert_matches(warm.document(), "cache-warm")


def test_service_submission_matches_golden(matrix_golden, tmp_path):
    """A matrix campaign through the persistent service folds to the
    same bytes as the one-shot runner."""
    spec = matrix_golden.spec()
    svc = CampaignService(workers=2, cache=tmp_path / "cache",
                          poll_s=0.02, backoff_s=0.01,
                          tracer=NULL_TRACER, metrics=MetricsRegistry())
    with svc:
        job_id = svc.submit(spec)
        status = svc.wait(job_id, timeout=240)
        assert status["state"] == "done"
        payload = svc.result(job_id)
    matrix = matrix_from_values(spec, payload["values"])
    matrix_golden.assert_matches(matrix.document(), "service")


def test_document_round_trips(matrix_golden):
    """from_dict(to_dict) reproduces the exact document bytes."""
    golden = matrix_golden.document()
    matrix = PolicyMatrix.from_dict(json.loads(golden))
    assert matrix.document() == golden


@pytest.mark.parametrize("flag", ["max_windows", "max_abs_delta_j"])
def test_golden_grid_would_trip_ci_gate(matrix_golden, flag):
    """The CI gate thresholds are meaningful against the golden: a zero
    bound trips on exactly the candidate rows that moved on its axis
    (there are some), a huge bound on none."""
    axis = {"max_windows": "windows",
            "max_abs_delta_j": "energy_delta_j"}[flag]
    matrix = PolicyMatrix.from_dict(json.loads(matrix_golden.document()))
    moved = [row for row in matrix.candidate_rows if row[axis] != 0]
    assert moved, f"no candidate row moved on {axis}"
    assert len(matrix.violations(**{flag: 0})) == len(moved)
    assert matrix.violations(**{flag: 10**9}) == []


def test_from_dict_rejects_unknown_kind_and_version(matrix_golden):
    """The merged loader accepts both kinds, and nothing else."""
    record = json.loads(matrix_golden.document())
    for bad in ({"kind": "sweep-results"}, {"version": 99}):
        with pytest.raises(ValueError):
            PolicyMatrix.from_dict(dict(record, **bad))
