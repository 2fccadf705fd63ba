"""Golden regression wall around the policy diff matrix.

The committed ``tests/goldens/policy-matrix.json`` is the canonical
N-way diff document for the pinned candidate grid (see
``tests/golden_scenarios.py``).  The shared golden suite
(``tests/matrix_golden_suite.py``) asserts the freshly computed
document is *byte-identical* to it under every driver; the tests here
pin what is specific to the single-device matrix.  Intentional changes
are re-blessed with ``python scripts/regen_goldens.py --matrix``.
"""

import json

import pytest

from tests.golden_scenarios import MATRIX_CANDIDATES
from tests.matrix_golden_suite import (  # noqa: F401 — collected here
    POLICY_GOLDEN,
    test_cache_warm_matches_golden,
    test_document_round_trips,
    test_from_dict_rejects_unknown_kind_and_version,
    test_golden_grid_would_trip_ci_gate,
    test_parallel_matches_golden,
    test_serial_matches_golden,
    test_service_submission_matches_golden,
)


@pytest.fixture
def matrix_golden():
    return POLICY_GOLDEN


def test_golden_rows_are_meaningful():
    """Every candidate in the golden actually diverges — the matrix
    pins real policy differences, not a wall of zeros."""
    golden = json.loads(POLICY_GOLDEN.document())
    rows = {r["policy"]: r for r in golden["rows"]}
    baseline = rows.pop("baseline")
    assert baseline["identical"] is True
    assert baseline["windows"] == 0
    assert baseline["energy_delta_j"] == 0.0
    assert set(rows) == set(MATRIX_CANDIDATES)
    for policy, row in rows.items():
        assert row["windows"] > 0, f"{policy}: no divergence windows"
        assert row["energy_delta_j"] != 0.0, f"{policy}: zero delta"
        assert row["shape_distance"] > 0.0, f"{policy}: zero distance"


def test_perturbed_policy_fails_golden(monkeypatch):
    """The matrix golden must be sensitive to controller drift: nudge
    the degrade threshold and the document must change."""
    from repro.core.hysteresis import AdaptationTrigger

    original = AdaptationTrigger.decide

    def perturbed(self, predicted_demand, residual):
        return original(self, predicted_demand, residual * 0.9)

    monkeypatch.setattr(AdaptationTrigger, "decide", perturbed)
    # The worker memo must not serve records computed before the
    # perturbation; run in-process with a fresh memo.
    from repro.fleet import diffmatrix

    monkeypatch.setattr(diffmatrix, "_RECORD_MEMO", {})
    document = POLICY_GOLDEN.run().document()
    assert document != POLICY_GOLDEN.document(), (
        "perturbing the controller did not change the matrix document"
        " — the golden would not catch real drift"
    )


def test_memo_keys_on_builder_defaults(monkeypatch):
    """The baseline ``{}`` and a candidate spelling out a default
    (``{"lookahead": false}``, the default grid's
    ``hysteresis=on,lookahead=off`` row) are one scenario: the pair
    simulates once and the row is identical."""
    import functools

    from repro.fleet import diffmatrix
    from repro.snapshot import scenario as pulse

    builds = []
    build = pulse.build_pulse_scenario

    @functools.wraps(build)  # keeps the signature the memo key reads
    def counting_build(**params):
        builds.append(params)
        return build(**params)

    monkeypatch.setattr(pulse, "build_pulse_scenario", counting_build)
    monkeypatch.setattr(diffmatrix, "_RECORD_MEMO", {})
    row = diffmatrix.policy_matrix_row(
        "hysteresis=on,lookahead=off", candidate={"lookahead": False},
        baseline={}, scenario={"goal_seconds": 30.0, "initial_energy": 250.0},
    )
    assert len(builds) == 1
    assert row["identical"] and row["energy_delta_j"] == 0.0
