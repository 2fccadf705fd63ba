"""Golden regression wall around the fleet robustness matrix.

The committed ``tests/goldens/fleet-matrix.json`` is the canonical
per-device × per-policy document for the pinned generated fleet
(4 devices, seed 7 — the ``repro sweep --fleet-size 4 --fleet-seed 7
--diff-against default`` campaign).  The shared golden suite
(``tests/matrix_golden_suite.py``) asserts the freshly computed
document is *byte-identical* to it under every driver; the tests here
pin what the device axis adds: the generated device block, per-device
baseline rows, and the robustness fold.  Intentional changes are
re-blessed with ``python scripts/regen_goldens.py --fleet-matrix``.
"""

import json

import pytest

from tests.golden_scenarios import FLEET_CANDIDATES, FLEET_SEED, FLEET_SIZE
from tests.matrix_golden_suite import (  # noqa: F401 — collected here
    FLEET_GOLDEN,
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
    return FLEET_GOLDEN


def test_golden_devices_are_the_generated_fleet():
    """The golden's device block is exactly generate_fleet(4, 7)."""
    from repro.devices import generate_fleet

    golden = json.loads(FLEET_GOLDEN.document())
    expected = [d.to_dict() for d in generate_fleet(FLEET_SIZE, FLEET_SEED)]
    assert golden["devices"] == expected


def test_golden_rows_are_meaningful():
    """Per device: the baseline self-row is exact, and the
    no-hysteresis candidate actually diverges on at least one
    miscalibrated device — the fleet axis carries signal."""
    golden = json.loads(FLEET_GOLDEN.document())
    by_device = {}
    for row in golden["rows"]:
        by_device.setdefault(row["device"], {})[row["policy"]] = row
    assert len(by_device) == FLEET_SIZE
    for device, rows in by_device.items():
        baseline = rows["baseline"]
        assert baseline["identical"] is True, device
        assert baseline["windows"] == 0, device
        assert baseline["energy_delta_j"] == 0.0, device
        assert set(rows) == {"baseline", *FLEET_CANDIDATES}
    no_hyst = [by_device[d]["hysteresis=off,lookahead=off"]
               for d in by_device]
    diverged = [row for row in no_hyst if not row["identical"]]
    assert diverged, "no-hysteresis diverges on no device at all"
    assert any(row["windows"] > 0 and row["energy_delta_j"] != 0.0
               for row in diverged)


def test_golden_robustness_block_is_consistent():
    """The robustness summary is a pure fold of the rows."""
    golden = json.loads(FLEET_GOLDEN.document())
    robustness = golden["robustness"]
    assert set(robustness) == set(FLEET_CANDIDATES)
    for policy, summary in robustness.items():
        rows = [r for r in golden["rows"] if r["policy"] == policy]
        assert summary["devices"] == FLEET_SIZE
        assert summary["diverged"] == sum(
            1 for r in rows if not r["identical"])
        deltas = [r["energy_delta_j"] for r in rows]
        assert summary["energy_delta_min_j"] == min(deltas)
        assert summary["energy_delta_max_j"] == max(deltas)
        assert summary["energy_delta_spread_j"] == max(deltas) - min(deltas)


def test_perturbed_profile_generation_fails_golden(monkeypatch):
    """The golden must be sensitive to device-generation drift: nudge
    the multiplier range and the document must change."""
    from repro.devices import profile as profile_mod
    from repro.fleet import diffmatrix

    monkeypatch.setattr(profile_mod, "MULTIPLIER_RANGE", (0.85, 1.20))
    monkeypatch.setattr(diffmatrix, "_RECORD_MEMO", {})
    document = FLEET_GOLDEN.run().document()
    assert document != FLEET_GOLDEN.document(), (
        "perturbing fleet generation did not change the matrix document"
        " — the golden would not catch real drift"
    )
