"""Property-based tests for the policy diff matrix fold.

The matrix is a pure fold over per-row diff results, so its algebra is
testable without goldens:

* the baseline diffed against itself is the zero row — no windows, no
  energy delta, identical spines, matching signatures;
* permuting the candidate order permutes the rows but changes no row's
  *contents* (each row depends only on its own candidate + baseline);
* perturbing exactly one candidate perturbs exactly one row;
* hypothesis-driven small policy grids: every produced matrix is
  internally consistent (labels unique, baseline row first and zero,
  deltas arithmetically coherent with the totals).

All runs use a short pinned scenario (60 s / 520 J) so the per-process
record memo in ``repro.fleet.diffmatrix`` keeps the suite fast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.diffmatrix import (
    matrix_from_result,
    parse_policy_spec,
    policy_label,
    policy_matrix_campaign,
    policy_matrix_row,
)
from repro.fleet.runner import FleetRunner

#: Short pulse sizing: ~0.00 s wall per simulation, still adapts.
SCENARIO = {"goal_seconds": 60.0, "initial_energy": 520.0}


def run_matrix(candidates, baseline=None):
    spec = policy_matrix_campaign(candidates, baseline=baseline,
                                  scenario=dict(SCENARIO))
    return matrix_from_result(FleetRunner(jobs=1).run(spec))


def zero_row(row):
    return (row["identical"] and row["windows"] == 0
            and row["divergent_decisions"] == 0
            and row["energy_delta_j"] == 0.0
            and row["first_divergence_did"] is None
            and row["shape_distance"] == 0.0
            and row["behaviour_match"])


class TestBaselineSelfRow:
    def test_baseline_row_is_exactly_zero(self):
        matrix = run_matrix(["hysteresis=off"])
        assert zero_row(matrix.rows[0])
        assert matrix.rows[0]["policy"] == "baseline"

    def test_candidate_equal_to_baseline_is_zero(self):
        """A candidate whose params *equal* the baseline's folds to the
        zero row too — the differ keys on behaviour, not labels."""
        matrix = run_matrix(
            [("same-as-baseline", {"variable_fraction": 0.0,
                                   "constant_fraction": 0.0})],
            baseline="hysteresis=off")
        (row,) = matrix.candidate_rows
        assert zero_row(row)

    def test_self_row_direct(self):
        row = policy_matrix_row("self", candidate={}, baseline={},
                                scenario=dict(SCENARIO))
        assert zero_row(row)
        assert row["energy_total_j"] == row["baseline_energy_j"]


class TestPermutationInvariance:
    CANDIDATES = ("hysteresis=off", "lookahead=on,horizon=6",
                  "decision_period=1.0")

    def test_row_contents_independent_of_order(self):
        forward = run_matrix(list(self.CANDIDATES))
        backward = run_matrix(list(reversed(self.CANDIDATES)))
        fwd = {r["policy"]: r for r in forward.rows}
        bwd = {r["policy"]: r for r in backward.rows}
        assert fwd == bwd
        # ... while the row *order* follows the candidate order.
        assert [r["policy"] for r in forward.candidate_rows] == \
            list(self.CANDIDATES)
        assert [r["policy"] for r in backward.candidate_rows] == \
            list(reversed(self.CANDIDATES))


class TestSinglePerturbation:
    def test_one_perturbed_candidate_one_nonzero_row(self):
        """Three baseline-identical candidates plus one perturbed one:
        exactly the perturbed row is nonzero."""
        matrix = run_matrix([
            ("twin-a", {}),
            ("twin-b", {}),
            ("perturbed", parse_policy_spec("hysteresis=off")),
            ("twin-c", {}),
        ])
        nonzero = [r["policy"] for r in matrix.candidate_rows
                   if not zero_row(r)]
        assert nonzero == ["perturbed"]


@st.composite
def policy_grids(draw):
    """Small grids over the hysteresis/lookahead policy space."""
    pool = [
        {},
        parse_policy_spec("hysteresis=off"),
        parse_policy_spec("lookahead=on,horizon=6"),
        parse_policy_spec("lookahead=on,horizon=12"),
        parse_policy_spec("decision_period=1.0"),
    ]
    indices = draw(st.lists(st.integers(0, len(pool) - 1),
                            min_size=1, max_size=3, unique=True))
    return [(f"cand-{i}", pool[i]) for i in indices]


@settings(max_examples=8, deadline=None)
@given(grid=policy_grids())
def test_matrix_internally_consistent(grid):
    matrix = run_matrix(grid)
    labels = [r["policy"] for r in matrix.rows]
    assert labels[0] == "baseline"
    assert len(labels) == len(set(labels)) == len(grid) + 1
    assert zero_row(matrix.rows[0])
    for row in matrix.candidate_rows:
        # Delta arithmetic is coherent with the recorded totals.
        assert row["energy_delta_j"] == pytest.approx(
            row["energy_total_j"] - row["baseline_energy_j"])
        # The default-policy candidate IS the baseline behaviourally.
        if not row["params"]:
            assert zero_row(row)
        # Zero windows and behaviour match imply the zero row.
        if row["windows"] == 0 and row["behaviour_match"]:
            assert zero_row(row)


def test_label_parse_round_trip():
    """policy_label(parse_policy_spec(label)) is stable for canonical
    labels — the matrix key space is well-defined."""
    for text in ("variable_fraction=0,constant_fraction=0",
                 "horizon=6,lookahead=on",
                 "decision_period=1"):
        params = parse_policy_spec(text)
        label = policy_label(params)
        assert parse_policy_spec(label) == params
        assert policy_label(parse_policy_spec(label)) == label


@pytest.mark.parametrize("text,message", [
    ("beam_width=1.5", "beam_width expects an integer, got '1.5'"),
    ("beam_depth=two", "beam_depth expects an integer, got 'two'"),
    ("horizon=abc", "horizon expects a number, got 'abc'"),
    ("lookahead=maybe", "lookahead expects on/off, got 'maybe'"),
    ("hysteresis=sometimes", "hysteresis expects on/off, got 'sometimes'"),
])
def test_bad_value_names_its_key(text, message):
    """A bad value's error names the key and the expected type."""
    with pytest.raises(ValueError) as excinfo:
        parse_policy_spec(text)
    assert str(excinfo.value) == message
