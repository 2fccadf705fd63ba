"""Unit tests for the analysis helpers."""

import json
import math
import os
from statistics import NormalDist

import pytest

from repro.analysis import (
    Range,
    fit_linear,
    normalize_to_baseline,
    range_across_objects,
    render_table,
    summarize,
    t_quantile,
)


class TestSummarize:
    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.stdev == 0.0
        assert stats.ci90 == 0.0
        assert stats.n == 1

    def test_known_values(self):
        stats = summarize([10.0, 12.0, 14.0])
        assert stats.mean == pytest.approx(12.0)
        assert stats.stdev == pytest.approx(2.0)
        assert stats.n == 3

    def test_ci_uses_t_distribution(self):
        stats = summarize([10.0, 12.0, 14.0])
        expected_half = t_quantile(2) * 2.0 / math.sqrt(3)
        assert stats.ci90 == pytest.approx(expected_half)

    def test_low_high_bracket_mean(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.low < stats.mean < stats.high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format(self):
        text = f"{summarize([1.0, 2.0]):.2f}"
        assert "±" in text

    def test_t_quantile_decreases_with_dof(self):
        assert t_quantile(1) > t_quantile(5) > t_quantile(50)

    def test_t_quantile_invalid_dof(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_quantile(0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_t_quantile_invalid_confidence(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            t_quantile(4, confidence)

    def test_summarize_invalid_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            summarize([1.0, 2.0, 3.0], confidence=1.5)


T_QUANTILES = os.path.join(os.path.dirname(__file__), "data",
                           "t_quantiles.json")


class TestTQuantile:
    """The stdlib quantile against pinned reference values.

    ``tests/data/t_quantiles.json`` maps each confidence to the two-sided
    quantiles for 1..200 degrees of freedom, written with scipy 1.17.1::

        python -c "import json; from scipy.stats import t; \
    print(json.dumps({c: [float(t.ppf(0.5 + float(c) / 2, d)) \
    for d in range(1, 201)] for c in ('0.80', '0.90', '0.95', '0.99')}, \
    indent=0))" > tests/data/t_quantiles.json
    """

    def test_matches_reference_table(self):
        with open(T_QUANTILES, encoding="utf-8") as handle:
            table = json.load(handle)
        assert sorted(table) == ["0.80", "0.90", "0.95", "0.99"]
        for confidence, quantiles in table.items():
            assert len(quantiles) == 200
            for dof, expected in enumerate(quantiles, start=1):
                got = t_quantile(dof, float(confidence))
                assert abs(got - expected) <= 1e-12 * expected, (
                    dof, confidence, got, expected)

    def test_dof_eleven_is_not_the_old_table_value(self):
        # A coarse lookup table once answered 1.753 (its dof-15 entry)
        # for dof 11-14, a 90% interval 2.4% too narrow.
        assert t_quantile(11) == pytest.approx(1.7959, abs=5e-5)
        assert t_quantile(11) - 1.753 > 0.04

    def test_closed_forms(self):
        assert t_quantile(1, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert t_quantile(2, 0.5) == pytest.approx(math.sqrt(2) / math.sqrt(3),
                                                   rel=1e-15)
        # A confidence that rounds 0.5 + c/2 to exactly 0.5.
        assert t_quantile(5, 1e-17) == 0.0

    @pytest.mark.parametrize("confidence", [0.80, 0.90, 0.95, 0.99])
    def test_large_dof_follows_cornish_fisher(self, confidence):
        v = 10_000
        z = NormalDist().inv_cdf(0.5 + confidence / 2)
        expected = (z + (z**3 + z) / (4 * v)
                    + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * v**2)
                    + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z)
                    / (384 * v**3))
        assert t_quantile(v, confidence) == pytest.approx(expected, rel=1e-12)

    def test_non_integer_dof_lies_between_neighbours(self):
        assert t_quantile(4) > t_quantile(4.5) > t_quantile(5)


class TestLinearFit:
    def test_perfect_line(self):
        fit = fit_linear([0, 5, 10, 20], [10, 35, 60, 110])
        assert fit.slope == pytest.approx(5.0)
        assert fit.intercept == pytest.approx(10.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_linear([0, 10], [1.0, 21.0])
        assert fit.predict(5.0) == pytest.approx(11.0)

    def test_noisy_data_r_squared_below_one(self):
        fit = fit_linear([0, 5, 10, 20], [10, 40, 55, 112])
        assert 0.9 < fit.r_squared < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1.0])

    def test_identical_x_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([2, 2, 2], [1.0, 2.0, 3.0])

    def test_flat_line(self):
        fit = fit_linear([0, 1, 2], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0


class TestNormalize:
    TABLE = {
        "baseline": {"a": 100.0, "b": 200.0},
        "improved": {"a": 80.0, "b": 120.0},
    }

    def test_baseline_normalizes_to_one(self):
        normalized = normalize_to_baseline(self.TABLE)
        assert normalized["baseline"] == {"a": 1.0, "b": 1.0}

    def test_other_rows_are_fractions(self):
        normalized = normalize_to_baseline(self.TABLE)
        assert normalized["improved"]["a"] == pytest.approx(0.8)
        assert normalized["improved"]["b"] == pytest.approx(0.6)

    def test_missing_baseline_config_rejected(self):
        with pytest.raises(KeyError):
            normalize_to_baseline({"x": {"a": 1.0}})

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_baseline(
                {"baseline": {"a": 0.0}, "x": {"a": 1.0}}
            )

    def test_range_across_objects(self):
        normalized = normalize_to_baseline(self.TABLE)
        band = range_across_objects(normalized["improved"])
        assert band.low == pytest.approx(0.6)
        assert band.high == pytest.approx(0.8)

    def test_range_empty_rejected(self):
        with pytest.raises(ValueError):
            range_across_objects({})

    def test_range_formatting_and_predicates(self):
        band = Range(0.31, 0.76)
        assert f"{band:.2f}" == "0.31-0.76"
        assert band.contains(0.5)
        assert not band.contains(0.9)
        assert band.overlaps(Range(0.7, 0.9))
        assert not band.overlaps(Range(0.8, 0.9))


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["Name", "Value"],
            [["alpha", "1"], ["beta-long", "22"]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[1] and "Value" in lines[1]
        assert lines[2].startswith("---")
        assert "alpha" in text and "beta-long" in text

    def test_mismatched_row_width_rejected(self):
        with pytest.raises(ValueError):
            render_table(["A", "B"], [["only-one"]])

    def test_numeric_cells_stringified(self):
        text = render_table(["X"], [[3.14159]])
        assert "3.14159" in text
