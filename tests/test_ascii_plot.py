"""Tests for terminal chart rendering."""

import pytest

from repro.analysis import ascii_chart, ascii_staircase


class TestAsciiChart:
    def test_single_series_renders(self):
        chart = ascii_chart(
            [([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])], width=20, height=5
        )
        lines = chart.splitlines()
        assert len(lines) == 5 + 2  # rows + axis + footer
        assert "*" in chart
        assert "t = 0 .. 3 s" in chart

    def test_two_series_use_distinct_markers(self):
        chart = ascii_chart(
            [
                ([0, 1, 2], [3.0, 2.0, 1.0]),
                ([0, 1, 2], [1.0, 2.0, 3.0]),
            ],
            labels=["down", "up"],
        )
        assert "*" in chart and "+" in chart
        assert "down" in chart and "up" in chart

    def test_extremes_on_axis_rows(self):
        chart = ascii_chart([([0, 10], [5.0, 50.0])], width=20, height=6)
        lines = chart.splitlines()
        assert lines[0].strip().startswith("50")
        assert lines[5].strip().startswith("5")

    def test_flat_series_does_not_crash(self):
        chart = ascii_chart([([0, 1], [7.0, 7.0])])
        assert "*" in chart

    def test_title(self):
        chart = ascii_chart([([0, 1], [0.0, 1.0])], title="demo")
        assert chart.splitlines()[0] == "demo"

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([])
        with pytest.raises(ValueError):
            ascii_chart([([], [])])
        with pytest.raises(ValueError):
            ascii_chart([([0], [1.0])], width=4)


class TestAsciiStaircase:
    LEVELS = ("low", "mid", "high")

    def test_rows_ordered_highest_first(self):
        text = ascii_staircase(
            [0.0, 5.0, 10.0], ["high", "mid", "low"], self.LEVELS
        )
        lines = text.splitlines()
        assert lines[0].strip().startswith("high")
        assert lines[2].strip().startswith("low")

    def test_fill_forward_marks_span(self):
        text = ascii_staircase(
            [0.0, 10.0], ["high", "low"], self.LEVELS, width=20
        )
        high_row = next(l for l in text.splitlines() if l.strip().startswith("high"))
        # High held for the first half of the span.
        assert high_row.count("#") >= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_staircase([0.0], ["high", "low"], self.LEVELS)
        with pytest.raises(ValueError):
            ascii_staircase([], [], self.LEVELS)
        with pytest.raises(ValueError):
            ascii_staircase([0.0], ["warp"], self.LEVELS)

    def test_goal_experiment_staircase_end_to_end(self):
        from repro.experiments import run_goal_experiment
        from repro.apps.video import VIDEO_LEVELS

        result = run_goal_experiment(200.0, initial_energy=3000.0)
        records = [
            row for row in result.series
            if row[1] == "fidelity" and row[2] == "video"
        ]
        times = [row[0] for row in records]
        levels = [row[3] for row in records]
        text = ascii_staircase(times, levels, VIDEO_LEVELS,
                               title="video fidelity")
        assert "baseline" in text and "#" in text
