"""Tests for the headline-report module and CLI command."""

import pytest

from repro.cli import main
from repro.experiments import render_report
from repro.experiments.summary import goal_summary


class TestFidelitySummary:
    @pytest.fixture
    def summary(self, serial_fidelity_summary):
        return serial_fidelity_summary

    def test_covers_all_four_applications(self, summary):
        assert set(summary) == {"video", "speech", "map", "web"}

    def test_bands_are_ordered(self, summary):
        for app, bands in summary.items():
            for key in ("hw-only", "lowest"):
                lo, hi = bands[key]
                assert lo <= hi, (app, key)

    def test_lowest_beats_hw_only(self, summary):
        for app, bands in summary.items():
            assert bands["lowest"][1] > bands["hw-only"][0], app

    def test_savings_are_positive_fractions(self, summary):
        for bands in summary.values():
            for lo, hi in bands.values():
                assert -0.05 <= lo <= hi <= 0.95


class TestGoalSummary:
    def test_goal_summary_structure_and_success(self):
        summary = goal_summary(initial_energy=4_000.0)
        assert summary["bound_low_fidelity"] > summary["bound_high_fidelity"]
        assert len(summary["goals"]) == 3
        for outcome in summary["goals"]:
            assert outcome["met"]
            assert outcome["residual"] >= 0.0


class TestFullReport:
    def test_subsets_selectable(self, fidelity_only_report):
        report = fidelity_only_report
        assert "fidelity" in report
        assert "concurrency" not in report
        assert "goal" not in report

    def test_render_contains_key_rows(self, fidelity_only_report):
        text = render_report(fidelity_only_report)
        assert "video" in text and "speech" in text
        assert "paper" in text

    def test_cli_report_command(self, capsys, served_section3_tables):
        code = main(["report", "--no-goal", "--no-concurrency"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Reproduction headline report" in out
        assert "web" in out
