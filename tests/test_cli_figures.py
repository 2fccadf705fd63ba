"""CLI figure-table commands (fig06/fig08 routes not covered elsewhere)."""

import pytest

from repro.cli import main


class TestFigureCommands:
    def test_fig06_prints_all_bars(self, capsys, served_section3_tables):
        code = main(["fig06"])
        out = capsys.readouterr().out
        assert code == 0
        for config in ("baseline", "hw-only", "premiere-b", "premiere-c",
                       "reduced-window", "combined"):
            assert config in out
        for clip in ("video-1", "video-2", "video-3", "video-4"):
            assert clip in out
        baseline = served_section3_tables["video"]["baseline"]["video-1"]
        assert f"{baseline:.1f}" in out

    def test_fig08_prints_all_strategies(self, capsys):
        code = main(["fig08"])
        out = capsys.readouterr().out
        assert code == 0
        for config in ("baseline", "hw-only", "reduced", "remote",
                       "hybrid", "remote-reduced", "hybrid-reduced"):
            assert config in out

    def test_fig10_think_time_flag(self, capsys, tmp_path):
        path = tmp_path / "fig10.csv"
        code = main(["fig10", "--think", "0", "--csv", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.startswith("config,")
        assert "crop-secondary" in text

    def test_goal_no_chart_flag(self, capsys):
        code = main(["goal", "--energy", "3000", "--no-chart"])
        out = capsys.readouterr().out
        assert code == 0
        assert "supply vs predicted demand" not in out

    def test_goal_chart_rendered_by_default(self, capsys):
        code = main(["goal", "--energy", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "supply vs predicted demand" in out
        assert "demand" in out
