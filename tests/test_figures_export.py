"""Tests for the figure-data export layer."""

import csv
import hashlib
import io
import os

import pytest

from repro.cli import main
from repro.experiments import FIGURES, export_figures
from repro.experiments.figures import figure_11, figure_15, figure_19


class TestFigureBundles:
    def test_registry_covers_the_data_figures(self):
        assert {"fig06", "fig08", "fig10", "fig11", "fig13", "fig14",
                "fig15", "fig18", "fig19"} <= set(FIGURES)

    def test_figure11_csv_is_well_formed(self):
        bundles = figure_11()
        text = bundles["fig11_map_thinktime"]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "config", "think_s", "energy_j",
            "fit_intercept", "fit_slope", "fit_r2",
        ]
        # 3 configs x 4 think times.
        assert len(rows) == 1 + 12
        for row in rows[1:]:
            assert float(row[5]) > 0.99  # R^2 of the linear model

    def test_figure15_contains_three_configs(self):
        text = figure_15()["fig15_concurrency"]
        rows = list(csv.reader(io.StringIO(text)))
        configs = {row[0] for row in rows[1:]}
        assert configs == {"baseline", "hw-only", "lowest-fidelity"}
        for row in rows[1:]:
            assert float(row[2]) > float(row[1])  # concurrent > alone

    def test_figure19_traces_have_both_series(self):
        bundles = figure_19(initial_energy=3_000.0)
        assert set(bundles) == {"fig19_trace_short", "fig19_trace_long"}
        for text in bundles.values():
            assert "supply" in text and "demand" in text
            assert "video" in text  # fidelity records
        # The exact bytes are pinned: the series are the controller's
        # and viceroy's own readings, so any drift in what they record
        # (or when) shows here.
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in bundles.items()
        }
        assert digests == {
            "fig19_trace_short": "c59a969e1c0fe5065a3508f50bbdbcfd"
                                 "36af905856c66705d0eec8bb2d3da8a4",
            "fig19_trace_long": "6693fb34772d8512c711096e0b7b4015"
                                "a846f31bcb20db30a459956cdc944c16",
        }

    def test_cli_export_matches_pinned_digests(self, tmp_path):
        """``repro export-figures`` writes these three figures' exact
        bytes (sha256, as fig19's above)."""
        code = main(["export-figures", str(tmp_path),
                     "--figures", "fig08", "fig14", "fig18"])
        assert code == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert digests == {
            "fig08_speech.csv": "28befd05014b1f565d15d9fc6d6b4b07"
                                "e280872c4e96c41fe80d14d30a5ee41d",
            "fig14_web_thinktime.csv": "0a631f78f6b55fa2af61d7747b26046a"
                                       "8855629e8865461c50562ad3cb2f90cb",
            "fig18_zoned.csv": "b6c2bdb08fbe3f4959d298df662076bc"
                               "453d923d4e20d2f3446ad0fa9a7d2275",
        }

    def test_export_writes_files(self, tmp_path, served_section3_tables):
        written = export_figures(str(tmp_path), figures=["fig06"])
        assert len(written) == 1
        assert os.path.exists(written[0])
        content = open(written[0]).read()
        assert content.startswith("config,")

    def test_export_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(KeyError):
            export_figures(str(tmp_path), figures=["fig99"])

    def test_cli_export_figures(self, tmp_path, capsys):
        code = main([
            "export-figures", str(tmp_path), "--figures", "fig13",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig13_web.csv" in out
        assert (tmp_path / "fig13_web.csv").exists()
