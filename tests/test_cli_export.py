"""Tests for the command-line interface and CSV export."""

import csv
import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.export import energy_table_csv, timeline_csv, write_csv
from repro.cli import build_parser, main

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).parent.parent


class TestEnergyTableCsv:
    TABLE = {
        "baseline": {"a": 10.0, "b": 20.0},
        "hw-only": {"a": 9.0, "b": 18.0},
    }

    def test_round_trips_through_csv_reader(self):
        text = energy_table_csv(self.TABLE)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["config", "a", "b"]
        assert rows[1] == ["baseline", "10.0", "20.0"]
        assert rows[2] == ["hw-only", "9.0", "18.0"]

    def test_explicit_object_order(self):
        text = energy_table_csv(self.TABLE, object_names=["b", "a"])
        header = text.splitlines()[0]
        assert header == "config,b,a"

    def test_missing_object_becomes_empty_cell(self):
        table = {"x": {"a": 1.0}}
        text = energy_table_csv(table, object_names=["a", "ghost"])
        assert text.splitlines()[1] == "x,1.0,"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            energy_table_csv({})


class TestTimelineCsv:
    def test_exports_records(self):
        text = timeline_csv([
            (1.0, "energy", "supply", 100.0, None),
            (1.5, "fidelity", "video", "baseline", 1.0),
        ])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time", "category", "label", "value", "extra"]
        assert rows[1] == ["1.0", "energy", "supply", "100.0", ""]
        assert rows[2] == ["1.5", "fidelity", "video", "baseline", "1.0"]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), "a,b\n1,2\n")
        assert path.read_text() == "a,b\n1,2\n"


class TestCli:
    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp-drive"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_goal_command_exit_code_reflects_outcome(self, capsys):
        code = main(["goal", "--energy", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MET" in out

    def test_goal_command_writes_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        main(["goal", "--energy", "3000", "--csv", str(path)])
        text = path.read_text()
        assert text.startswith("time,category,label,value")
        assert "supply" in text
        assert "fidelity" in text or "video" in text

    def test_goal_csv_matches_the_committed_trace(self, tmp_path, capsys):
        path = tmp_path / "goal.csv"
        code = main(["goal", "--goal", "197", "--energy", "3000",
                     "--no-chart", "--csv", str(path)])
        assert code == 0
        assert path.read_bytes() == (DATA / "goal-197-3000.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["goal", "--goal", "0"],
        ["goal", "--goal", "-5"],
        ["goal", "--energy", "0"],
        ["goal", "--energy", "nan"],
        ["goal", "--halflife", "0"],
        ["goal", "--halflife", "inf"],
        ["trace", "bursty", "--goal", "0"],
        ["trace", "goal", "--energy", "-1"],
    ])
    def test_nonpositive_numbers_exit_2_with_one_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "Traceback" not in err
        assert len([line for line in err.splitlines()
                    if "error:" in line]) == 1
        assert "must be > 0 and finite" in err

    @pytest.mark.parametrize("argv,message", [
        (["trace", "goal", "--lookahead", "--horizon", "0"], "> 0"),
        (["trace", "goal", "--lookahead", "--horizon", "-2"], "> 0"),
        (["trace", "goal", "--lookahead", "--horizon", "nan"], "> 0"),
        (["snapshot", "roundtrip", "--lookahead", "--horizon", "0"], "> 0"),
        (["snapshot", "roundtrip", "--at", "-5"], ">= 0"),
        (["snapshot", "sweep", "--at", "nan"], ">= 0"),
        (["snapshot", "sweep", "--extensions", "-5"], ">= 0"),
        (["snapshot", "sweep", "--extensions", "nan"], ">= 0"),
    ])
    def test_bad_lookahead_and_snapshot_numbers_exit_2(self, argv, message,
                                                       capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"must be {message} and finite" in errors[0]

    @pytest.mark.parametrize("argv", [
        ["--drift", "garbage"],
        ["--drift", "10:-1"],
        ["--learned-model", "--lookahead"],
        ["--drift", "10:1.2", "--lookahead"],
        ["--beam", "2", "--learned-model"],
        ["--pulse", "--device-file", "{tmp}/missing.json"],
        ["--device-id", "dev00"],
        ["--pulse", "--depth", "5"],
        ["--lookahead", "--depth", "3"],
    ])
    def test_bad_trace_goal_input_exits_2_with_one_error(self, argv,
                                                         tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(["trace", "goal", *argv,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("experiment", ["bursty", "video"])
    @pytest.mark.parametrize("argv", [
        ["--pulse"],
        ["--lookahead"],
        ["--beam", "2"],
        ["--learned-model"],
        ["--drift", "10:1.2"],
        ["--device-file", "{tmp}/missing.json"],
        ["--device-id", "dev00"],
        ["--no-hysteresis"],
        ["--goal", "30", "--device-file", "{tmp}/missing.json",
         "--no-hysteresis", "--lookahead"],
        ["--horizon", "6"],
        ["--depth", "3"],
        ["--energy", "5"],
        ["--goal", "20", "--energy", "5"],
    ])
    def test_goal_only_flags_exit_2_on_other_experiments(
            self, experiment, argv, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(["trace", experiment, *argv,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "out.jsonl").exists()

    def test_trace_video_takes_no_goal(self, tmp_path, capsys):
        code = main(["trace", "video", "--goal", "20",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace video does not take --goal\n")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_141_without_traceback(self, tmp_path,
                                                       buffered):
        """The reader is gone before the first write: block-buffered,
        the command fails at its final flush; unbuffered, at its first
        print."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "goal", "--goal", "60",
             "--energy", "600", "--pulse", "--out", str(tmp_path / "P")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    @staticmethod
    def _trace_goal(tmp_path, name, *argv):
        prefix = tmp_path / name
        assert main(["trace", "goal", "--goal", "60", "--energy", "600",
                     *argv, "--out", str(prefix)]) == 0
        return (tmp_path / (name + ".trace.json")).read_bytes()

    def test_no_hysteresis_reaches_the_pulse_rig(self, tmp_path, capsys):
        on = self._trace_goal(tmp_path, "on", "--pulse")
        off = self._trace_goal(tmp_path, "off", "--pulse", "--no-hysteresis")
        assert "pulse goal:" in capsys.readouterr().out
        assert off != on

    def test_device_file_implies_pulse(self, tmp_path, capsys):
        from repro.devices.profile import generate_fleet, write_fleet

        fleet = tmp_path / "fleet.json"
        write_fleet(generate_fleet(2, 7), fleet)
        implied = self._trace_goal(tmp_path, "implied", "--device-file",
                                   str(fleet), "--device-id", "dev01")
        out = capsys.readouterr().out
        assert out.startswith("pulse goal:")
        explicit = self._trace_goal(tmp_path, "explicit", "--pulse",
                                    "--device-file", str(fleet),
                                    "--device-id", "dev01")
        nominal = self._trace_goal(tmp_path, "nominal", "--pulse")
        assert implied == explicit != nominal

    def test_goal_csv_to_missing_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code = main(["goal", "--goal", "20", "--energy", "3000",
                     "--no-chart", "--csv", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err

    def test_fig13_command_prints_and_exports(self, tmp_path, capsys):
        path = tmp_path / "fig13.csv"
        code = main(["fig13", "--think", "5", "--csv", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline" in out and "jpeg-5" in out
        assert path.read_text().startswith("config,")

    def test_profile_command_prints_profile(self, capsys):
        code = main(["profile", "--seconds", "5", "--rate", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "xanim" in out
        assert "Total" in out
