"""The ``repro bench`` harness: runner, comparison logic, CLI wiring."""

import json
import os

import pytest

from repro.perf import BENCH_NAMES, compare, run_benchmarks
from repro.perf.bench import render_bench_table, render_comparison


BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_core.json")


def make_results(quick=True, cal=0.1, engine=1.0):
    return {
        "version": 1,
        "quick": quick,
        "repeats": 1,
        "benches": {
            "calibration": {"seconds": cal, "iterations": 500_000},
            "engine_events": {"seconds": engine, "events": 10_000,
                              "events_per_s": 10_000 / engine, "fired": 9000},
        },
    }


class TestCompare:
    def test_no_regression_when_identical(self):
        base = make_results()
        rows, failures = compare(base, base)
        assert failures == []
        assert all(not row["regressed"] for row in rows)

    def test_flags_regression_beyond_threshold(self):
        base = make_results()
        cur = make_results(engine=1.5)  # 50% slower, same calibration
        rows, failures = compare(cur, base, max_regression=0.25)
        assert any("engine_events" in failure for failure in failures)
        engine_row = next(r for r in rows if r["name"] == "engine_events")
        assert engine_row["regressed"]
        assert engine_row["normalized_ratio"] == pytest.approx(1.5)

    def test_calibration_normalizes_away_slower_machines(self):
        base = make_results()
        # Everything 2x slower — a slower box, not a regression.
        cur = make_results(cal=0.2, engine=2.0)
        rows, failures = compare(cur, base, max_regression=0.25)
        assert failures == []

    def test_quick_full_mismatch_fails(self):
        base = make_results(quick=True)
        cur = make_results(quick=False)
        _, failures = compare(cur, base)
        assert any("quick/full mismatch" in failure for failure in failures)

    def test_missing_calibration_reported(self):
        base = make_results()
        cur = make_results()
        del cur["benches"]["calibration"]
        _, failures = compare(cur, base)
        assert any("calibration" in failure for failure in failures)


class TestRunner:
    def test_subset_run_includes_calibration(self):
        results = run_benchmarks(quick=True, only=["engine_events"])
        assert set(results["benches"]) == {"calibration", "engine_events"}
        for metrics in results["benches"].values():
            assert metrics["seconds"] > 0
        assert results["quick"] is True
        # Every cancelled tenth event was skipped, the rest fired.
        engine = results["benches"]["engine_events"]
        assert engine["fired"] == engine["events"] - engine["events"] // 10

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(quick=True, only=["nope"])

    def test_machine_advance_bench_runs(self):
        results = run_benchmarks(quick=True, only=["machine_advance"])
        metrics = results["benches"]["machine_advance"]
        assert metrics["advances"] == 5_000
        assert metrics["energy_total"] > 0

    def test_machine_compute_bench_runs(self):
        results = run_benchmarks(quick=True, only=["machine_compute"])
        metrics = results["benches"]["machine_compute"]
        assert metrics["bursts"] == 2_000
        # Every burst opens a busy segment; idle gaps open more.
        assert metrics["segments"] > metrics["bursts"]
        assert metrics["energy_total"] > 0

    def test_trace_export_bench_runs(self):
        results = run_benchmarks(quick=True, only=["trace_export"])
        metrics = results["benches"]["trace_export"]
        assert metrics["events"] > 1_000
        # Process/thread metadata on top of one entry per event.
        assert metrics["trace_events"] > metrics["events"]
        assert metrics["joins_total"] > 0
        assert metrics["joins_resolved"] == metrics["joins_total"]

    def test_bench_names_stable(self):
        assert "calibration" in BENCH_NAMES
        assert "engine_events" in BENCH_NAMES

    def test_committed_baseline_covers_exactly_the_suite(self):
        # compare() skips baseline benches the run lacks, so a retired or
        # renamed bench would silently lose its gate.
        with open(BASELINE, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert sorted(baseline["benches"]) == sorted(BENCH_NAMES)

    def test_render_helpers(self):
        results = make_results()
        table = render_bench_table(results)
        assert "engine_events" in table
        assert "10,000 events/s" in table
        assert "500,000 iterations" in table
        rows, _ = compare(results, results)
        assert "normalized" in render_comparison(rows)


class TestCli:
    def test_bench_cli_writes_json_and_compares(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "out" / "BENCH_core.json"
        code = main([
            "bench", "--quick", "--only", "engine_events",
            "--out", str(out),
        ])
        assert code == 0
        written = json.loads(out.read_text())
        assert "engine_events" in written["benches"]
        # Now compare against itself: no regression, exit 0.
        code = main([
            "bench", "--quick", "--only", "engine_events",
            "--out", str(out.with_name("second.json")),
            "--compare", str(out),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    @pytest.fixture
    def steady_registry(self, monkeypatch):
        """Replace the bench registry with two tiny deterministic benches
        (fixed ``seconds``, no timing) and count how often each runs.
        The ``--confirm`` logic is then exercised without the noise or
        the cost of real quick-mode workloads."""
        from repro.perf import bench

        runs = {"calibration": 0, "steady": 0}

        def fixed(name, metrics):
            def run(quick, repeats):
                runs[name] += 1
                return dict(metrics)
            return run

        registry = {
            "calibration": (fixed("calibration",
                                  {"seconds": 0.1, "iterations": 1}),
                            lambda metrics: ""),
            "steady": (fixed("steady", {"seconds": 1.0}),
                       lambda metrics: ""),
        }
        monkeypatch.setattr(bench, "_BENCHES", registry)
        monkeypatch.setattr(bench, "BENCH_NAMES", tuple(registry))
        return runs

    def _impossible_baseline(self, tmp_path, capsys):
        """Record the steady bench, then fabricate a baseline the run can
        never match: the regression is "real", so confirmation re-runs
        must still fail."""
        from repro.cli import main

        out = tmp_path / "BENCH_core.json"
        code = main(["bench", "--quick", "--only", "steady",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        baseline = json.loads(out.read_text())
        baseline["benches"]["steady"]["seconds"] /= 100.0
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        return out, base_path

    def test_bench_cli_confirms_regressions_before_failing(
        self, tmp_path, capsys, steady_registry
    ):
        from repro.cli import main

        out, base_path = self._impossible_baseline(tmp_path, capsys)
        code = main([
            "bench", "--quick", "--only", "steady",
            "--out", str(out.with_name("second.json")),
            "--compare", str(base_path), "--confirm", "2",
        ])
        captured = capsys.readouterr().out
        assert code == 1
        assert "re-running steady to confirm (attempt 1/2)" in captured
        assert "attempt 2/2" in captured
        assert "FAIL: steady" in captured
        # One recording run, then the compared run and its two re-runs.
        assert steady_registry["steady"] == 4

    def test_bench_cli_confirm_zero_fails_immediately(
        self, tmp_path, capsys, steady_registry
    ):
        from repro.cli import main

        out, base_path = self._impossible_baseline(tmp_path, capsys)
        code = main([
            "bench", "--quick", "--only", "steady",
            "--out", str(out.with_name("second.json")),
            "--compare", str(base_path), "--confirm", "0",
        ])
        captured = capsys.readouterr().out
        assert code == 1
        assert "re-running" not in captured
        assert "FAIL: steady" in captured
        assert steady_registry["steady"] == 2
