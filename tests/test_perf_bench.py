"""The ``repro bench`` harness: runner, comparison logic, CLI wiring."""

import json

import pytest

from repro.perf import BENCH_NAMES, compare, run_benchmarks
from repro.perf.bench import render_bench_table, render_comparison


def make_results(quick=True, cal=0.1, engine=1.0, speedup=4.0,
                 identical=True):
    return {
        "version": 1,
        "quick": quick,
        "repeats": 1,
        "benches": {
            "calibration": {"seconds": cal, "iterations": 500_000},
            "engine_events": {"seconds": engine, "events": 10_000,
                              "events_per_s": 10_000 / engine, "fired": 9000},
            "fig22_longduration": {
                "seconds": 0.5, "eager_s": 0.5 * speedup, "lazy_s": 0.5,
                "speedup": speedup, "tables_identical": identical,
                "samples": 1000, "goal_seconds": 90.0,
            },
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
        cur["benches"]["fig22_longduration"]["seconds"] = 1.0
        rows, failures = compare(cur, base, max_regression=0.25)
        assert failures == []

    def test_quick_full_mismatch_fails(self):
        base = make_results(quick=True)
        cur = make_results(quick=False)
        _, failures = compare(cur, base)
        assert any("quick/full mismatch" in failure for failure in failures)

    def test_min_speedup_floor(self):
        base = make_results()
        cur = make_results(speedup=2.0)
        _, failures = compare(cur, base, min_speedup=3.0)
        assert any("below the 3.00x floor" in failure for failure in failures)
        _, ok = compare(cur, base, min_speedup=1.5)
        assert ok == []

    def test_diverged_tables_fail(self):
        base = make_results()
        cur = make_results(identical=False)
        _, failures = compare(cur, base)
        assert any("diverged" in failure for failure in failures)

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

    def test_trace_export_bench_runs(self):
        results = run_benchmarks(quick=True, only=["trace_export"])
        metrics = results["benches"]["trace_export"]
        assert metrics["events"] > 1_000
        # Process/thread metadata on top of one entry per event.
        assert metrics["trace_events"] > metrics["events"]
        assert metrics["joins_total"] > 0
        assert metrics["joins_resolved"] == metrics["joins_total"]

    def test_bench_names_stable(self):
        assert "fig22_longduration" in BENCH_NAMES
        assert "calibration" in BENCH_NAMES

    def test_render_helpers(self):
        results = make_results()
        assert "fig22_longduration" in render_bench_table(results)
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

    def test_bench_cli_confirms_regressions_before_failing(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "BENCH_core.json"
        code = main(["bench", "--quick", "--only", "engine_events",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        # Fabricate a baseline the current machine can never match: the
        # regression is "real", so confirmation re-runs must still fail.
        baseline = json.loads(out.read_text())
        baseline["benches"]["engine_events"]["seconds"] /= 100.0
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--quick", "--only", "engine_events",
            "--out", str(out.with_name("second.json")),
            "--compare", str(base_path), "--confirm", "2",
        ])
        captured = capsys.readouterr().out
        assert code == 1
        assert "re-running engine_events to confirm (attempt 1/2)" in captured
        assert "attempt 2/2" in captured
        assert "FAIL: engine_events" in captured

    def test_bench_cli_confirm_zero_fails_immediately(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "BENCH_core.json"
        code = main(["bench", "--quick", "--only", "engine_events",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        baseline = json.loads(out.read_text())
        baseline["benches"]["engine_events"]["seconds"] /= 100.0
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--quick", "--only", "engine_events",
            "--out", str(out.with_name("second.json")),
            "--compare", str(base_path), "--confirm", "0",
        ])
        captured = capsys.readouterr().out
        assert code == 1
        assert "re-running" not in captured

    def test_bench_cli_fails_on_impossible_speedup_floor(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_core.json"
        code = main(["bench", "--quick", "--only", "engine_events",
                     "--out", str(out)])
        assert code == 0
        # engine_events-only runs have no fig22 metrics, so the floor is
        # not evaluated; exercise it via a synthetic baseline instead.
        current = json.loads(out.read_text())
        current["benches"]["fig22_longduration"] = {
            "seconds": 1.0, "eager_s": 2.0, "lazy_s": 1.0, "speedup": 2.0,
            "tables_identical": True, "samples": 10, "goal_seconds": 90.0,
        }
        _, failures = compare(current, current, min_speedup=3.0)
        assert failures
