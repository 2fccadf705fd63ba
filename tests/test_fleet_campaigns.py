"""Campaign-level tests: determinism, caching, wiring into experiments.

The acceptance bar for the fleet: a campaign run with ``jobs=1`` and
``jobs=4`` (and a cache-warm re-run) must produce identical aggregate
tables, and a campaign with injected faults must still return partial
results with the failures recorded.
"""

import pytest

from repro.experiments import map_energy_table, run_trials
from repro.experiments.figures import export_figures
from repro.experiments.summary import fidelity_summary
from repro.fleet import (
    CampaignSpec,
    FleetRunner,
    Task,
    energy_table,
    figures_campaign,
    run_sweep,
    sweep_campaign,
    tables_from_result,
)
from repro.fleet.campaigns import APPS
from repro.workloads import MAPS


def _module_experiment(costs):
    """Module-level (hence picklable) experiment for run_trials tests."""
    from repro.experiments import measure_map

    return measure_map(MAPS[0], "cropped", costs=costs)


class TestDeterminism:
    def test_serial_parallel_and_cached_aggregates_identical(self, tmp_path):
        # 28 map tasks + 24 web tasks: comfortably past the 20-task bar.
        spec = sweep_campaign(["map", "web"])
        assert len(spec) >= 20
        serial = FleetRunner(jobs=1).run(spec)
        parallel = FleetRunner(jobs=4, cache=tmp_path / "c").run(spec)
        warm = FleetRunner(jobs=4, cache=tmp_path / "c").run(spec)

        t_serial = tables_from_result(serial)
        t_parallel = tables_from_result(parallel)
        t_warm = tables_from_result(warm)
        assert t_serial == t_parallel  # bit-identical floats
        assert t_serial == t_warm
        assert parallel.telemetry.executed == len(spec)
        assert warm.telemetry.executed == 0
        assert warm.telemetry.cached == len(spec)

    def test_fleet_table_matches_serial_experiment_code(self):
        fleet = energy_table("map", jobs=2)
        serial = map_energy_table()
        assert fleet == serial

    def test_trials_aggregate_identical_serial_vs_fleet(self):
        stats_serial = run_trials(_module_experiment, trials=4)
        stats_fleet = run_trials(_module_experiment, trials=4, jobs=2)
        assert stats_serial == stats_fleet

    def test_unpicklable_experiment_degrades_to_serial(self):
        baseline = run_trials(lambda costs: 1.0, trials=3)
        fleet = run_trials(lambda costs: 1.0, trials=3, jobs=2)
        assert baseline == fleet

    def test_trials_zero_still_rejected_with_jobs(self):
        with pytest.raises(ValueError, match="at least one trial"):
            run_trials(_module_experiment, trials=0, jobs=2)


class TestFaultInjection:
    def test_sweep_with_injected_fault_returns_partial_tables(self):
        spec = sweep_campaign(["map"])
        poisoned = CampaignSpec(
            name="poisoned",
            tasks=spec.tasks + (
                Task(id="inject/bad/task",
                     fn="repro.fleet.library:always_fail"),
                Task(id="foreign-task",
                     fn="repro.fleet.library:always_fail"),
            ),
        )
        result = FleetRunner(jobs=2, retries=0).run(poisoned)
        assert not result.ok
        assert {f.task_id for f in result.failures} == {
            "inject/bad/task", "foreign-task",
        }
        tables = tables_from_result(result)
        # Every real cell survived; the failed pseudo-cell is omitted.
        assert set(tables["map"]) == set(APPS["map"]["configs"])
        assert "inject" not in tables.get("map", {})

    def test_energy_table_raises_on_failure(self):
        with pytest.raises(Exception) as err:
            energy_table("map", jobs=1, objects=["no-such-city"], retries=0)
        assert "no-such-city" in str(err.value)


class TestWiring:
    def test_run_sweep_returns_tables_and_telemetry(self):
        tables, result = run_sweep(apps=["map"], jobs=2)
        assert result.ok
        assert set(tables) == {"map"}
        assert result.telemetry.total == len(result.results)
        assert result.telemetry.succeeded == result.telemetry.total

    def test_sweep_trials_cells_are_stats(self):
        tables, result = run_sweep(
            apps=["map"], jobs=2, trials=3,
            think_time_s=1.0,
        )
        cell = tables["map"]["cropped"][MAPS[0].name]
        assert cell.n == 3
        assert cell.ci90 >= 0.0

    def test_figures_campaign_export_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        fleet_dir = tmp_path / "fleet"
        serial = export_figures(str(serial_dir), figures=["fig10"])
        fleet = export_figures(str(fleet_dir), figures=["fig10"], jobs=2)
        assert len(serial) == len(fleet) == 1
        with open(serial[0]) as fh:
            serial_text = fh.read()
        with open(fleet[0]) as fh:
            fleet_text = fh.read()
        assert serial_text == fleet_text

    def test_figures_campaign_rejects_unknown(self):
        with pytest.raises(KeyError):
            figures_campaign(["not-a-figure"])

    def test_fidelity_summary_fleet_matches_serial(self,
                                                  serial_fidelity_summary):
        # Restrict the comparison to one app's tables via monkey-free
        # full-table equality: summary over fleet tables must equal the
        # serial summary because the underlying values are identical.
        fleet = fidelity_summary(jobs=2)
        assert serial_fidelity_summary == fleet


class TestCli:
    def test_cli_sweep_smoke(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--apps", "map", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--csv-dir", str(tmp_path / "csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet:" in out
        assert "failed 0" in out
        assert (tmp_path / "csv" / "sweep_map.csv").exists()

        # Warm re-run: zero executed tasks.
        code = main([
            "sweep", "--apps", "map", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cached 28" in out

    def test_cli_fig10_jobs_matches_serial(self, capsys):
        from repro.cli import main

        assert main(["fig10"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["fig10", "--jobs", "2"]) == 0
        fleet_out = capsys.readouterr().out
        assert serial_out == fleet_out
