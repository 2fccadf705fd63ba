"""Integration tests for goal-directed adaptation (Figures 19-22).

Scaled-down energies keep each trial to a few simulated minutes; the
full-scale sweeps live in benchmarks/.
"""

import pytest

from repro.experiments import (
    derive_goals,
    fidelity_runtime_bounds,
    run_bursty_experiment,
    run_goal_experiment,
)
from repro.obs import NULL_TRACER, Tracer, installed

ENERGY = 5_000.0  # small supply -> short experiments (paper used 12 kJ)


@pytest.fixture(scope="module")
def bounds():
    return fidelity_runtime_bounds(ENERGY)


@pytest.fixture(scope="module")
def goal_runs(bounds):
    """``run_goal_experiment(goal, initial_energy=ENERGY)`` for each
    derived goal, run once and read by every test that checks them."""
    return [run_goal_experiment(goal, initial_energy=ENERGY)
            for goal in derive_goals(*bounds)]


class TestRuntimeBounds:
    def test_lowest_fidelity_outlasts_highest(self, bounds):
        t_hi, t_lo = bounds
        assert t_lo > t_hi * 1.1

    def test_derive_goals_bracket_bounds(self, bounds):
        t_hi, t_lo = bounds
        goals = derive_goals(t_hi, t_lo)
        assert len(goals) == 4
        assert goals[0] > t_hi          # tightest goal needs adaptation
        assert goals[-1] < t_lo         # loosest goal stays feasible
        assert goals == sorted(goals)

    def test_derive_single_goal(self, bounds):
        t_hi, t_lo = bounds
        assert len(derive_goals(t_hi, t_lo, count=1)) == 1


class TestGoalDirectedAdaptation:
    def test_every_derived_goal_is_met(self, bounds, goal_runs):
        """The paper's headline: the desired goal was met in every trial."""
        goals = derive_goals(*bounds)
        for goal, result in zip(goals, goal_runs):
            assert result.goal_met, f"missed goal {goal:.0f}s"

    def test_residual_energy_is_small(self, goal_runs):
        """Paper: largest residue was ~1-2% of the initial energy."""
        result = goal_runs[1]
        assert result.goal_met
        assert result.residual_energy < 0.08 * ENERGY

    def test_low_priority_apps_degrade_first(self, goal_runs):
        """Figure 19: web stays near max fidelity; speech near min."""
        result = goal_runs[0]
        fidelity = {}
        for _t, category, app, _level, normalized in result.series:
            if category == "fidelity":
                fidelity[app] = normalized
        assert result.goal_met
        assert fidelity["web"] >= fidelity["speech"]

    def test_demand_tracks_supply(self, goal_runs):
        """Figure 19 top graph: estimated demand tracks supply closely."""
        result = goal_runs[1]
        supply = [row[3] for row in result.series if row[2] == "supply"]
        demand = [row[3] for row in result.series if row[2] == "demand"]
        # Compare trailing halves (the estimator needs warm-up).
        half = len(supply) // 2
        for s, d in zip(supply[half:], demand[half:]):
            assert d <= s * 1.15 + 30.0

    def test_infeasible_goal_reported_and_missed(self, bounds):
        _t_hi, t_lo = bounds
        result = run_goal_experiment(t_lo * 1.5, initial_energy=ENERGY)
        assert not result.goal_met
        assert result.infeasible_reported

    def test_trivial_goal_keeps_high_fidelity(self, bounds):
        t_hi, _t_lo = bounds
        result = run_goal_experiment(t_hi * 0.4, initial_energy=ENERGY)
        assert result.goal_met
        final = {}
        for _t, category, app, _level, normalized in result.series:
            if category == "fidelity":
                final[app] = normalized
        assert final["web"] == 1.0
        assert final["video"] >= 0.75

    def test_goal_extension_mid_run(self, bounds):
        """Figure 22's scenario: the user extends the goal mid-run."""
        t_hi, t_lo = bounds
        base_goal = t_hi * 1.02
        extension = (base_goal * 0.3, t_lo * 0.9 - base_goal)
        result = run_goal_experiment(
            base_goal, initial_energy=ENERGY, extensions=[extension]
        )
        assert result.goal_seconds == pytest.approx(base_goal + extension[1])
        assert result.goal_met

    def test_series_do_not_depend_on_the_installed_tracer(self):
        """Figure 19 rows are kept whatever the user traces, and the
        real tracer still receives every ``core`` event."""
        full = Tracer()
        runs = []
        for tracer in (NULL_TRACER, full,
                       Tracer(capacity=50, categories={"sim"})):
            with installed(tracer):
                runs.append(run_goal_experiment(197.0, initial_energy=3000.0))
        rows = runs[0].series
        assert rows == runs[1].series == runs[2].series
        assert {row[1] for row in rows} == {"energy", "fidelity"}
        traced = [(e.ts, e.args["value"]) for e in full.events
                  if e.name == "supply_j"]
        assert traced == [(row[0], row[3]) for row in rows
                          if row[2] == "supply"]

    def test_adaptation_counts_by_app(self, goal_runs):
        result = goal_runs[0]
        assert set(result.adaptations) == {"speech", "video", "map", "web"}
        assert result.total_adaptations > 0


class TestHalflifeSensitivity:
    def test_shorter_halflife_adapts_more(self, bounds):
        """Figure 21: a 1% half-life is unstable (most adaptations)."""
        goals = derive_goals(*bounds)
        counts = {}
        for halflife in (0.01, 0.10):
            result = run_goal_experiment(
                goals[1], initial_energy=ENERGY, halflife_fraction=halflife
            )
            counts[halflife] = result.total_adaptations
        assert counts[0.01] > counts[0.10]


class TestBurstyWorkload:
    def test_bursty_goal_met_with_sized_energy(self):
        result = run_bursty_experiment(seed=1, goal_seconds=480.0)
        assert result.goal_met
        assert result.residual_energy >= 0.0

    def test_bursty_with_extension(self):
        result = run_bursty_experiment(
            seed=2, goal_seconds=360.0, extension=(120.0, 120.0)
        )
        assert result.goal_seconds == pytest.approx(480.0)
        assert result.goal_met

    def test_bursty_trials_differ_by_seed(self):
        a = run_bursty_experiment(seed=1, goal_seconds=360.0)
        b = run_bursty_experiment(seed=5, goal_seconds=360.0)
        assert a.residual_energy != pytest.approx(b.residual_energy, rel=1e-6)

    def test_bursty_deterministic_per_seed(self):
        a = run_bursty_experiment(seed=3, goal_seconds=300.0)
        b = run_bursty_experiment(seed=3, goal_seconds=300.0)
        assert a.residual_energy == pytest.approx(b.residual_energy)
        assert a.adaptations == b.adaptations
