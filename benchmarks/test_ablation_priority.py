"""Ablation: the static priority ladder (Section 5.1.3).

Odyssey degrades the lowest-priority application first and upgrades in
reverse order, so the Web browser (highest priority) keeps its fidelity
while speech (lowest) absorbs the degradation.  With uniform
priorities, degradation order falls back to registration order and the
high-priority applications lose their protection.
"""

from conftest import run_once

from repro.analysis import render_table
from repro.experiments import (
    derive_goals,
    fidelity_runtime_bounds,
    run_goal_experiment,
)

INITIAL_ENERGY = 8_000.0

VARIANTS = {
    "paper (speech<video<map<web)": {
        "speech": 1, "video": 2, "map": 3, "web": 4,
    },
    "uniform priorities": {"speech": 1, "video": 1, "map": 1, "web": 1},
    "inverted priorities": {"speech": 4, "video": 3, "map": 2, "web": 1},
}


def final_fidelities(result):
    levels = {}
    for _t, category, app, _level, normalized in result.series:
        if category == "fidelity":
            levels[app] = normalized  # 0..1
    return levels


def sweep():
    t_hi, t_lo = fidelity_runtime_bounds(INITIAL_ENERGY)
    goal = derive_goals(t_hi, t_lo, count=3)[0]  # tight: forces degradation
    return {
        label: run_goal_experiment(
            goal, initial_energy=INITIAL_ENERGY, priorities=priorities
        )
        for label, priorities in VARIANTS.items()
    }


def test_ablation_priority(benchmark, report):
    results = run_once(benchmark, sweep)

    rows = []
    for label, result in results.items():
        levels = final_fidelities(result)
        rows.append([
            label,
            "Yes" if result.goal_met else "No",
            " ".join(f"{app}={levels[app]:.2f}" for app in sorted(levels)),
        ])
    report(render_table(
        ["Variant", "Goal met", "Final normalized fidelity"],
        rows,
        title="Ablation — priority ladder under a tight goal",
    ))

    paper = final_fidelities(results["paper (speech<video<map<web)"])
    inverted = final_fidelities(results["inverted priorities"])
    # Paper ordering protects the Web app at speech's expense.
    assert paper["web"] >= paper["speech"]
    # Inverting the priorities protects speech instead.
    assert inverted["speech"] >= inverted["web"]
    # The goal is met regardless — priorities shape *who* degrades.
    for result in results.values():
        assert result.goal_met
