#!/usr/bin/env python
"""Quickstart: goal-directed energy adaptation in ~40 lines.

Builds a simulated ThinkPad 560X client running the paper's composite
workload (speech + Web + map every 25 seconds, video newsfeed in the
background), gives Odyssey a 6 kJ battery and a duration goal the full-
fidelity workload could not meet, and watches adaptation stretch the
energy to the goal.

Run:  python examples/quickstart.py
"""

from repro.experiments import (
    derive_goals,
    fidelity_runtime_bounds,
    run_goal_experiment,
)

INITIAL_ENERGY_J = 6_000.0


def main():
    # How long would the battery last without adaptation?
    t_hi, t_lo = fidelity_runtime_bounds(INITIAL_ENERGY_J)
    print(f"On {INITIAL_ENERGY_J:.0f} J the workload runs "
          f"{t_hi:.0f}s at full fidelity, {t_lo:.0f}s at lowest fidelity.")

    # Ask Odyssey for a battery life the full-fidelity workload misses.
    goal = derive_goals(t_hi, t_lo, count=3)[1]
    print(f"Asking Odyssey to make the battery last {goal:.0f}s ...")
    result = run_goal_experiment(goal, initial_energy=INITIAL_ENERGY_J)

    print(f"goal met:        {result.goal_met}")
    print(f"residual energy: {result.residual_energy:.0f} J "
          f"({result.residual_energy / INITIAL_ENERGY_J:.1%} of supply)")
    print("adaptations per application:")
    for app, count in sorted(result.adaptations.items()):
        print(f"  {app:8} {count}")

    # The run's Figure 19 series: (time, category, label, value, extra)
    # rows, where each fidelity step names the app and its new level.
    print("final fidelity levels:")
    final = {}
    for _time, category, app, level, _normalized in result.series:
        if category == "fidelity":
            final[app] = level
    for app, level in sorted(final.items()):
        print(f"  {app:8} {level}")


if __name__ == "__main__":
    main()
