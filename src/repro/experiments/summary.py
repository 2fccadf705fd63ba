"""One-call summary of the reproduction's headline results.

``full_report()`` runs a configurable subset of the paper's experiments
and returns a nested dict of the headline numbers — the programmatic
equivalent of EXPERIMENTS.md, used by ``python -m repro report``.
"""

from __future__ import annotations

from repro.experiments.calibration import TABLES, band_text, headline, measure
from repro.experiments.concurrency import concurrency_table
from repro.experiments.goal_study import (
    derive_goals,
    fidelity_runtime_bounds,
    run_goal_experiment,
)

__all__ = ["full_report", "render_report"]


def fidelity_summary(jobs=None):
    """Per-application hardware-PM and lowest-fidelity savings bands:
    :func:`~repro.experiments.calibration.headline`'s two claims of
    each app, measured.

    With ``jobs > 1`` the tables come from the fleet (same
    measurements, bit-identical values, parallel execution).
    """
    if jobs is not None and jobs > 1:
        from repro.fleet import FleetRunner, energy_table

        runner = FleetRunner(jobs=jobs)
        tables = {app: energy_table(app, runner=runner) for app in TABLES}
    else:
        tables = {app: table_fn() for app, table_fn in TABLES.items()}
    return {
        app: {key: measure(claim, tables[app])
              for key, claim in headline(app).items()}
        for app in TABLES
    }


def goal_summary(initial_energy=6_000.0):
    """Fidelity bounds, derived goals, and whether each was met."""
    t_hi, t_lo = fidelity_runtime_bounds(initial_energy)
    goals = derive_goals(t_hi, t_lo, count=3)
    outcomes = []
    for goal in goals:
        result = run_goal_experiment(goal, initial_energy=initial_energy)
        outcomes.append({
            "goal_seconds": goal,
            "met": result.goal_met,
            "residual": result.residual_energy,
        })
    return {
        "initial_energy": initial_energy,
        "bound_high_fidelity": t_hi,
        "bound_low_fidelity": t_lo,
        "goals": outcomes,
    }


def full_report(include_concurrency=True, include_goal=True,
                goal_energy=6_000.0, jobs=None):
    """Run the headline experiments; returns a nested dict."""
    report = {"fidelity": fidelity_summary(jobs=jobs)}
    if include_concurrency:
        table = concurrency_table(iterations=2)
        report["concurrency"] = {
            config: pair["concurrent"] / pair["alone"] - 1
            for config, pair in table.items()
        }
    if include_goal:
        report["goal"] = goal_summary(goal_energy)
    return report


def render_report(report):
    """Format :func:`full_report` output for the terminal."""
    lines = ["Reproduction headline report", "=" * 30, ""]
    lines.append("Fidelity savings vs baseline (min-max across objects):")
    for app, bands in report["fidelity"].items():
        paper = {key: band_text(claim.paper)
                 for key, claim in headline(app).items()}
        hw_lo, hw_hi = bands["hw-only"]
        low_lo, low_hi = bands["lowest"]
        lines.append(
            f"  {app:<7} hw-only {hw_lo:5.1%}-{hw_hi:5.1%} "
            f"(paper {paper['hw-only']})   "
            f"lowest {low_lo:5.1%}-{low_hi:5.1%} "
            f"(paper {paper['lowest']})"
        )
    if "concurrency" in report:
        lines.append("")
        lines.append("Concurrency: energy added by the background video:")
        for config, extra in report["concurrency"].items():
            lines.append(f"  {config:<17} +{extra:.0%}")
    if "goal" in report:
        goal = report["goal"]
        lines.append("")
        lines.append(
            f"Goal-directed adaptation on {goal['initial_energy']:.0f} J "
            f"(bounds {goal['bound_high_fidelity']:.0f}-"
            f"{goal['bound_low_fidelity']:.0f} s):"
        )
        for outcome in goal["goals"]:
            status = "MET" if outcome["met"] else "MISSED"
            lines.append(
                f"  goal {outcome['goal_seconds']:6.0f} s  {status}  "
                f"residual {outcome['residual']:.0f} J"
            )
    return "\n".join(lines)
