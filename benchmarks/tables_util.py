"""Shared helpers for the per-figure energy-table benchmarks."""

from repro.analysis import summarize
from repro.experiments import trial_costs
from repro.experiments.calibration import band_text, claims

__all__ = ["sweep_with_trials", "format_energy_table", "savings",
           "report_claims"]


def sweep_with_trials(table_fn, trials=5, **kwargs):
    """Run a ``{config: {object: J}}`` sweep across jittered trials.

    Returns ``{config: {object: TrialStats}}`` — the paper's mean of
    five trials with 90 % confidence intervals.
    """
    per_trial = [
        table_fn(costs=trial_costs(trial), **kwargs) for trial in range(trials)
    ]
    stats = {}
    for config in per_trial[0]:
        stats[config] = {}
        for obj in per_trial[0][config]:
            stats[config][obj] = summarize(
                [table[config][obj] for table in per_trial]
            )
    return stats


def format_energy_table(stats, configs, objects):
    """Rows of 'mean ± ci' strings, one row per config."""
    rows = []
    for config in configs:
        row = [config]
        for obj in objects:
            row.append(f"{stats[config][obj]:.1f}")
        rows.append(row)
    return rows


def savings(stats, config, reference):
    """Per-object fractional savings of config vs reference (means)."""
    return {
        obj: 1.0 - stats[config][obj].mean / stats[reference][obj].mean
        for obj in stats[reference]
    }


def report_claims(report, stats, app):
    """Print each of ``app``'s Section 3 claims (the rows of
    ``repro.experiments.calibration.CLAIMS``) against the trial means."""
    for claim in claims(app):
        values = savings(stats, claim.config, claim.reference).values()
        report(f"{claim.config + ' vs ' + claim.reference:34} "
               f"{min(values):.1%}-{max(values):.1%}  "
               f"(paper {band_text(claim.paper)})")
