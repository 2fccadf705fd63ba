"""Figure 10: energy impact of fidelity for map viewing.

Four U.S. city maps with five seconds of think time, seven
configurations: baseline, hardware-only PM, two filters, cropping, and
the two crop+filter combinations.
"""

from conftest import run_once
from tables_util import (
    format_energy_table,
    report_claims,
    savings,
    sweep_with_trials,
)

from repro.analysis import render_table
from repro.experiments import map_energy_table
from repro.workloads import MAPS

CONFIGS = (
    "baseline", "hw-only", "minor-filter", "secondary-filter",
    "cropped", "crop-minor", "crop-secondary",
)
CITIES = [city.name for city in MAPS]


def test_fig10_map(benchmark, report):
    stats = run_once(benchmark, sweep_with_trials, map_energy_table, 5)

    report(render_table(
        ["Config (J)"] + CITIES,
        format_energy_table(stats, CONFIGS, CITIES),
        title="Figure 10 — map energy by fidelity, 5 s think time",
    ))
    report_claims(report, stats, "map")

    for city in CITIES:
        assert stats["hw-only"][city].mean < stats["baseline"][city].mean
        assert (
            stats["secondary-filter"][city].mean
            < stats["minor-filter"][city].mean
        )
        assert stats["crop-minor"][city].mean < stats["cropped"][city].mean
        assert stats["crop-secondary"][city].mean == min(
            stats[c][city].mean for c in CONFIGS
        )
    # Filter effectiveness varies widely across cities (dense vs sparse).
    minor = savings(stats, "minor-filter", "hw-only")
    assert max(minor.values()) - min(minor.values()) > 0.15
