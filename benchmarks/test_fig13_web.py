"""Figure 13: energy impact of fidelity for Web browsing.

Four GIF images (110 B to 175 kB) with five seconds of think time,
six configurations: baseline, hardware-only PM, and JPEG 75/50/25/5
distillation.
"""

from conftest import run_once
from tables_util import (
    format_energy_table,
    report_claims,
    savings,
    sweep_with_trials,
)

from repro.analysis import render_table
from repro.experiments import web_energy_table
from repro.workloads import IMAGES

CONFIGS = ("baseline", "hw-only", "jpeg-75", "jpeg-50", "jpeg-25", "jpeg-5")
PICS = [image.name for image in IMAGES]


def test_fig13_web(benchmark, report):
    stats = run_once(benchmark, sweep_with_trials, web_energy_table, 5)

    report(render_table(
        ["Config (J)"] + PICS,
        format_energy_table(stats, CONFIGS, PICS),
        title="Figure 13 — Web energy by JPEG quality, 5 s think time",
    ))
    report_claims(report, stats, "web")
    hw = savings(stats, "hw-only", "baseline")
    lowest = savings(stats, "jpeg-5", "hw-only")

    for pic in PICS:
        assert stats["hw-only"][pic].mean < stats["baseline"][pic].mean
        assert stats["jpeg-5"][pic].mean <= stats["jpeg-75"][pic].mean
    # The paper's headline: fidelity reduction is disappointing here.
    assert max(lowest.values()) < 0.20
    # Most of the savings come from power management, not fidelity.
    assert min(hw.values()) > max(lowest.values())
