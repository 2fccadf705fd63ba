"""Figure 6: energy impact of fidelity for video playing.

Four QuickTime/Cinepak clips (127-226 s), six configurations per clip:
baseline, hardware-only power management, Premiere-B, Premiere-C,
reduced window, and combined.  Five trials per cell with 90% CIs.
"""

from conftest import run_once
from tables_util import (
    format_energy_table,
    report_claims,
    savings,
    sweep_with_trials,
)

from repro.analysis import render_table
from repro.experiments import video_energy_table
from repro.workloads import VIDEO_CLIPS

CONFIGS = (
    "baseline", "hw-only", "premiere-b", "premiere-c",
    "reduced-window", "combined",
)
CLIPS = [clip.name for clip in VIDEO_CLIPS]


def test_fig06_video(benchmark, report):
    stats = run_once(benchmark, sweep_with_trials, video_energy_table, 5)

    report(render_table(
        ["Config (J)"] + CLIPS,
        format_energy_table(stats, CONFIGS, CLIPS),
        title="Figure 6 — video energy by fidelity (mean ± 90% CI, 5 trials)",
    ))
    report_claims(report, stats, "video")
    cb_base = savings(stats, "combined", "baseline")

    # Shape assertions: orderings hold for every clip.
    for clip in CLIPS:
        assert stats["hw-only"][clip].mean < stats["baseline"][clip].mean
        assert stats["premiere-c"][clip].mean < stats["premiere-b"][clip].mean
        assert stats["reduced-window"][clip].mean < stats["premiere-c"][clip].mean
        assert stats["combined"][clip].mean == min(
            stats[c][clip].mean for c in CONFIGS
        )
    assert 0.30 <= min(cb_base.values()) and max(cb_base.values()) <= 0.42
