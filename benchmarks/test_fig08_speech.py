"""Figure 8: energy impact of fidelity for speech recognition.

Four utterances (1-7 s), seven configurations: baseline, hardware-only
power management, reduced model, remote, hybrid, remote-reduced and
hybrid-reduced.
"""

from conftest import run_once
from tables_util import (
    format_energy_table,
    report_claims,
    savings,
    sweep_with_trials,
)

from repro.analysis import render_table
from repro.experiments import speech_energy_table
from repro.workloads import UTTERANCES

CONFIGS = (
    "baseline", "hw-only", "reduced", "remote", "hybrid",
    "remote-reduced", "hybrid-reduced",
)
UTTS = [utt.name for utt in UTTERANCES]


def test_fig08_speech(benchmark, report):
    stats = run_once(benchmark, sweep_with_trials, speech_energy_table, 5)

    report(render_table(
        ["Config (J)"] + UTTS,
        format_energy_table(stats, CONFIGS, UTTS),
        title="Figure 8 — speech energy by strategy (mean ± 90% CI, 5 trials)",
    ))
    report_claims(report, stats, "speech")

    for utt in UTTS:
        assert stats["hw-only"][utt].mean < stats["baseline"][utt].mean
        assert stats["reduced"][utt].mean < stats["hw-only"][utt].mean
        assert stats["hybrid"][utt].mean < stats["remote"][utt].mean
        assert stats["hybrid-reduced"][utt].mean < stats["hybrid"][utt].mean
        assert stats["remote-reduced"][utt].mean < stats["remote"][utt].mean
    combined = savings(stats, "hybrid-reduced", "baseline")
    assert min(combined.values()) >= 0.6
