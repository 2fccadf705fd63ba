"""Figure 16: summary of the energy impact of fidelity.

Every measurement normalized to the same object's baseline (full
fidelity, no power management); each cell reports the min-max across
the four data objects.  Rows cover the four applications, with the
map and Web apps swept over think times 0/5/10/20 s.
"""

from conftest import run_once

from repro.analysis import (
    normalize_to_baseline,
    range_across_objects,
    render_table,
)
from repro.experiments import (
    map_energy_table,
    speech_energy_table,
    video_energy_table,
    web_energy_table,
)

def build_summary():
    """{(app, think): {config: Range}} for the summary's key columns."""
    summary = {}

    video = normalize_to_baseline(video_energy_table())
    summary[("video", None)] = {
        "hw-only": range_across_objects(video["hw-only"]),
        "combined": range_across_objects(video["combined"]),
    }
    speech = normalize_to_baseline(speech_energy_table())
    summary[("speech", None)] = {
        "hw-only": range_across_objects(speech["hw-only"]),
        "combined": range_across_objects(speech["hybrid-reduced"]),
    }
    for think in (0.0, 5.0, 10.0, 20.0):
        mp = normalize_to_baseline(map_energy_table(think_time_s=think))
        summary[("map", think)] = {
            "hw-only": range_across_objects(mp["hw-only"]),
            "combined": range_across_objects(mp["crop-secondary"]),
        }
        web = normalize_to_baseline(web_energy_table(think_time_s=think))
        summary[("web", think)] = {
            "hw-only": range_across_objects(web["hw-only"]),
            "combined": range_across_objects(web["jpeg-5"]),
        }
    return summary


def test_fig16_summary(benchmark, report):
    summary = run_once(benchmark, build_summary)

    rows = []
    for (app, think), cells in summary.items():
        think_label = "N/A" if think is None else f"{think:.0f}"
        rows.append([
            app, think_label, "1.00",
            f"{cells['hw-only']}", f"{cells['combined']}",
        ])
    report(render_table(
        ["Application", "Think (s)", "Baseline", "HW PM", "Combined"],
        rows,
        title="Figure 16 — normalized energy (min-max across 4 objects)",
    ))

    # Every cell below 1.0 and combined below hardware-only PM.
    for (app, think), cells in summary.items():
        assert cells["hw-only"].high < 1.0, (app, think)
        assert cells["combined"].low < cells["hw-only"].high, (app, think)

    # The headline mean: average lowest-fidelity savings across the
    # four applications at 5 s think time is ~36% in the paper.
    means = []
    for app, think in (("video", None), ("speech", None),
                       ("map", 5.0), ("web", 5.0)):
        cells = summary[(app, think)]
        means.append((cells["combined"].low + cells["combined"].high) / 2)
    mean_fraction = sum(means) / len(means)
    report(f"mean lowest-fidelity energy fraction: {mean_fraction:.2f} "
           f"(paper 0.64, i.e. 36% savings)")
    assert 0.45 <= mean_fraction <= 0.75
