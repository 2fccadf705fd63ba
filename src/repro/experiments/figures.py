"""Figure data bundles: the plot data behind every paper figure.

Each ``figure_*`` function runs the corresponding experiment and
returns a dict of named CSV-ready tables; :func:`export_figures`
writes them all to a directory so any plotting tool can redraw the
paper.  Used by ``python -m repro export-figures``.
"""

from __future__ import annotations

import os

from repro.analysis.export import energy_table_csv, timeline_csv, write_csv
from repro.analysis.linear import fit_linear
from repro.experiments.concurrency import concurrency_table
from repro.experiments.fidelity_study import (
    map_energy_table,
    measure_map,
    measure_web,
    speech_energy_table,
    video_energy_table,
    web_energy_table,
)
from repro.experiments.goal_study import (
    derive_goals,
    fidelity_runtime_bounds,
    run_goal_experiment,
)
from repro.experiments.zoned_study import (
    ZONE_GRIDS,
    measure_map_zoned,
    measure_video_zoned,
)
from repro.workloads import THINK_SWEEP_S, image_by_name, map_by_name
from repro.workloads.videos import VideoClip

__all__ = ["FIGURES", "figure_tables", "export_figures"]


def figure_06():
    """Video energy by fidelity configuration."""
    return {"fig06_video": energy_table_csv(video_energy_table())}


def figure_08():
    """Speech energy by execution strategy."""
    return {"fig08_speech": energy_table_csv(speech_energy_table())}


def figure_10():
    """Map energy by fidelity, 5 s think time."""
    return {"fig10_map": energy_table_csv(map_energy_table())}


def figure_11():
    """Map energy vs think time with linear fits."""
    city = map_by_name("san-jose")
    rows = ["config,think_s,energy_j,fit_intercept,fit_slope,fit_r2"]
    for config in ("baseline", "hw-only", "crop-secondary"):
        energies = [
            measure_map(city, config, think_time_s=t) for t in THINK_SWEEP_S
        ]
        fit = fit_linear(THINK_SWEEP_S, energies)
        for think, energy in zip(THINK_SWEEP_S, energies):
            rows.append(
                f"{config},{think},{energy},{fit.intercept},"
                f"{fit.slope},{fit.r_squared}"
            )
    return {"fig11_map_thinktime": "\n".join(rows) + "\n"}


def figure_13():
    """Web energy by JPEG quality, 5 s think time."""
    return {"fig13_web": energy_table_csv(web_energy_table())}


def figure_14():
    """Web energy vs think time with linear fits."""
    image = image_by_name("image-1")
    rows = ["config,think_s,energy_j,fit_intercept,fit_slope,fit_r2"]
    for config in ("baseline", "hw-only", "jpeg-5"):
        energies = [
            measure_web(image, config, think_time_s=t) for t in THINK_SWEEP_S
        ]
        fit = fit_linear(THINK_SWEEP_S, energies)
        for think, energy in zip(THINK_SWEEP_S, energies):
            rows.append(
                f"{config},{think},{energy},{fit.intercept},"
                f"{fit.slope},{fit.r_squared}"
            )
    return {"fig14_web_thinktime": "\n".join(rows) + "\n"}


def figure_15():
    """Concurrency: composite alone vs with background video."""
    table = concurrency_table(iterations=3)
    rows = ["config,alone_j,concurrent_j"]
    for config, pair in table.items():
        rows.append(f"{config},{pair['alone']},{pair['concurrent']}")
    return {"fig15_concurrency": "\n".join(rows) + "\n"}


def figure_18():
    """Zoned-backlighting projection for video and map."""
    clip = VideoClip("fig18-clip", 30.0, 12.0, 16_250)
    city = map_by_name("allentown")
    rows = ["app,config,zones,energy_j,zones_lit"]
    for config in ("hw-only", "combined"):
        for zones in ZONE_GRIDS:
            energy, lit = measure_video_zoned(clip, config, zones)
            rows.append(f"video,{config},{zones},{energy},{lit}")
    for config in ("hw-only", "crop-secondary"):
        for zones in ZONE_GRIDS:
            energy, lit = measure_map_zoned(city, config, zones)
            rows.append(f"map,{config},{zones},{energy},{lit}")
    return {"fig18_zoned": "\n".join(rows) + "\n"}


def figure_19(initial_energy=6_000.0):
    """Goal-directed traces: supply/demand series + fidelity steps."""
    t_hi, t_lo = fidelity_runtime_bounds(initial_energy)
    goals = derive_goals(t_hi, t_lo, count=4)
    bundles = {}
    for label, goal in (("short", goals[0]), ("long", goals[-1])):
        result = run_goal_experiment(goal, initial_energy=initial_energy)
        bundles[f"fig19_trace_{label}"] = timeline_csv(result.series)
    return bundles


FIGURES = {
    "fig06": figure_06,
    "fig08": figure_08,
    "fig10": figure_10,
    "fig11": figure_11,
    "fig13": figure_13,
    "fig14": figure_14,
    "fig15": figure_15,
    "fig18": figure_18,
    "fig19": figure_19,
}


def figure_tables(figures=None, jobs=None, cache=None):
    """``(stem, CSV text)`` of every table of the selected figures, in
    order.  An unknown figure id raises :class:`KeyError` before any
    figure runs.  With ``jobs > 1`` (or a ``cache`` directory) each
    figure regenerates as one fleet task — figures are independent, so
    they parallelize and cache whole.
    """
    selected = figures or sorted(FIGURES)
    for name in selected:
        if name not in FIGURES:
            raise KeyError(
                f"unknown figure {name!r}; available: {sorted(FIGURES)}"
            )
    if (jobs is not None and jobs > 1) or cache is not None:
        bundles = _figure_bundles_fleet(selected, jobs, cache)
    else:
        bundles = [(name, FIGURES[name]()) for name in selected]
    return [item for _name, bundle in bundles for item in bundle.items()]


def export_figures(directory, figures=None, jobs=None, cache=None):
    """Write the selected figures' :func:`figure_tables` as CSV files.

    Returns the list of file paths written.
    """
    os.makedirs(directory, exist_ok=True)
    return [write_csv(os.path.join(directory, f"{stem}.csv"), text)
            for stem, text in figure_tables(figures, jobs, cache)]


def _figure_bundles_fleet(selected, jobs, cache):
    from repro.fleet import FleetRunner, figures_campaign

    spec = figures_campaign(selected)
    result = FleetRunner(jobs=jobs, cache=cache).run(spec)
    result.raise_on_failure()
    return [(name, result.value(name)) for name in selected]
