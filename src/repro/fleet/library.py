"""Fleet task library: module-level, JSON-parameter experiment callables.

Pool workers receive a task as ``(dotted path, params dict)``, so every
function here (a) is importable by path, (b) takes only primitives —
workload objects are resolved by name inside the worker — and (c) is
deterministic given its parameters.  ``trial=0`` means the unperturbed
calibration cost model, matching :func:`repro.experiments.runner.trial_costs`.

The last few functions are fault-injection and load helpers used by the
fleet's own tests and benchmarks.
"""

from __future__ import annotations

import os
import time

from repro.experiments.fidelity_study import (
    measure_map,
    measure_speech,
    measure_video,
    measure_web,
)
from repro.experiments.runner import trial_costs
from repro.workloads import (
    clip_by_name,
    image_by_name,
    map_by_name,
    utterance_by_name,
)

__all__ = [
    "video_energy",
    "speech_energy",
    "map_energy",
    "web_energy",
    "run_figure",
    "seeded_value",
    "sleep_for",
    "always_fail",
    "fail_until_marker",
    "die_once_then",
]


def video_energy(clip, config, trial=0, spread=0.03):
    """Energy (J) to play the named clip under a Figure 6 config."""
    costs = trial_costs(trial, spread=spread)
    return measure_video(clip_by_name(clip), config, costs=costs)


def speech_energy(utterance, config, trial=0, spread=0.03):
    """Energy (J) to recognize the named utterance (Figure 8 config)."""
    costs = trial_costs(trial, spread=spread)
    return measure_speech(utterance_by_name(utterance), config, costs=costs)


def map_energy(city, config, think_time_s=5.0, trial=0, spread=0.03):
    """Energy (J) to fetch and view the named map (Figure 10 config)."""
    costs = trial_costs(trial, spread=spread)
    return measure_map(
        map_by_name(city), config, think_time_s=think_time_s, costs=costs
    )


def web_energy(image, config, think_time_s=5.0, trial=0, spread=0.03):
    """Energy (J) to fetch and view the named image (Figure 13 config)."""
    costs = trial_costs(trial, spread=spread)
    return measure_web(
        image_by_name(image), config, think_time_s=think_time_s, costs=costs
    )


def run_figure(name):
    """Regenerate one paper figure's CSV bundle: ``{stem: csv_text}``."""
    from repro.experiments.figures import FIGURES

    try:
        figure_fn = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: {sorted(FIGURES)}"
        ) from None
    return dict(figure_fn())


# ----------------------------------------------------------------------
# fault-injection and load helpers (tests, benchmarks, examples)
# ----------------------------------------------------------------------
def seeded_value(seed, scale=1.0):
    """A deterministic pseudo-random float — pure function of ``seed``."""
    import random

    return random.Random(seed).random() * scale


def sleep_for(seconds, value=None):
    """Block for wall-clock ``seconds`` (I/O-shaped load); returns ``value``."""
    time.sleep(seconds)
    return seconds if value is None else value


def always_fail(message="injected fault"):
    """A task that deterministically crashes."""
    raise RuntimeError(message)


def fail_until_marker(marker, value=1.0):
    """Fail on the first attempt, succeed once ``marker`` exists.

    The marker file carries the "already failed once" state across
    worker processes, making retry behaviour testable.
    """
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("failed once\n")
        raise RuntimeError("transient fault (first attempt)")
    return value


def die_once_then(marker, fn, **params):
    """Kill the whole worker process on the first attempt, then compute.

    Unlike :func:`fail_until_marker` (which raises and lets the worker
    report the error), this calls ``os._exit`` — the worker vanishes
    mid-task without a completion message, exactly the failure the
    service's heartbeat/reclaim machinery exists for.  Once the marker
    exists, later attempts run the named library function normally, so
    a reclaimed-and-retried task still produces its real value.
    """
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("died once\n")
        os._exit(17)
    from repro.fleet.spec import resolve_callable

    return resolve_callable(fn)(**params)
