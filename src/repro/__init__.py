"""repro: a reproduction of *Energy-aware adaptation for mobile
applications* (Flinn & Satyanarayanan, SOSP 1999).

The package rebuilds the paper's full stack on a simulated substrate:

* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.hardware` — IBM ThinkPad 560X power models (Figure 4)
* :mod:`repro.powerscope` — the PowerScope energy profiler
* :mod:`repro.net` — 2 Mb/s WaveLAN link, RPC, remote servers
* :mod:`repro.core` — Odyssey: viceroy, wardens, fidelity, and
  goal-directed energy adaptation
* :mod:`repro.apps` — the four adaptive applications
* :mod:`repro.workloads` — the measurement objects and schedules
* :mod:`repro.analysis` — statistics, linear models, normalization
* :mod:`repro.experiments` — every figure/table of the evaluation

Quickstart
----------
>>> from repro.experiments import build_goal_rig, run_goal_experiment
>>> result = run_goal_experiment(goal_seconds=400.0, initial_energy=6000.0)
>>> result.goal_met
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "sim",
    "hardware",
    "powerscope",
    "net",
    "core",
    "apps",
    "workloads",
    "analysis",
    "experiments",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {})
