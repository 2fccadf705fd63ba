"""Micro-benchmark harness for the reproduction's hot paths.

``python -m repro bench`` times the discrete-event engine, the
machine's segment-journal energy accounting, a figure cell, and the
Figure 22 long-duration run under the eager and lazy PowerScope
samplers, writing the results to ``BENCH_core.json``.  A committed
baseline plus ``--compare`` turns the same harness into a CI smoke
check that fails on large regressions (normalized by a pure-Python
calibration spin so differently-sized machines compare fairly).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BENCH_NAMES",
    "compare",
    "render_bench_table",
    "render_comparison",
    "run_benchmarks",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bench": ("BENCH_NAMES", "compare", "render_bench_table",
              "render_comparison", "run_benchmarks"),
})
