"""Micro-benchmark harness for the reproduction's hot paths.

``python -m repro bench`` times the layer-isolating hot paths (the
discrete-event engine, the machine's segment-journal energy accounting,
snapshot capture/restore/fork, the disabled tracer, the calibrator fit
and the trace exporters), writing the results to ``BENCH_core.json``.
A committed baseline plus ``--compare`` turns the same harness into a
CI smoke check that fails on large regressions (normalized by a
pure-Python calibration spin so differently-sized machines compare
fairly).  Whole-command timings live in ``perfbench/``.
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
