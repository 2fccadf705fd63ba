"""repro.obs — structured tracing, metrics, and trace export.

The observability layer for the reproduction: a low-overhead event
tracer instrumented into the sim engine, the Odyssey core, PowerScope,
and the fleet; a metrics registry of counters/gauges/histograms; and
exporters producing JSONL event logs, Perfetto-loadable Chrome trace
JSON, and metrics snapshots.  See docs/architecture.md ("Observability")
for the design, the overhead contract, and the event↔energy join.

Quick use::

    from repro.obs import Tracer, installed
    from repro.obs.export import write_chrome_trace

    tracer = Tracer()
    with installed(tracer):              # every sim built here is traced
        result = run_goal_experiment(400.0, initial_energy=6000.0)
    tracer.flush()
    write_chrome_trace(tracer.events, "goal.trace.json")

or from the command line::

    python -m repro trace goal --out traces/goal
"""

from repro._lazy import lazy_exports

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "install",
    "uninstall",
    "installed",
    "current_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_metrics",
    "set_metrics",
    "SignatureDiff",
    "SignatureError",
    "compute_signature",
    "diff_signatures",
    "verify_signature",
    "read_signature",
    "write_signature",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "current_metrics", "set_metrics"),
    "signature": ("SignatureDiff", "SignatureError", "compute_signature",
                  "diff_signatures", "read_signature", "verify_signature",
                  "write_signature"),
    "tracer": ("NULL_TRACER", "JsonlSink", "NullTracer", "TraceEvent",
               "Tracer", "current_tracer", "install", "installed",
               "uninstall"),
})
