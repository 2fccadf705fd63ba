"""Benchmark definitions, runner, and baseline comparison.

Each benchmark is a function returning a metrics dict that includes
``seconds``: the process CPU time of one workload run, as the min over
its repeats (the noise-robust statistic).  Every repeat is a timed
region of at least 100 ms that runs a short workload back to back as
often as that takes, so one scheduler hiccup cannot dominate a
millisecond region, and time spent descheduled is not counted.
The ``calibration`` benchmark is a fixed pure-Python spin used to
normalize timings between machines: a box that runs Python 1.4x slower
runs every benchmark about 1.4x slower, so CI compares the *ratio* to
calibration rather than raw seconds.

The suite keeps only benches that isolate one layer's hot path (the
engine, the energy journal, snapshots, the tracer, the calibrator, the
exporters).  End-to-end timings of whole commands belong to
``perfbench/``, which times them without this harness.  Each bench is
one :func:`_bench` registration: its body plus the renderer of its
``detail`` column.
"""

from __future__ import annotations

import gc
import json
import math
import time

__all__ = [
    "BENCH_NAMES",
    "run_benchmarks",
    "compare",
    "render_bench_table",
    "render_comparison",
    "load_results",
]

#: Calibration spin iterations — constant across quick/full so the
#: normalization is comparable between any two result files.
_CALIBRATION_ITERS = 500_000


class _BenchSupply:
    """Unlimited supply: drains are counted but never refused."""

    def __init__(self):
        self.drained = 0.0

    def drain(self, joules):
        self.drained += joules


#: Shortest timed region, in seconds.
_MIN_REGION_S = 0.1


def _best_of(fn, repeats):
    """Time ``fn`` over ``repeats`` regions: (min s per call, last result).

    Each region calls ``fn`` back to back often enough to last at least
    :data:`_MIN_REGION_S`.  The loop count grows until a region does,
    and that sizing region is the first of the ``repeats``.
    """
    loops = 1
    per_call, result = _timed_region(fn, loops)
    while per_call * loops < _MIN_REGION_S:
        loops = max(loops + 1, math.ceil(1.25 * _MIN_REGION_S / per_call))
        per_call, result = _timed_region(fn, loops)
    best = per_call
    for _ in range(repeats - 1):
        per_call, result = _timed_region(fn, loops)
        best = min(best, per_call)
    return best, result


def _timed_region(fn, loops):
    gc.collect()
    t0 = time.process_time()
    for _ in range(loops):
        result = fn()
    return (time.process_time() - t0) / loops, result


# ----------------------------------------------------------------------
# benchmark bodies
# ----------------------------------------------------------------------
#: Sub-second benchmarks repeat at least this often: their runtime is
#: cheap but a single noisy trial would dominate a min-of-few.
_MIN_CHEAP_REPEATS = 5

#: name -> (body, detail): ``body(quick, repeats)`` returns the metrics
#: dict, ``detail(metrics)`` renders the table's detail column.
_BENCHES = {}


def _bench(name, detail):
    """Register the decorated body as benchmark ``name``."""
    def register(body):
        _BENCHES[name] = (body, detail)
        return body
    return register


@_bench("calibration", lambda m: f"{m['iterations']:,} iterations")
def bench_calibration(quick, repeats):
    def spin():
        x = 0.0
        for k in range(_CALIBRATION_ITERS):
            x += k * 1e-9
        return x

    seconds, _ = _best_of(spin, max(repeats, _MIN_CHEAP_REPEATS))
    return {"seconds": seconds, "iterations": _CALIBRATION_ITERS}


@_bench("engine_events", lambda m: f"{m['events_per_s']:,.0f} events/s")
def bench_engine_events(quick, repeats):
    """Event scheduling/dispatch throughput, with cancellation churn."""
    from repro.sim.engine import Simulator

    events = 10_000 if quick else 50_000

    def run():
        sim = Simulator()
        fired = [0]

        def cb(_t):
            fired[0] += 1

        entries = []
        for k in range(events):
            entries.append(sim.schedule((k % 97) * 1e-3, cb))
        # Cancel a tenth of them: exercises the tombstone path the
        # samplers rely on when they stop.
        for k in range(0, events, 10):
            sim.cancel(entries[k])
        sim.run()
        return fired[0]

    seconds, fired = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "events": events,
        "events_per_s": events / seconds if seconds else 0.0,
        "fired": fired,
    }


@_bench("machine_advance",
        lambda m: f"{m['advances_per_s']:,.0f} advances/s")
def bench_machine_advance(quick, repeats):
    """Energy integration: journal merge on the hot path, folds at the end.

    Advances far outnumber state changes (as in real runs, where the
    online monitor polls between context switches), so most iterations
    extend the open segment in place; every eighth toggles the CPU and
    opens a new one.  The clock is moved directly — the engine's own
    cost is measured by ``engine_events``.
    """
    from repro.hardware.component import PowerComponent
    from repro.hardware.machine import Machine
    from repro.sim.engine import Simulator

    steps = 5_000 if quick else 40_000

    def run():
        sim = Simulator()
        machine = Machine(sim, supply=_BenchSupply(), voltage=16.0)
        cpu = machine.attach(
            PowerComponent("cpu", {"idle": 1.0, "busy": 4.0}, "idle")
        )
        busy = False
        for k in range(steps):
            sim.now += 0.01
            if k % 8 == 0:
                busy = not busy
                cpu.set_state("busy" if busy else "idle")
            else:
                machine.advance()
        machine.advance()
        # Force the fold so its cost is inside the measurement.
        return machine.energy_by_process, machine.energy_total

    seconds, (_, energy_total) = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "advances": steps,
        "advances_per_s": steps / seconds if seconds else 0.0,
        "energy_total": energy_total,
    }


@_bench("machine_compute",
        lambda m: f"{m['bursts_per_s']:,.0f} bursts/s")
def bench_machine_compute(quick, repeats):
    """CPU bursts through the engine on the calibrated 560X.

    Two processes run FIFO compute bursts with think time between, so
    some grants queue and some are immediate.  Every burst pushes and
    pops its context and turns the CPU busy and idle, each change
    re-summing five components and the superlinear correction.  As on
    the figures workload, every advance opens a new segment; none
    extends one (``machine_advance`` times that merge).
    """
    from repro.hardware.thinkpad560x import build_machine
    from repro.sim.engine import Simulator

    bursts = 2_000 if quick else 16_000

    def run():
        sim = Simulator()
        machine = build_machine(sim)

        def worker(process, think):
            for k in range(bursts // 2):
                yield from machine.compute(0.002 + 0.001 * (k % 3), process)
                yield sim.timeout(think)

        sim.spawn(worker("app-a", 0.003))
        sim.spawn(worker("app-b", 0.0045))
        sim.run()
        return machine.finish(), machine.power_span_id()

    seconds, (energy_total, segments) = _best_of(
        run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "bursts": bursts,
        "bursts_per_s": bursts / seconds if seconds else 0.0,
        "segments": segments,
        "energy_total": energy_total,
    }


@_bench("tracer_overhead", lambda m: (
    f"disabled {m['disabled_s']:.3f}s / enabled {m['enabled_s']:.3f}s "
    f"({m['enabled_ratio']:.2f}x when recording)"))
def bench_tracer_overhead(quick, repeats):
    """Cost of the disabled tracer on the engine + accounting hot paths.

    Runs the same scheduling/dispatch/advance workload twice: with the
    default null tracer (what every untraced run pays — the gated
    ``is not None`` checks) and with a recording :class:`Tracer`
    installed.  ``seconds`` is the *disabled* time: the overhead
    contract says instrumentation must cost (almost) nothing when off,
    and CI gates this benchmark at 3 % instead of the global threshold
    (see :data:`PER_BENCH_MAX_REGRESSION`).
    """
    from repro.hardware.component import PowerComponent
    from repro.hardware.machine import Machine
    from repro.obs.tracer import Tracer, installed
    from repro.sim.engine import Simulator

    steps = 5_000 if quick else 40_000

    def run():
        sim = Simulator()
        machine = Machine(sim, supply=_BenchSupply(), voltage=16.0)
        cpu = machine.attach(
            PowerComponent("cpu", {"idle": 1.0, "busy": 4.0}, "idle")
        )

        def toggle(k):
            def cb(_t):
                cpu.set_state("busy" if k % 2 else "idle")
            return cb

        for k in range(steps):
            sim.schedule(k * 1e-3, toggle(k) if k % 8 == 0
                         else (lambda _t: machine.advance()))
        sim.run()
        return machine.finish()

    disabled_s, _ = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))

    def traced():
        with installed(Tracer()):
            return run()

    enabled_s, _ = _best_of(traced, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        # `seconds` is the disabled-path time: the 3 % CI gate watches
        # the cost instrumentation adds to *untraced* runs.
        "seconds": disabled_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_ratio": enabled_s / disabled_s if disabled_s else 0.0,
        "steps": steps,
    }


@_bench("snapshot_capture", lambda m: (
    f"{m['captures_per_s']:,.0f} captures/s "
    f"({m['payload_objects']} objects, {m['payload_events']} events)"))
def bench_snapshot_capture(quick, repeats):
    """Cost of checkpointing the whole pulse stack mid-run.

    Capture serializes the full journal into the flat payload.  No
    lookahead run captures (lanes fold every what-if without forking);
    this times the `snapshot` CLI and warm-started sweeps.
    """
    from repro.snapshot.scenario import build_pulse_scenario
    from repro.snapshot.state import Snapshot

    count = 200 if quick else 1_000
    scenario = build_pulse_scenario().start().run(until=120.0)

    def run():
        snap = None
        for _ in range(count):
            snap = Snapshot.capture(scenario.sim)
        return snap

    seconds, snap = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "captures": count,
        "captures_per_s": count / seconds if seconds else 0.0,
        "payload_events": len(snap.payload["events"]),
        "payload_objects": len(snap.payload["states"]),
    }


@_bench("snapshot_restore",
        lambda m: f"{m['restores_per_s']:,.0f} restores/s")
def bench_snapshot_restore(quick, repeats):
    """Cost of rebuilding a full branch stack from one snapshot.

    Restore rebuilds the machine, journal, controller, and event heap
    from the payload — every fork and every warm start from the disk
    store.  Like capture, it is off the lookahead hot path.
    """
    from repro.snapshot.scenario import build_pulse_scenario
    from repro.snapshot.state import Snapshot

    count = 20 if quick else 100
    scenario = build_pulse_scenario().start().run(until=120.0)
    snap = Snapshot.capture(scenario.sim)

    def run():
        branch = None
        for _ in range(count):
            branch = snap.restore()
        return branch

    seconds, _ = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "restores": count,
        "restores_per_s": count / seconds if seconds else 0.0,
    }


@_bench("calibrator_fit", lambda m: (
    f"{m['fits']} fits over {m['readings']} readings, "
    f"{m['fits_per_s']:,.0f} fits/s, max err {m['max_error']:.2%}"))
def bench_calibrator_fit(quick, repeats):
    """One learned-model goal run on a miscalibrated device.

    Times the whole gauge → fold → sliding-window refit stack: at a
    0.5 s gauge period the calibrator refits twice a second, so the
    run's cost is dominated by the normal-equation solves.  Also
    reports the fit quality so a perf "win" that breaks convergence is
    visible in the detail column.
    """
    from repro.devices import DeviceProfile
    from repro.snapshot.scenario import build_pulse_scenario

    goal, energy = (120.0, 1_400.0) if quick else (300.0, 3_500.0)
    true_multipliers = {"platform": 1.15, "codec": 0.85, "radio": 1.2}
    device = DeviceProfile("bench-rig", multipliers=true_multipliers,
                           gauge_period=0.5, gauge_resolution_w=0.01)

    def run():
        scenario = build_pulse_scenario(
            goal_seconds=goal, initial_energy=energy,
            learned_model=True, device=device)
        scenario.start()
        scenario.run()
        return scenario.calibrator

    seconds, calibrator = _best_of(run, repeats)
    errors = calibrator.model.error_vs(true_multipliers)
    return {
        "seconds": seconds,
        "readings": calibrator.readings,
        "fits": calibrator.fits,
        "fits_per_s": calibrator.fits / seconds if seconds else 0.0,
        "max_error": max(errors.values()),
    }


@_bench("trace_export", lambda m: (
    f"{m['events']:,} events -> {m['events_per_s']:,.0f} events/s, "
    f"{m['joins_resolved']}/{m['joins_total']} joins resolved"))
def bench_trace_export(quick, repeats):
    """Export one pre-recorded goal trace: JSONL, Chrome trace, join.

    The goal run is traced once, untimed, under a frozen wall clock, so
    the timed region is only what ``repro trace goal`` spends after the
    simulation: the JSONL log, the validated Chrome trace, and the
    event↔energy join with its summary.
    """
    import os
    import tempfile

    from repro.experiments import run_goal_experiment
    from repro.obs import Tracer, installed
    from repro.obs.export import (join_power, join_summary,
                                  write_chrome_trace, write_events_jsonl)

    goal, energy = (60.0, 900.0) if quick else (197.0, 3_000.0)
    tracer = Tracer(clock=lambda: 0.0)
    with installed(tracer):
        run_goal_experiment(goal, initial_energy=energy)
        tracer.flush()
    events = list(tracer.events)

    with tempfile.TemporaryDirectory() as out_dir:
        prefix = os.path.join(out_dir, "goal")

        def export():
            write_events_jsonl(events, prefix + ".jsonl")
            trace_events = write_chrome_trace(events, prefix + ".trace.json")
            return trace_events, join_summary(join_power(events))

        seconds, (trace_events, join) = _best_of(
            export, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "events": len(events),
        "events_per_s": len(events) / seconds if seconds else 0.0,
        "trace_events": trace_events,
        "joins_resolved": join["resolved"],
        "joins_total": join["total"],
    }


BENCH_NAMES = tuple(_BENCHES)


def run_benchmarks(quick=False, only=None, repeats=None):
    """Run the suite; returns the result dict (the ``BENCH_core.json`` shape).

    ``quick`` shrinks every workload for CI smoke use; ``only`` limits
    the suite by substring: each token selects every benchmark whose
    name contains it (``only=["snapshot"]`` runs both snapshot benches;
    an exact name still selects just itself).  Calibration always runs,
    since comparison needs it.  ``repeats`` overrides the default
    repeat count (1 quick, 3 full); the reported time is the min over
    repeats.
    """
    if repeats is None:
        repeats = 1 if quick else 3
    if not only:
        selected = list(BENCH_NAMES)
    else:
        selected = []
        for token in only:
            matches = [name for name in BENCH_NAMES if token in name]
            if not matches:
                raise ValueError(
                    f"no benchmark matches {token!r}; "
                    f"choose from {BENCH_NAMES}"
                )
            for name in matches:
                if name not in selected:
                    selected.append(name)
    if "calibration" not in selected:
        selected.insert(0, "calibration")
    benches = {}
    for name in selected:
        benches[name] = _BENCHES[name][0](quick, repeats)
    return {"version": 1, "quick": bool(quick), "repeats": repeats,
            "benches": benches}


def load_results(path):
    """Read a results file previously written by the CLI."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# baseline comparison
# ----------------------------------------------------------------------
#: Benchmarks with a tighter regression limit than the global
#: ``--max-regression``.  The disabled-tracer path is an explicit
#: overhead contract (see repro.obs.tracer), so its budget is 3 %.
PER_BENCH_MAX_REGRESSION = {
    "tracer_overhead": 0.03,
}


def compare(current, baseline, max_regression=0.25):
    """Compare a current run against a baseline run.

    Returns ``(rows, failures)``.  Each row is a dict with the raw and
    calibration-normalized ratio for one benchmark present in both
    files; ``failures`` is a list of human-readable strings, empty when
    the current run is acceptable.  A benchmark fails when its
    normalized time exceeds the baseline by more than
    ``max_regression`` (a fraction, 0.25 = 25 %); benchmarks listed in
    :data:`PER_BENCH_MAX_REGRESSION` use their tighter limit instead.
    """
    failures = []
    cur_benches = current.get("benches", {})
    base_benches = baseline.get("benches", {})
    per_bench = PER_BENCH_MAX_REGRESSION
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        failures.append(
            "quick/full mismatch: current quick="
            f"{bool(current.get('quick'))} vs baseline quick="
            f"{bool(baseline.get('quick'))} — workloads are not comparable"
        )
    cur_cal = cur_benches.get("calibration", {}).get("seconds")
    base_cal = base_benches.get("calibration", {}).get("seconds")
    if not cur_cal or not base_cal:
        failures.append("missing calibration benchmark; cannot normalize")
        scale = 1.0
    else:
        scale = cur_cal / base_cal
    rows = []
    for name, base in base_benches.items():
        if name == "calibration" or name not in cur_benches:
            continue
        base_s = base.get("seconds")
        cur_s = cur_benches[name].get("seconds")
        if not base_s or cur_s is None:
            continue
        ratio = cur_s / (base_s * scale)
        limit = min(max_regression, per_bench.get(name, max_regression))
        regressed = ratio > 1.0 + limit
        rows.append({
            "name": name,
            "baseline_s": base_s,
            "current_s": cur_s,
            "normalized_ratio": ratio,
            "regressed": regressed,
            "limit": limit,
        })
        if regressed:
            failures.append(
                f"{name}: {ratio:.2f}x the baseline after calibration "
                f"(limit {1.0 + limit:.2f}x)"
            )
    return rows, failures


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_bench_table(results):
    """ASCII table of one run's timings."""
    from repro.analysis import render_table

    rows = [
        [name, f"{metrics['seconds']:.4f}", _BENCHES[name][1](metrics)]
        for name, metrics in results["benches"].items()
    ]
    mode = "quick" if results.get("quick") else "full"
    return render_table(
        ["benchmark", "seconds (min)", "detail"], rows,
        title=f"repro bench — {mode} mode, {results.get('repeats', 1)} repeat(s)",
    )


def render_comparison(rows, max_regression=0.25):
    """ASCII table of a baseline comparison."""
    from repro.analysis import render_table

    table = [
        [
            row["name"],
            f"{row['baseline_s']:.4f}",
            f"{row['current_s']:.4f}",
            f"{row['normalized_ratio']:.2f}x",
            f"{1.0 + row.get('limit', max_regression):.2f}x",
            "REGRESSED" if row["regressed"] else "ok",
        ]
        for row in rows
    ]
    return render_table(
        ["benchmark", "baseline s", "current s", "normalized", "limit",
         "status"],
        table,
        title=f"vs baseline (default fail above {1.0 + max_regression:.2f}x)",
    )
