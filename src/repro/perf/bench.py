"""Benchmark definitions, runner, and baseline comparison.

Each benchmark is a function returning a metrics dict that includes
``seconds`` (the min over its repeats — the noise-robust statistic).
The ``calibration`` benchmark is a fixed pure-Python spin used to
normalize timings between machines: a box that runs Python 1.4x slower
runs every benchmark about 1.4x slower, so CI compares the *ratio* to
calibration rather than raw seconds.

The headline benchmark is ``fig22_longduration``: the Figure 22 bursty
goal-directed run with a 600 Hz PowerScope collection attached, timed
under both the eager (one simulator event per sample) and lazy
(segment-journal fold) samplers.  It also asserts the two modes produce
bit-identical profiles, so the speedup is never bought with accuracy.
"""

from __future__ import annotations

import gc
import json
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


def _best_of(fn, repeats):
    """Run ``fn`` ``repeats`` times; return (min seconds, last result)."""
    best = None
    result = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


# ----------------------------------------------------------------------
# benchmark bodies
# ----------------------------------------------------------------------
#: Sub-second benchmarks repeat at least this often: their runtime is
#: cheap but a single noisy trial would dominate a min-of-few.
_MIN_CHEAP_REPEATS = 5


def bench_calibration(quick, repeats):
    def spin():
        x = 0.0
        for k in range(_CALIBRATION_ITERS):
            x += k * 1e-9
        return x

    seconds, _ = _best_of(spin, max(repeats, _MIN_CHEAP_REPEATS))
    return {"seconds": seconds, "iterations": _CALIBRATION_ITERS}


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


def bench_figure_cell(quick, repeats):
    """One fidelity-study cell: Figure 6 video at the combined config."""
    from repro.experiments.fidelity_study import measure_video
    from repro.workloads.videos import VIDEO_CLIPS

    clip = VIDEO_CLIPS[0]

    def run():
        return measure_video(clip, "combined")

    seconds, joules = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {"seconds": seconds, "clip": clip.name, "joules": joules}


def bench_fig22_longduration(quick, repeats):
    """Figure 22 bursty run with 600 Hz profiling: eager vs lazy sampler.

    Full mode uses the tier-2 benchmark's real trial parameters
    (1980 s goal extended by 360 s at t=720 s), where the eager sampler
    schedules and materializes ~1.4 million sample pairs; quick mode
    shrinks the goal so CI stays fast, which also shrinks the reported
    speedup (the fixed 60 s calibration probe dilutes a short run).
    """
    from repro.experiments.goal_study import run_bursty_experiment

    goal = 90.0 if quick else 1980.0
    extension = (30.0, 30.0) if quick else (720.0, 360.0)
    # The full-mode trial pair costs ~30 s; cap repeats to keep the
    # suite around a minute.
    repeats = repeats if quick else min(repeats, 2)

    def run(eager):
        return run_bursty_experiment(
            seed=1, goal_seconds=goal, extension=extension,
            profile_rate_hz=600.0, profile_eager=eager,
        )

    eager_s, eager_result = _best_of(lambda: run(True), repeats)
    lazy_s, lazy_result = _best_of(lambda: run(False), repeats)
    identical = (
        eager_result.profile.as_table() == lazy_result.profile.as_table()
    )
    return {
        # `seconds` is the lazy (default-path) time: that is what a
        # regression against the baseline should watch.
        "seconds": lazy_s,
        "eager_s": eager_s,
        "lazy_s": lazy_s,
        "speedup": eager_s / lazy_s if lazy_s else 0.0,
        "tables_identical": identical,
        "samples": lazy_result.profile.sample_count,
        "goal_seconds": goal,
    }


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


def bench_snapshot_capture(quick, repeats):
    """Cost of checkpointing the whole pulse stack mid-run.

    Capture is the hot half of lookahead (every non-hold proposal pays
    one capture), so it must stay cheap relative to a decision period.
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


def bench_snapshot_restore(quick, repeats):
    """Cost of rebuilding a full branch stack from one snapshot.

    Restore rebuilds the machine, journal, controller, and event heap
    from the payload — the other half of every lookahead fork and the
    warm-start path of fleet sweeps.
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


def bench_fork_branch(quick, repeats):
    """Pooled branch forking: the lookahead evaluator's steady state.

    Captures once, then restores into a recycled scenario over and over
    — no builder, no allocation churn.  This is the per-branch floor
    the what-if evaluator and the beam planner pay.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import NULL_TRACER
    from repro.snapshot.scenario import build_pulse_scenario
    from repro.snapshot.state import Snapshot

    count = 500 if quick else 3_000
    scenario = build_pulse_scenario().start().run(until=120.0)
    snap = Snapshot.capture(scenario.sim)
    pooled = snap.fork(lookahead=False, tracer=NULL_TRACER,
                       metrics=MetricsRegistry())

    def run():
        for _ in range(count):
            snap.fork(reuse=pooled)
        return pooled

    seconds, _ = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "forks": count,
        "forks_per_s": count / seconds if seconds else 0.0,
    }


def bench_cow_capture_scaling(quick, repeats):
    """Capture cost vs journal length: the copy-on-write contract.

    Builds two machines whose journals differ ~8x in segment count and
    times repeated captures of each.  With the sealed-prefix journal
    the first capture pays O(journal) once to seal it; every later
    capture copies only the open tail, so the per-capture ratio between
    the two journals should sit near 1.0 (sublinear in length), where a
    full-copy capture would sit near 8.
    """
    from repro.snapshot.scenario import build_pulse_scenario
    from repro.snapshot.state import Snapshot

    captures = 200 if quick else 1_000
    short_until, long_until = (30.0, 240.0) if quick else (30.0, 250.0)

    def timed_captures(until):
        scenario = build_pulse_scenario(
            goal_seconds=300.0, initial_energy=20_000.0,
        ).start().run(until=until)
        segments = len(scenario.machine._journal)
        # First capture seals the closed prefix (the one-time O(n)).
        Snapshot.capture(scenario.sim)

        def run():
            snap = None
            for _ in range(captures):
                snap = Snapshot.capture(scenario.sim)
            return snap

        seconds, _ = _best_of(run, max(repeats, _MIN_CHEAP_REPEATS))
        return seconds / captures, segments

    short_s, short_segments = timed_captures(short_until)
    long_s, long_segments = timed_captures(long_until)
    ratio = long_s / short_s if short_s else 0.0
    return {
        # `seconds` is the long-journal per-capture time — the one the
        # COW change is supposed to keep flat.
        "seconds": long_s,
        "short_segments": short_segments,
        "long_segments": long_segments,
        "short_capture_s": short_s,
        "long_capture_s": long_s,
        "scaling_ratio": ratio,
        "length_ratio": (
            long_segments / short_segments if short_segments else 0.0
        ),
    }


def bench_fork_lookahead(quick, repeats):
    """One full lookahead-policy goal run: fork + branch-advance bound.

    The dominant cost is the per-decision what-if evaluation (capture,
    two forks, two horizon advances); ``branches_per_s`` is the
    end-to-end throughput including the parent's own simulation.
    """
    from repro.snapshot.scenario import run_pulse_goal

    goal, energy = (90.0, 780.0) if quick else (290.0, 2_400.0)

    def run():
        return run_pulse_goal(goal_seconds=goal, initial_energy=energy,
                              lookahead=True)

    seconds, summary = _best_of(run, repeats)
    look = summary["lookahead"]
    return {
        "seconds": seconds,
        "branches": look["branches_run"],
        "branches_per_s": (
            look["branches_run"] / seconds if seconds else 0.0
        ),
        "evaluations": look["evaluations"],
        "goal_met": summary["goal_met"],
    }


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


def bench_fleet_matrix_fold(quick, repeats):
    """Fold + canonical-serialize a large synthetic fleet matrix.

    The fold is the serial tail of every fleet sweep (workers return
    rows; one process folds and byte-stabilizes the document), so its
    cost bounds how large a fleet the sweep scales to.  Rows are
    synthetic and deterministic — this isolates the fold from the
    simulations that produce real rows.
    """
    from repro.devices import DeviceProfile
    from repro.fleet.diffmatrix import PolicyMatrix

    n_devices = 100 if quick else 400
    policies = ("baseline", "hysteresis=off", "lookahead=on",
                "hysteresis=off,lookahead=on")
    devices = [DeviceProfile(f"dev{k:03d}").to_dict()
               for k in range(n_devices)]
    rows = []
    for k, device in enumerate(devices):
        for p, policy in enumerate(policies):
            diverged = policy != "baseline" and (k + p) % 3 == 0
            rows.append({
                "policy": policy,
                "device": device["device_id"],
                "identical": not diverged,
                "windows": (k + p) % 5 if diverged else 0,
                "energy_delta_j": ((k * 7 + p * 13) % 100 - 50) / 10.0
                if diverged else 0.0,
                "energy_total_j": 900.0 + k + p,
                "goal_met": (k + p) % 7 != 0,
                "shape_distance": ((k + p) % 10) / 100.0,
                "first_divergence_did": k + p if diverged else None,
            })

    def fold():
        matrix = PolicyMatrix("bench", {}, {}, rows, devices=devices)
        return len(matrix.document())

    seconds, document_bytes = _best_of(
        fold, max(repeats, _MIN_CHEAP_REPEATS))
    return {
        "seconds": seconds,
        "rows": len(rows),
        "rows_per_s": len(rows) / seconds if seconds else 0.0,
        "document_bytes": document_bytes,
    }


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


_BENCHES = {
    "calibration": bench_calibration,
    "engine_events": bench_engine_events,
    "machine_advance": bench_machine_advance,
    "figure_cell": bench_figure_cell,
    "fig22_longduration": bench_fig22_longduration,
    "tracer_overhead": bench_tracer_overhead,
    "snapshot_capture": bench_snapshot_capture,
    "snapshot_restore": bench_snapshot_restore,
    "fork_branch": bench_fork_branch,
    "cow_capture_scaling": bench_cow_capture_scaling,
    "fork_lookahead": bench_fork_lookahead,
    "calibrator_fit": bench_calibrator_fit,
    "fleet_matrix_fold": bench_fleet_matrix_fold,
    "trace_export": bench_trace_export,
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
        benches[name] = _BENCHES[name](quick, repeats)
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


def compare(current, baseline, max_regression=0.25, min_speedup=None):
    """Compare a current run against a baseline run.

    Returns ``(rows, failures)``.  Each row is a dict with the raw and
    calibration-normalized ratio for one benchmark present in both
    files; ``failures`` is a list of human-readable strings, empty when
    the current run is acceptable.  A benchmark fails when its
    normalized time exceeds the baseline by more than
    ``max_regression`` (a fraction, 0.25 = 25 %); benchmarks listed in
    :data:`PER_BENCH_MAX_REGRESSION` use their tighter limit instead.
    ``min_speedup`` additionally enforces a floor on the fig22
    eager/lazy speedup, and the fig22 bit-identity flag must hold
    whenever that benchmark ran.
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
    fig22 = cur_benches.get("fig22_longduration")
    if fig22 is not None:
        if not fig22.get("tables_identical", True):
            failures.append(
                "fig22_longduration: lazy profile diverged from eager"
            )
        if min_speedup is not None and fig22.get("speedup", 0.0) < min_speedup:
            failures.append(
                f"fig22_longduration: speedup {fig22.get('speedup', 0.0):.2f}x "
                f"below the {min_speedup:.2f}x floor"
            )
    return rows, failures


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _detail(name, metrics):
    if name == "engine_events":
        return f"{metrics['events_per_s']:,.0f} events/s"
    if name == "machine_advance":
        return f"{metrics['advances_per_s']:,.0f} advances/s"
    if name == "figure_cell":
        return f"{metrics['clip']}: {metrics['joules']:.1f} J"
    if name == "fig22_longduration":
        flag = "identical" if metrics["tables_identical"] else "DIVERGED"
        return (f"eager {metrics['eager_s']:.3f}s / lazy "
                f"{metrics['lazy_s']:.3f}s = {metrics['speedup']:.2f}x, "
                f"profiles {flag}")
    if name == "tracer_overhead":
        return (f"disabled {metrics['disabled_s']:.3f}s / enabled "
                f"{metrics['enabled_s']:.3f}s "
                f"({metrics['enabled_ratio']:.2f}x when recording)")
    if name == "calibration":
        return f"{metrics['iterations']:,} iterations"
    if name == "snapshot_capture":
        return (f"{metrics['captures_per_s']:,.0f} captures/s "
                f"({metrics['payload_objects']} objects, "
                f"{metrics['payload_events']} events)")
    if name == "snapshot_restore":
        return f"{metrics['restores_per_s']:,.0f} restores/s"
    if name == "fork_branch":
        return f"{metrics['forks_per_s']:,.0f} pooled forks/s"
    if name == "cow_capture_scaling":
        return (f"{metrics['length_ratio']:.1f}x segments -> "
                f"{metrics['scaling_ratio']:.2f}x capture time "
                f"({metrics['long_segments']} segments, "
                f"{metrics['long_capture_s'] * 1e6:.0f} us/capture)")
    if name == "fork_lookahead":
        return (f"{metrics['branches']} branches, "
                f"{metrics['branches_per_s']:,.0f}/s")
    if name == "calibrator_fit":
        return (f"{metrics['fits']} fits over {metrics['readings']} "
                f"readings, {metrics['fits_per_s']:,.0f} fits/s, "
                f"max err {metrics['max_error']:.2%}")
    if name == "fleet_matrix_fold":
        return (f"{metrics['rows']} rows -> "
                f"{metrics['rows_per_s']:,.0f} rows/s "
                f"({metrics['document_bytes']:,} bytes)")
    if name == "trace_export":
        return (f"{metrics['events']:,} events -> "
                f"{metrics['events_per_s']:,.0f} events/s, "
                f"{metrics['joins_resolved']}/{metrics['joins_total']} "
                f"joins resolved")
    return ""


def render_bench_table(results):
    """ASCII table of one run's timings."""
    from repro.analysis import render_table

    rows = [
        [name, f"{metrics['seconds']:.4f}", _detail(name, metrics)]
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
