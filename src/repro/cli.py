"""Command-line interface: ``python -m repro <command>``.

Lets a user regenerate any of the paper's experiments without writing
code:

* ``python -m repro fig06|fig08|fig10|fig13`` — print a figure's table
* ``python -m repro goal --energy 6000 --goal 400`` — one goal run
  with an ASCII supply/demand chart
* ``python -m repro profile --seconds 20`` — a PowerScope profile
* ``python -m repro report`` — headline results vs the paper's bands
* ``python -m repro export-figures DIR`` — every figure's plot data
  as CSV
* ``python -m repro sweep --jobs 4 --trials 5`` — the fidelity studies
  as one parallel, cached fleet campaign
* ``python -m repro diff a.jsonl b.jsonl`` — decision divergence and
  per-window energy deltas between two traced runs
* ``python -m repro snapshot roundtrip|sweep|gc`` — fork-determinism
  check, the warm-started goal-extension sweep, and store pruning
* ``python -m repro bench`` — hot-path micro-benchmarks; with
  ``--compare BENCH_core.json`` a CI regression gate
* ``python -m repro serve`` — start the persistent campaign service
  (warm worker pool + shared cache, local HTTP)
* ``python -m repro submit|status|result|queues`` — client verbs
  against a running service

Commands that run many independent simulations take ``--jobs N`` to
execute them on the fleet's process pool (see ``repro.fleet``).

Pass ``--csv PATH`` where supported to also write machine-readable
output.

The flag table: every flag two commands share is declared once in
``_FLAGS`` (type or validator, default, metavar, help) and a command
adds it by name, passing only what it says differently.  ``_MODES``
names, for each command with modes, the modes that read each flag and
the flags a flag or mode needs; :func:`_check_flags` refuses, before
the command runs, every given flag its mode does not read and every
flag given without the one it needs.  A flag counts as given when its
value differs from its declared default, so a flag only some modes
read defaults to ``None`` and the command resolves the real default.
Every file goes through :func:`_write`, and every refusal is a
:class:`_UsageError`: one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from repro.analysis import render_table
from repro.analysis.export import energy_table_csv, timeline_csv
from repro.service.client import DEFAULT_ENDPOINT

__all__ = ["main"]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be >= 0 and finite, got {text}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _UsageError(Exception):
    """The command cannot run as asked: bad input, an unwritable path,
    an unreachable service.  ``main`` prints one ``PREFIX: message``
    line and exits 2."""

    def __init__(self, message, prefix="error"):
        super().__init__(message)
        self.prefix = prefix


@contextlib.contextmanager
def _writable(path, mkdir=False):
    """Create ``path``'s directory if asked; an OSError inside the block
    is a usage error naming ``path``."""
    try:
        if mkdir and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}"
                          ) from None


def _write(path, content, note="", mkdir=False):
    """Write one artifact and print ``wrote PATH`` (plus ``note``).

    ``content`` is the file's text, or a function that writes ``path``
    itself (the trace and metrics exporters).
    """
    with _writable(path, mkdir):
        if callable(content):
            content(path)
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(content)
    print(f"wrote {path}{note}")


def _json(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# the flag table
# ----------------------------------------------------------------------
_APPS = ("video", "speech", "map", "web")

#: Every flag more than one command takes, declared once.
_FLAGS = {
    "--jobs": dict(type=_positive_int, default=None,
                   help="worker processes (default: one per CPU)"),
    "--cache-dir": dict(default=None, help="fleet result cache directory "
                                           "(re-runs are free)"),
    "--timeout": dict(type=_positive_float, default=None,
                      help="per-task wall-clock budget in seconds"),
    "--retries": dict(type=_nonnegative_int, default=2,
                      help="extra attempts per failing task"),
    "--apps": dict(nargs="*", default=None, choices=_APPS,
                   help="subset of applications (default: all four)"),
    "--trials": dict(type=_positive_int, default=None,
                     help="jittered trials per cell (1 = calibration run)"),
    "--think": dict(type=_nonnegative_float, default=None,
                    help="think time in seconds (map/web)"),
    "--energy": dict(type=_positive_float, default=6000.0,
                     help="initial energy in joules"),
    "--goal": dict(type=_positive_float, default=None,
                   help="battery-duration goal in seconds (derived if "
                        "omitted)"),
    "--seconds": dict(type=float, default=20.0),
    "--lookahead": dict(action="store_true",
                        help="roundtrip: use the lookahead controller; "
                             "sweep: add the lookahead policy as a second "
                             "axis"),
    "--horizon": dict(type=_positive_float, default=None,
                      help="lookahead branch horizon in seconds (default "
                           "12)"),
    "--csv": dict(help="also write the table as CSV"),
    "--json": dict(default=None, metavar="PATH",
                   help="also write the diff as deterministic JSON"),
    "--out": dict(default=None, metavar="PATH",
                  help="write the raw task values as canonical JSON"),
    "--results-out": dict(default=None, metavar="PATH",
                          help="write the raw task values as canonical "
                               "JSON (byte-comparable with `repro result "
                               "--out`)"),
    "--telemetry-out": dict(default=None, metavar="PATH",
                            help="write the campaign telemetry snapshot as "
                                 "JSON"),
    "--trace": dict(default=None, metavar="PREFIX",
                    help="record a trace of the run; writes PREFIX.jsonl "
                         "and PREFIX.trace.json"),
    "--metrics-out": dict(default=None, metavar="PATH",
                          help="write the metrics snapshot as JSON"),
    "--endpoint": dict(default=DEFAULT_ENDPOINT,
                       help=f"service base URL (default {DEFAULT_ENDPOINT})"),
    "--diff-against": dict(default=None, metavar="SPEC",
                           help="run a policy diff matrix instead of the "
                                "fidelity sweep: every candidate policy "
                                "diffs against this baseline policy spec "
                                "('default', or 'key=value,...' — e.g. "
                                "'hysteresis=off,lookahead=on')"),
    "--candidate": dict(action="append", default=None, metavar="SPEC",
                        help="add a candidate policy spec (repeatable; "
                             "default: the hysteresis x lookahead grid)"),
    "--vary": dict(action="append", default=None, metavar="KEY=V1,V2",
                   help="sweep a policy key over listed values; repeat "
                        "for a cross product (e.g. --vary "
                        "hysteresis=on,off --vary horizon=6,12)"),
    "--scenario": dict(default=None, metavar="SPEC",
                       help="shared scenario params for every variant "
                            "(e.g. 'goal_seconds=120,initial_energy=1000')"),
    "--devices": dict(default=None, metavar="PATH",
                      help="fan the matrix across a device fleet read "
                           "from a calibration file (see "
                           "repro.devices.write_fleet); one row per "
                           "(device, policy) pair"),
    "--fleet-size": dict(type=_positive_int, default=None, metavar="N",
                         help="fan the matrix across N generated devices "
                              "(byte-stable per --fleet-seed) instead of a "
                              "fleet file"),
    "--fleet-seed": dict(type=int, default=None, metavar="S",
                         help="seed for --fleet-size device generation "
                              "(default 0)"),
    "--matrix-out": dict(default=None, metavar="PATH",
                         help="write the matrix as canonical JSON — "
                              "byte-identical across serial, --jobs N, "
                              "cache-warm, and service-submitted runs"),
    "--fail-on-divergence": dict(action="store_true",
                                 help="exit 1 when any candidate row "
                                      "violates the thresholds below (with "
                                      "none set: any divergence from the "
                                      "baseline at all)"),
    "--max-windows": dict(type=_nonnegative_int, default=None, metavar="N",
                          help="allow up to N divergence windows per row"),
    "--max-delta-j": dict(type=float, default=None, metavar="J",
                          help="allow up to J joules of absolute energy "
                               "delta per row"),
    "--max-shape-distance": dict(type=float, default=None, metavar="D",
                                 help="allow up to D signature shape "
                                      "distance per row"),
}

_OBS = ("--trace", "--metrics-out")
_THRESHOLDS = ("--max-windows", "--max-delta-j", "--max-shape-distance")
#: The policy-diff-matrix mode shared by sweep and submit.
_MATRIX = ("--diff-against", "--candidate", "--vary", "--scenario",
           "--devices", "--fleet-size", "--fleet-seed", "--matrix-out",
           "--fail-on-divergence", *_THRESHOLDS)
_PULSE = ("--pulse", "--lookahead", "--horizon", "--beam", "--depth",
          "--learned-model", "--drift", "--device-file", "--device-id",
          "--no-hysteresis")
_SWEEP_ONLY = ("--apps", "--trials", "--think")


def _reads(modes, *flags):
    return dict.fromkeys(flags, modes)


_MATRIX_NEEDS = {"--fleet-seed": ("--fleet-size",),
                 **_reads(("--fail-on-divergence",), *_THRESHOLDS)}

#: Command -> (its mode label of the parsed flags, each flag not every
#: mode reads -> the modes that read it, each flag or mode -> the flags
#: it needs; a need written "A or B" is met by either).  A command with
#: no entry reads every flag it takes.
_MODES = {
    "trace": (
        lambda args: f"trace {args.experiment}",
        {"--goal": ("trace goal", "trace bursty"),
         "--seed": ("trace bursty",), "--seconds": ("trace video",),
         **_reads(("trace goal",), "--energy", *_PULSE)},
        {"--device-id": ("--device-file",),
         "--horizon": ("--lookahead or --beam",)},
    ),
    "snapshot": (
        lambda args: f"snapshot {args.mode}",
        {**_reads(("snapshot gc",), "--keep-latest", "--dry-run"),
         **_reads(("snapshot roundtrip", "snapshot sweep"),
                  "--at", "--lookahead", "--horizon"),
         **_reads(("snapshot sweep",), "--extensions", "--jobs",
                  "--verify-cold", "--telemetry-out"),
         "--snapshot-dir": ("snapshot sweep", "snapshot gc")},
        {"snapshot gc": ("--snapshot-dir", "--keep-latest"),
         "--horizon": ("--lookahead",)},
    ),
    "sweep": (
        lambda args: ("sweep --diff-against" if args.diff_against is not None
                      else "sweep without --diff-against"),
        {**_reads(("sweep without --diff-against",), *_SWEEP_ONLY,
                  "--csv-dir"),
         **_reads(("sweep --diff-against",), *_MATRIX)},
        {"--worker-trace": ("--trace",), **_MATRIX_NEEDS},
    ),
    "submit": (
        lambda args: ("submit --spec" if args.spec is not None else
                      "submit --diff-against" if args.diff_against is not None
                      else "submit --sweep"),
        {**_reads(("submit --sweep",), "--sweep", *_SWEEP_ONLY),
         **_reads(("submit --diff-against",), *_MATRIX)},
        {**_reads(("--wait",), "--wait-timeout", "--results-out",
                  "--telemetry-out", "--matrix-out", "--fail-on-divergence"),
         **_MATRIX_NEEDS},
    ),
    "bench": (None, {},
              _reads(("--compare",), "--max-regression", "--confirm")),
    "report": (
        lambda args: "report --no-goal" if args.no_goal else "report",
        {"--energy": ("report",)}, {},
    ),
}


def _add(parser, *flags, **override):
    """Add shared flags by name; ``override`` is what this command says
    differently (its help sentence, or a default that really differs)."""
    for flag in flags:
        parser.add_argument(flag, **{**_FLAGS[flag], **override})


def _given(args):
    """The flags given: each whose value differs from its declared default."""
    return [flag for flag, (dest, default) in args.declared.items()
            if getattr(args, dest) != default]


def _check_flags(args):
    """Refuse a given flag the chosen mode does not read, and a flag or
    mode given without the flags it needs."""
    mode, reads, needs = _MODES.get(args.command, (None, {}, {}))
    label = mode(args) if mode else args.command
    given = _given(args)
    unread = [flag for flag in given if label not in reads.get(flag, (label,))]
    if unread:
        raise _UsageError(f"{label} does not take {', '.join(unread)}")
    for key, needed in needs.items():
        missing = [need for need in needed
                   if not any(flag in given for flag in need.split(" or "))]
        if missing and (key == label or key in given):
            raise _UsageError(f"{key} needs {', '.join(missing)}")


# ----------------------------------------------------------------------
# experiment commands
# ----------------------------------------------------------------------
def _cmd_energy_table(args):
    think = getattr(args, "think", None)
    if args.jobs not in (None, 1):
        from repro.fleet import energy_table

        table = energy_table(args.app, jobs=args.jobs, think_time_s=think)
    else:
        import repro.experiments

        table_fn = getattr(repro.experiments, f"{args.app}_energy_table")
        table = table_fn() if think is None else table_fn(think_time_s=think)
    objects = list(next(iter(table.values())))
    rows = [
        [config] + [f"{table[config][obj]:.1f}" for obj in objects]
        for config in table
    ]
    print(render_table(["config (J)"] + objects, rows, title=args.title))
    if args.csv:
        _write(args.csv, energy_table_csv(table, objects))
    return 0


def _cmd_goal(args):
    from repro.experiments import (
        derive_goals,
        fidelity_runtime_bounds,
        run_goal_experiment,
    )

    goal = args.goal
    if goal is None:
        t_hi, t_lo = fidelity_runtime_bounds(args.energy)
        goal = derive_goals(t_hi, t_lo, count=3)[1]
        print(f"fidelity bounds {t_hi:.0f}-{t_lo:.0f}s; derived goal {goal:.0f}s")
    result = run_goal_experiment(
        goal, initial_energy=args.energy, halflife_fraction=args.halflife
    )
    print(f"goal {result.goal_seconds:.0f}s: "
          f"{'MET' if result.goal_met else 'MISSED'} "
          f"(survived {result.survived_seconds:.0f}s, "
          f"residual {result.residual_energy:.0f} J)")
    print("adaptations:", result.adaptations)
    if not args.no_chart:
        from repro.analysis import ascii_chart

        series = {"supply": ([], []), "demand": ([], [])}
        for time, category, label, value, _extra in result.series:
            if category == "energy":
                series[label][0].append(time)
                series[label][1].append(value)
        supply, demand = series["supply"], series["demand"]
        if supply[0]:
            print()
            print(ascii_chart(
                [supply, demand],
                labels=["supply", "demand"],
                title="supply vs predicted demand (Figure 19 style)",
            ))
    if args.csv:
        _write(args.csv, timeline_csv(result.series))
    return 0 if result.goal_met else 1


def _cmd_calibrate(args):
    """Check headline percentages against the paper's bands."""
    from repro.experiments.calibration import (
        calibration_report,
        render_report,
        report_ok,
    )

    if args.json:
        # Refuse a missing directory before simulating four tables.
        with _writable(args.json):
            os.scandir(os.path.dirname(args.json) or ".").close()
    report = calibration_report()
    print(render_report(report))
    if args.json:
        _write(args.json, _json(report))
    return 0 if report_ok(report) else 1


def _cmd_profile(args):
    from repro.experiments import build_rig
    from repro.powerscope import profile_run, render_profile
    from repro.workloads.videos import VideoClip

    rig = build_rig(pm_enabled=not args.no_pm)
    clip = VideoClip("cli-clip", args.seconds, 12.0, 16_250)
    player = rig.apps["video"]
    rig.sim.spawn(player.play(clip))
    profile = profile_run(rig.machine, until=args.seconds, rate_hz=args.rate)
    print(render_profile(profile, detail_process="xanim"))
    return 0


def _cmd_export_figures(args):
    from repro.experiments.figures import FIGURES, figure_tables

    unknown = [name for name in args.figures or () if name not in FIGURES]
    if unknown:
        raise _UsageError(f"unknown figure {', '.join(unknown)}; available: "
                          f"{', '.join(sorted(FIGURES))}")
    with _writable(args.directory):
        os.makedirs(args.directory, exist_ok=True)
    for stem, text in figure_tables(args.figures, jobs=args.jobs,
                                    cache=args.cache_dir):
        _write(os.path.join(args.directory, f"{stem}.csv"), text)
    return 0


def _cmd_report(args):
    from repro.experiments import full_report, render_report

    report = full_report(
        include_concurrency=not args.no_concurrency,
        include_goal=not args.no_goal,
        goal_energy=args.energy,
        jobs=args.jobs,
    )
    print(render_report(report))
    return 0


def _cmd_trace(args):
    """Run one experiment under a recording tracer and export everything."""
    from repro.obs import JsonlSink, Tracer, installed
    from repro.obs.export import (
        join_power,
        join_summary,
        read_events_jsonl,
        write_chrome_trace,
        write_events_jsonl,
        write_metrics,
    )
    from repro.obs.metrics import current_metrics

    # Pulse-rig flag -> the knobs it sets.  Every one but
    # --no-hysteresis, which the classic goal rig honours too, selects
    # the pulse rig.
    knobs_of = {
        "--pulse": {},
        "--lookahead": {"lookahead": True},
        "--horizon": {"horizon": args.horizon},
        "--beam": {"lookahead": True, "beam_width": args.beam},
        "--depth": {"beam_depth": args.depth},
        "--learned-model": {"learned_model": True},
        "--drift": {"drift": args.drift},
        "--device-file": {},
        "--device-id": {},
        "--no-hysteresis": {"variable_fraction": 0.0,
                            "constant_fraction": 0.0},
    }
    given = {flag: knobs_of[flag] for flag in _given(args)
             if flag in knobs_of}
    prefix = args.out
    sink = None
    if args.stream:
        with _writable(prefix + ".jsonl", mkdir=True):
            sink = JsonlSink(prefix + ".jsonl")
    tracer = Tracer(
        capacity=args.ring,
        categories=set(args.categories) if args.categories else None,
        sink=sink,
    )
    with installed(tracer):
        if given.keys() - {"--no-hysteresis"}:
            from repro.snapshot.scenario import build_pulse_scenario

            pulse_kwargs = {}
            for knobs in given.values():
                pulse_kwargs.update(knobs)
            if args.goal is not None:
                pulse_kwargs["goal_seconds"] = args.goal
            if args.energy is not None:
                pulse_kwargs["initial_energy"] = args.energy
            try:
                if args.device_file is not None:
                    from repro.devices import load_fleet

                    matches = [d for d in load_fleet(args.device_file)
                               if args.device_id in (None, d.device_id)]
                    if not matches:
                        raise ValueError(f"no device {args.device_id!r} in "
                                         f"{args.device_file}")
                    pulse_kwargs["device"] = matches[0]
                scenario = build_pulse_scenario(**pulse_kwargs)
            except (OSError, ValueError) as exc:
                if sink is not None:
                    sink.close()
                raise _UsageError(exc) from None
            summary = scenario.start().run().summary()
            print(f"pulse goal: {'MET' if summary['goal_met'] else 'MISSED'} "
                  f"(residual {summary['battery_residual_j']:.0f} J)")
            calibration = summary.get("calibration")
            if calibration is not None:
                multipliers = ", ".join(
                    f"{name}={value:.3f}"
                    for name, value in calibration["multipliers"].items()
                )
                print(f"calibration: {calibration['fits']} fits over "
                      f"{calibration['readings']} readings, residual "
                      f"{calibration['last_residual_w']:+.3f} W "
                      f"({multipliers})")
            if scenario.params["lookahead"]:
                look = summary["lookahead"]
                print(f"lookahead: {look['evaluations']} evaluations, "
                      f"{look['overrides']} overrides, "
                      f"{look['branches_run']} branches")
            if "beam_width" in scenario.params:
                plan = summary["lookahead"]["beam"]
                print(f"beam: width {plan['width']} x depth "
                      f"{plan['depth']}, {plan['plans']} plans, "
                      f"{plan['expansions']} expansions")
        elif args.experiment == "goal":
            from repro.experiments import run_goal_experiment

            goal = args.goal if args.goal is not None else 400.0
            energy = args.energy if args.energy is not None else 6000.0
            result = run_goal_experiment(goal, initial_energy=energy,
                                         **given.get("--no-hysteresis", {}))
            print(f"goal {result.goal_seconds:.0f}s: "
                  f"{'MET' if result.goal_met else 'MISSED'} "
                  f"(residual {result.residual_energy:.0f} J)")
        elif args.experiment == "bursty":
            from repro.experiments import run_bursty_experiment

            goal = args.goal if args.goal is not None else 400.0
            seed = args.seed if args.seed is not None else 0
            result = run_bursty_experiment(seed, goal)
            print(f"bursty goal {goal:.0f}s (seed {seed}): "
                  f"{'MET' if result.goal_met else 'MISSED'}")
        else:  # video
            from repro.experiments import build_rig
            from repro.workloads.videos import VideoClip

            seconds = args.seconds if args.seconds is not None else 20.0
            rig = build_rig()
            clip = VideoClip("trace-clip", seconds, 12.0, 16_250)
            rig.sim.spawn(rig.apps["video"].play(clip))
            rig.sim.run(until=seconds)
            print(f"video playback traced for {seconds:.0f}s "
                  f"({rig.machine.finish():.0f} J)")
        tracer.flush()

    if sink is not None:
        # The sink streamed every event to disk as it was emitted;
        # read the complete log back so the Chrome trace and the join
        # cover events the ring buffer may have evicted.
        sink.close()
        events = read_events_jsonl(prefix + ".jsonl")
        print(f"streamed {prefix}.jsonl ({sink.count} events)")
    else:
        events = list(tracer.events)
        dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
        _write(prefix + ".jsonl",
               lambda path: write_events_jsonl(events, path),
               f" ({len(events)} events{dropped})", mkdir=True)
    _write(prefix + ".trace.json",
           lambda path: write_chrome_trace(events, path),
           " (load at https://ui.perfetto.dev)", mkdir=True)
    _write(prefix + ".metrics.json",
           lambda path: write_metrics(current_metrics(), path))
    joined = join_power(events)
    if joined:
        summary = join_summary(joined)
        print(f"event↔energy join: {summary['resolved']}/{summary['total']} "
              f"events resolved to a power-journal span")
        if summary["unresolved"]:
            sids = ", ".join(str(s) for s in summary["unresolved_sids"][:10])
            print(f"WARNING: {summary['unresolved']} join(s) unresolved "
                  f"(span ids: {sids}"
                  + (", ..." if len(summary["unresolved_sids"]) > 10 else "")
                  + ") — span events merged away, ring-dropped, or the "
                  f"'power' category was filtered", file=sys.stderr)
    return 0


def _cmd_diff(args):
    """Diff two traced runs: decision divergence + energy attribution."""
    from repro.obs.diff import diff_traces
    from repro.obs.export import read_events_jsonl

    try:
        events_a = read_events_jsonl(args.left)
        events_b = read_events_jsonl(args.right)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc, prefix="diff") from None
    diff = diff_traces(
        events_a, events_b,
        label_a=args.left, label_b=args.right,
        gap=args.gap,
    )
    # Write the JSON before printing the report so `repro diff ... | head`
    # (stdout closed early) still leaves the artifact on disk.
    if args.json:
        _write(args.json, _json(diff.to_dict()), mkdir=True)
    print(diff.render(max_windows=args.max_windows))
    if args.fail_on_divergence and not diff.identical:
        return 1
    return 0


def _cmd_verify_profile(args):
    """Verify a traced run's energy signature against a golden."""
    from repro.obs.export import read_events_jsonl
    from repro.obs.signature import (SignatureError, read_signature,
                                     verify_signature)

    try:
        events = read_events_jsonl(args.run)
        golden = read_signature(args.against)
        diff = verify_signature(
            events, golden,
            rel_tolerance=args.tolerance,
            abs_tolerance_j=args.abs_tolerance,
        )
    except (OSError, SignatureError, ValueError) as exc:
        raise _UsageError(exc, prefix="verify-profile") from None
    # Write the JSON before printing the report so a closed stdout
    # still leaves the artifact on disk (same contract as `repro diff`).
    if args.json:
        _write(args.json, _json(diff.to_dict()), mkdir=True)
    print(diff.render(max_phases=args.max_phases))
    return 1 if diff.regression else 0


def _cmd_bench(args):
    from repro.perf import (
        compare,
        render_bench_table,
        render_comparison,
        run_benchmarks,
    )
    from repro.perf.bench import load_results

    results = run_benchmarks(
        quick=args.quick, only=args.only, repeats=args.repeats
    )
    print(render_bench_table(results))
    if args.out:
        _write(args.out, _json(results), mkdir=True)
    if args.compare:
        baseline = load_results(args.compare)
        rows, failures = compare(
            results, baseline, max_regression=args.max_regression
        )
        # A 0.2 s benchmark that absorbs one scheduler burst looks 30 %
        # slower; a real regression reproduces.  Re-measure only the
        # benchmarks that tripped before failing the gate.
        attempt = 0
        while failures and attempt < args.confirm:
            rerun = [r["name"] for r in rows if r["regressed"]]
            if not rerun:
                break
            attempt += 1
            print()
            print(f"possible noise — re-running {', '.join(rerun)} "
                  f"to confirm (attempt {attempt}/{args.confirm})")
            redo = run_benchmarks(
                quick=args.quick, only=rerun, repeats=args.repeats
            )
            results["benches"].update(redo["benches"])
            rows, failures = compare(
                results, baseline, max_regression=args.max_regression
            )
        if attempt and args.out:
            _write(args.out, _json(results), mkdir=True)
        print()
        print(render_comparison(rows, max_regression=args.max_regression))
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("no regressions vs baseline")
    return 0


# ----------------------------------------------------------------------
# snapshot modes
# ----------------------------------------------------------------------
def _cmd_snapshot_gc(args):
    """Prune old snapshots from the store, keeping pinned + the newest N."""
    from repro.snapshot.disk import SnapshotStore

    store = SnapshotStore(args.snapshot_dir)
    before = len(store)
    report = store.prune(keep_latest=args.keep_latest, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{before} snapshot(s) in {args.snapshot_dir}: "
          f"{verb} {len(report['deleted'])}, kept {len(report['kept'])} "
          f"({len(report['pinned'])} pinned)")
    for key in report["deleted"]:
        print(f"  {verb} {key}")
    return 0


def _snapshot_knobs(args):
    """The capture instant and horizon, resolved from the pulse rig's
    declared defaults when not given."""
    from repro.snapshot.scenario import KNOBS

    at = args.at if args.at is not None else 120.0
    horizon = (args.horizon if args.horizon is not None
               else KNOBS["horizon"].default)
    return at, horizon


def _cmd_snapshot_roundtrip(args):
    """Fork-determinism check: capture mid-run, finish both, compare."""
    from repro.fleet.spec import canonical_json
    from repro.snapshot import Snapshot
    from repro.snapshot.scenario import build_pulse_scenario

    at, horizon = _snapshot_knobs(args)
    kwargs = {"lookahead": args.lookahead, "horizon": horizon}
    reference = build_pulse_scenario(**kwargs).start().run()
    interrupted = build_pulse_scenario(**kwargs).start().run(until=at)
    snap = Snapshot.capture(interrupted.sim)
    print(f"captured at t={snap.time:g}s ({len(snap.payload['events'])} "
          f"pending events, {len(snap.payload['states'])} objects)")
    fork = snap.fork().run()
    interrupted.run()

    summaries = {
        "uninterrupted": canonical_json(reference.summary()),
        "fork": canonical_json(fork.summary()),
        "parent": canonical_json(interrupted.summary()),
    }
    finals = {
        name: canonical_json(Snapshot.capture(sc.sim).payload)
        for name, sc in (("uninterrupted", reference), ("fork", fork),
                         ("parent", interrupted))
    }
    ok = (len(set(summaries.values())) == 1
          and len(set(finals.values())) == 1)
    if ok:
        print("roundtrip OK: fork and parent are byte-identical to the "
              "uninterrupted run (summary + full final state)")
        return 0
    for name in ("fork", "parent"):
        if summaries[name] != summaries["uninterrupted"]:
            print(f"FAIL: {name} summary diverges from uninterrupted run")
        elif finals[name] != finals["uninterrupted"]:
            print(f"FAIL: {name} final state diverges from "
                  f"uninterrupted run")
    return 1


def _cmd_snapshot_sweep(args):
    """Warm-started goal-extension sweep over the snapshot store."""
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import canonical_json
    from repro.snapshot.warm import build_warm_campaign, pulse_goal_summary

    at, horizon = _snapshot_knobs(args)
    extensions = (args.extensions if args.extensions is not None
                  else (0.0, 20.0, 40.0))
    axis = (False, True) if args.lookahead else (False,)
    warm = args.snapshot_dir is not None
    if not warm:
        print("no --snapshot-dir: running cold (no prefix reuse)")
    spec = build_warm_campaign(
        extensions=tuple(extensions), lookahead_axis=axis,
        extend_at=at, warm=warm, snapshot_dir=args.snapshot_dir,
        horizon=horizon,
    )
    result = FleetRunner(jobs=args.jobs or 1).run(spec)
    rows = []
    for task, task_result in zip(spec.tasks, result.results):
        value = task_result.value
        if not isinstance(value, dict):
            rows.append([task.id, "FAILED", "-", "-", "-", "-"])
            continue
        rows.append([
            task.id,
            "met" if value["goal_met"] else "missed",
            f"{value['survived_seconds']:.0f}",
            f"{value['energy_total_j']:.0f}",
            f"{value['battery_residual_j']:.0f}",
            "warm" if value.get("snapshot_restored") else "cold",
        ])
    print(render_table(
        ["task", "goal", "survived (s)", "energy (J)", "residual (J)",
         "prefix"],
        rows, title="goal-extension sweep",
    ))
    code = _campaign_tail(args, result)
    if args.verify_cold and result.ok:
        strip = lambda s: {k: v for k, v in s.items()
                           if k != "snapshot_restored"}
        mismatches = []
        for task, task_result in zip(spec.tasks, result.results):
            cold = pulse_goal_summary(**{**task.params, "warm": False})
            if canonical_json(strip(cold)) != canonical_json(
                    strip(task_result.value)):
                mismatches.append(task.id)
        if mismatches:
            print(f"FAIL: warm result differs from cold for "
                  f"{', '.join(mismatches)}")
            code = 1
        else:
            print(f"verified: all {len(spec.tasks)} warm results "
                  f"identical to cold re-runs")
    return code


_SNAPSHOT_MODES = {"roundtrip": _cmd_snapshot_roundtrip,
                   "sweep": _cmd_snapshot_sweep, "gc": _cmd_snapshot_gc}


# ----------------------------------------------------------------------
# fleet campaigns: the fidelity sweep and the policy diff matrix
# ----------------------------------------------------------------------
def _print_failures(failures):
    for failure in failures:
        print(f"FAILED {failure.task_id} "
              f"(attempts {failure.attempts}): {failure.error}")


def _campaign_tail(args, result):
    """Render a finished campaign's telemetry, write its results and
    telemetry files, list its failures; 1 if any task failed."""
    print(result.telemetry.render())
    if getattr(args, "results_out", None):
        from repro.service.jobs import results_document

        _write(args.results_out,
               results_document(result.spec.name, result.values))
    if args.telemetry_out:
        _write(args.telemetry_out, _json(result.telemetry.snapshot()))
    _print_failures(result.failures)
    return 0 if result.ok else 1


def _matrix_spec(args):
    """Build the policy-matrix campaign a matrix-mode invocation names."""
    import itertools

    from repro.fleet.diffmatrix import (
        DEFAULT_GRID,
        SCENARIO_KEYS,
        parse_policy_spec,
        policy_matrix_campaign,
    )

    try:
        baseline = parse_policy_spec(args.diff_against)
        scenario = parse_policy_spec(args.scenario or "",
                                     allowed=SCENARIO_KEYS)
        candidates = list(args.candidate or ())
        if args.vary:
            axes = []
            for vary in args.vary:
                key, sep, values = vary.partition("=")
                if not sep or not values:
                    raise ValueError(f"malformed --vary {vary!r} "
                                     f"(expected KEY=V1,V2,...)")
                axes.append([(key.strip(), v.strip())
                             for v in values.split(",") if v.strip()])
            for combo in itertools.product(*axes):
                candidates.append(",".join(f"{k}={v}" for k, v in combo))
        if not candidates:
            candidates = list(DEFAULT_GRID)
        for candidate in candidates:
            parse_policy_spec(candidate)  # fail fast on a bad spec
        devices = None
        if args.devices and args.fleet_size:
            raise ValueError("--devices and --fleet-size are exclusive")
        if args.devices:
            from repro.devices import load_fleet

            devices = load_fleet(args.devices)
        elif args.fleet_size:
            from repro.devices import generate_fleet

            devices = generate_fleet(args.fleet_size, args.fleet_seed or 0)
        return policy_matrix_campaign(candidates, baseline=baseline,
                                      scenario=scenario, devices=devices)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from None


def _matrix_finish(spec, values, args):
    """Fold, render, persist, and gate a completed matrix campaign."""
    from repro.fleet.diffmatrix import matrix_from_values

    matrix = matrix_from_values(spec, values)
    if args.matrix_out:
        _write(args.matrix_out, matrix.document(), mkdir=True)
    print(matrix.render())
    if args.fail_on_divergence:
        problems = matrix.violations(
            max_windows=args.max_windows,
            max_abs_delta_j=args.max_delta_j,
            max_shape_distance=args.max_shape_distance,
        )
        for problem in problems:
            print(f"DIVERGENCE: {problem}")
        if problems:
            return 1
    return 0


def _sweep_fleet(args):
    """The fleet options both ``sweep`` modes run under."""
    from repro.fleet import ProgressPrinter

    return dict(jobs=args.jobs, timeout_s=args.timeout, retries=args.retries,
                cache=args.cache_dir, worker_trace=args.worker_trace,
                progress=ProgressPrinter() if args.progress else None)


def _cmd_sweep_matrix(args):
    """``repro sweep --diff-against``: the policy diff matrix."""
    from repro.fleet import FleetRunner

    spec = _matrix_spec(args)
    fleet = _sweep_fleet(args)
    result = FleetRunner(**fleet).run(spec)
    if fleet["progress"] is not None:
        fleet["progress"].close()
    code = _matrix_finish(spec, result.values, args)
    return _campaign_tail(args, result) or code


def _cmd_sweep(args):
    """``repro sweep``: the fidelity studies as one fleet campaign."""
    from repro.fleet import run_sweep

    if args.diff_against is not None:
        return _cmd_sweep_matrix(args)
    trials = args.trials or 1
    fleet = _sweep_fleet(args)
    tables, result = run_sweep(apps=args.apps, trials=trials,
                               think_time_s=args.think, **fleet)
    if fleet["progress"] is not None:
        fleet["progress"].close()
    for app, table in tables.items():
        # A partially failed campaign leaves holes in the table (failed
        # cells are omitted by tables_from_result); take the object set
        # as the union across rows and render missing cells as "-" so a
        # partial sweep still reports everything it *did* measure.
        objects = list(dict.fromkeys(
            obj for row in table.values() for obj in row
        ))
        rows = [
            [config] + [
                f"{table[config][obj]:.1f}" if obj in table[config] else "-"
                for obj in objects
            ]
            for config in table
        ]
        title = f"{app} energy (J)"
        if trials > 1:
            title += f" — mean ± 90% CI over {trials} trials"
        print(render_table([f"{app} (J)"] + objects, rows, title=title))
        print()
        if args.csv_dir:
            means = {
                config: {
                    obj: (cell.mean if hasattr(cell, "mean") else cell)
                    for obj, cell in row.items()
                }
                for config, row in table.items()
            }
            _write(os.path.join(args.csv_dir, f"sweep_{app}.csv"),
                   energy_table_csv(means, objects), mkdir=True)
    return _campaign_tail(args, result)


# ----------------------------------------------------------------------
# campaign service
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _service_errors():
    """An unreachable service, a refused request or a wait that timed
    out is a usage error."""
    from repro.service import ServiceError

    try:
        yield
    except (ServiceError, TimeoutError) as exc:
        raise _UsageError(exc) from None


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.endpoint)


def _cmd_serve(args):
    """Run the persistent campaign service until shutdown."""
    from repro.service import CampaignService, serve

    service = CampaignService(
        workers=args.workers,
        cache=args.cache_dir,
        retries=args.retries,
        timeout_s=args.timeout,
        heartbeat_s=args.heartbeat,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )
    with service:
        server = serve(service, host=args.host, port=args.port,
                       verbose=args.verbose)
        print(f"campaign service listening on {server.endpoint} "
              f"({args.workers} workers"
              + (f", cache {args.cache_dir}" if args.cache_dir else "")
              + ")", flush=True)
        try:
            server.serve_until_shutdown()
        except KeyboardInterrupt:
            print("\ninterrupt — shutting down", flush=True)
        finally:
            server.server_close()
    snapshot = service.snapshot()
    print(f"served {snapshot['jobs']} job(s); "
          f"{snapshot['reclaimed_workers']} worker(s) reclaimed")
    return 0


def _load_spec(args):
    """The campaign a ``submit`` names: built-in sweep or a spec file."""
    from repro.fleet.spec import CampaignSpec

    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                return CampaignSpec.from_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            raise _UsageError(exc) from None
    if args.diff_against is not None:
        # The same campaign `repro sweep --diff-against` runs, so the
        # folded matrix is byte-comparable with the one-shot path.
        return _matrix_spec(args)
    # --sweep (the default): the same campaign `repro sweep` runs, so
    # service results are byte-comparable with the one-shot path.
    from repro.fleet.campaigns import sweep_campaign

    return sweep_campaign(apps=args.apps, think_time_s=args.think,
                          trials=args.trials or 1)


def _job_outcome(payload, results_out, telemetry_out):
    """Render a terminal job (submit --wait / result) and write its
    results and telemetry files; 1 if any task failed."""
    from types import SimpleNamespace

    from repro.service.jobs import results_document

    telemetry = payload["telemetry"]
    print(f"job {payload['job_id']} ({payload['campaign']}): "
          f"{payload['state']} — {telemetry['done']}/{telemetry['total']} "
          f"tasks, {telemetry['cached']} cached, "
          f"{telemetry['failed']} failed, wall {telemetry['wall_s']:.2f}s")
    _print_failures(SimpleNamespace(**failure)
                    for failure in payload.get("failures", ()))
    if results_out:
        _write(results_out,
               results_document(payload["campaign"], payload["values"]))
    if telemetry_out:
        _write(telemetry_out, _json(telemetry))
    return 0 if payload["state"] == "done" else 1


def _cmd_submit(args):
    spec = _load_spec(args)
    with _service_errors():
        client = _service_client(args)
        job_id = client.submit(
            spec, queue=args.queue, priority=args.priority,
            client=args.client, retries=args.retries,
            timeout_s=args.timeout,
        )
        print(f"submitted {job_id} ({spec.name}, {len(spec)} tasks) "
              f"to queue {args.queue!r} at {client.endpoint}")
        if not args.wait:
            return 0
        client.wait(job_id, timeout=args.wait_timeout)
        payload = client.result(job_id)
    # Like `repro sweep`: any permanently failed task is a nonzero exit.
    code = _job_outcome(payload, args.results_out, args.telemetry_out)
    if args.diff_against is not None:
        matrix_code = _matrix_finish(spec, payload["values"], args)
        code = code or matrix_code
    return code


def _cmd_status(args):
    with _service_errors():
        status = _service_client(args).status(args.job_id)
    telemetry = status["telemetry"]
    print(f"job {status['job_id']} ({status['campaign']}): "
          f"{status['state']}  queue={status['queue']} "
          f"priority={status['priority']}"
          + (f" client={status['client']}" if status["client"] else ""))
    print(f"  tasks: {telemetry['done']}/{telemetry['total']} done, "
          f"{telemetry['running']} running, {telemetry['queued']} queued, "
          f"{telemetry['cached']} cached, {telemetry['failed']} failed, "
          f"{telemetry['retried']} retried")
    running = status["tasks"]["running"]
    if running:
        print(f"  running: {', '.join(running)}")
    for failure in status.get("failures", ()):
        print(f"  FAILED {failure['task_id']}: {failure['error']}")
    return 0


def _cmd_result(args):
    with _service_errors():
        payload = _service_client(args).result(args.job_id)
    return _job_outcome(payload, args.out, args.telemetry_out)


def _cmd_queues(args):
    with _service_errors():
        client = _service_client(args)
        queues = client.queues()
        workers = client.workers()
    if queues:
        rows = [
            [name, str(entry["jobs"]), str(entry["active_jobs"]),
             str(entry["pending_tasks"])]
            for name, entry in sorted(queues.items())
        ]
        print(render_table(["queue", "jobs", "active", "pending tasks"],
                           rows, title="queues"))
    else:
        print("no jobs submitted yet")
    rows = [
        [w["id"], str(w["pid"]), "yes" if w["alive"] else "NO",
         f"{w['heartbeat_age_s']:.2f}s",
         w["current"]["task"] if w["current"] else "-",
         str(w["completed"])]
        for w in workers
    ]
    print()
    print(render_table(
        ["worker", "pid", "alive", "beat age", "running", "completed"],
        rows, title="workers",
    ))
    return 0


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------
def build_parser():
    """Build the argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Energy-aware adaptation for mobile "
                    "applications' (SOSP 1999).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, **defaults):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, **defaults)
        return p

    # Figures 6 and 8 simulate without think time; 10 and 13 take one.
    for fig, app, label, think in (
        ("fig06", "video", "Figure 6 — video energy by fidelity", False),
        ("fig08", "speech", "Figure 8 — speech energy by strategy", False),
        ("fig10", "map", "Figure 10 — map energy by fidelity", True),
        ("fig13", "web", "Figure 13 — Web energy by JPEG quality", True),
    ):
        p = command(fig, _cmd_energy_table, label, app=app,
                    title=f"Figure {int(fig[3:])} — {app}")
        if think:
            _add(p, "--think", help="think time in seconds (map/web only)")
        _add(p, "--csv")
        _add(p, "--jobs", help="run the table's cells on N fleet workers")
        _add(p, *_OBS)

    p = command("goal", _cmd_goal, "run one goal-directed experiment")
    _add(p, "--energy", "--goal")
    p.add_argument("--halflife", type=_positive_float, default=0.10,
                   help="smoothing half-life fraction")
    _add(p, "--csv", help="write the supply/demand/fidelity trace as CSV")
    p.add_argument("--no-chart", action="store_true",
                   help="skip the ASCII supply/demand chart")
    _add(p, *_OBS)

    p = command("profile", _cmd_profile,
                "PowerScope profile of video playback")
    _add(p, "--seconds")
    p.add_argument("--rate", type=float, default=600.0,
                   help="sampling rate in Hz")
    p.add_argument("--no-pm", action="store_true",
                   help="disable hardware power management")
    _add(p, *_OBS)

    p = command("trace", _cmd_trace,
                "run one experiment under the tracer and export JSONL, "
                "Chrome trace JSON, and a metrics snapshot")
    p.add_argument("experiment", choices=("goal", "bursty", "video"),
                   help="which experiment to trace")
    _add(p, "--out", default="trace/run", metavar="PREFIX",
         help="output prefix (default trace/run → trace/run.jsonl, "
              "trace/run.trace.json, trace/run.metrics.json)")
    p.add_argument("--ring", type=_positive_int, default=None,
                   help="ring-buffer capacity (default: unbounded)")
    p.add_argument("--categories", nargs="*", default=None,
                   choices=("sim", "power", "core", "powerscope", "fleet",
                            "branch", "service", "workload", "calibration"),
                   help="restrict tracing to these categories")
    _add(p, "--goal", help="goal seconds (goal/bursty; default 400, or 290 "
                           "with --pulse/--lookahead)")
    _add(p, "--energy", default=None,
         help="initial energy in joules (goal; default 6000, or 2400 with "
              "--pulse/--lookahead)")
    p.add_argument("--pulse", action="store_true",
                   help="run the snapshot-capable pulse scenario instead "
                        "of the generator-based goal rig (goal only)")
    _add(p, "--lookahead",
         help="vet adaptation decisions with what-if branches (implies "
              "--pulse); branch verdicts are traced on the 'branch' "
              "category")
    _add(p, "--horizon")
    p.add_argument("--beam", type=_positive_int, default=None, metavar="W",
                   help="beam-search adaptation schedules with width W "
                        "(implies --lookahead); keeps the W best-margin "
                        "schedules per stage")
    p.add_argument("--depth", type=_positive_int, default=None,
                   help="beam stages across the horizon (default 2; "
                        "only with --beam)")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (bursty)")
    _add(p, "--seconds", default=None, help="playback seconds (video)")
    p.add_argument("--no-hysteresis", action="store_true",
                   help="zero the upgrade hysteresis margins (goal); "
                        "pair with a default run for `repro diff`")
    p.add_argument("--learned-model", action="store_true",
                   help="feed the controller a Sesame-style learned "
                        "power model (SmartBattery gauge + online "
                        "calibrator) instead of ground truth (implies "
                        "--pulse; goal only); calibration events land "
                        "on the 'calibration' category")
    p.add_argument("--drift", default=None, metavar="AT:FACTOR",
                   help="scale real component wattages by FACTOR at "
                        "sim time AT (e.g. 60:1.25; implies --pulse)")
    p.add_argument("--device-file", default=None, metavar="PATH",
                   help="run the pulse scenario on the first device of "
                        "this fleet file, or on DEVICE_ID with "
                        "--device-id (implies --pulse; goal only)")
    p.add_argument("--device-id", default=None, metavar="ID",
                   help="pick a device from --device-file by id "
                        "(needs --device-file)")
    p.add_argument("--stream", action="store_true",
                   help="stream events to PREFIX.jsonl as they are "
                        "emitted (safe to combine with --ring: the "
                        "file keeps the prefix the ring drops)")

    p = command("calibrate", _cmd_calibrate,
                "check headline savings percentages against the paper's "
                "published bands; exits nonzero on any MISS")
    _add(p, "--json", help="also write the structured report as JSON")

    p = command("diff", _cmd_diff,
                "align two traced runs on decision ids and report "
                "divergence windows with attributed energy deltas")
    p.add_argument("left", help="baseline trace (PREFIX.jsonl)")
    p.add_argument("right", help="candidate trace (PREFIX.jsonl)")
    _add(p, "--json")
    p.add_argument("--gap", type=_nonnegative_int, default=0,
                   help="merge divergence windows separated by at most "
                        "this many matching decisions (default 0)")
    _add(p, "--max-windows", type=_positive_int, default=10, metavar=None,
         help="windows to show in the text report (default 10)")
    _add(p, "--fail-on-divergence",
         help="exit 1 if the decision spines differ (CI gate)")

    p = command("verify-profile", _cmd_verify_profile,
                "verify a traced run's per-phase energy signature against "
                "a golden; exits 1 when behaviour matches but energy does "
                "not (or 2 on unreadable inputs)")
    p.add_argument("run", help="traced run to verify (PREFIX.jsonl)")
    p.add_argument("--against", required=True, metavar="PATH",
                   help="golden signature JSON (from regen_goldens.py "
                        "--signatures or repro.obs.write_signature)")
    p.add_argument("--tolerance", type=float, default=None, metavar="REL",
                   help="relative per-phase tolerance (default: the "
                        "golden's recorded band)")
    p.add_argument("--abs-tolerance", type=float, default=None, metavar="J",
                   help="absolute per-phase tolerance floor in joules "
                        "(default: the golden's recorded band)")
    _add(p, "--json",
         help="also write the signature diff as deterministic JSON")
    p.add_argument("--max-phases", type=_positive_int, default=10,
                   help="out-of-band phases to show in the text report "
                        "(default 10)")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="explicit CI marker; regressions already exit 1")
    _add(p, "--metrics-out", help="write the metrics snapshot (signature.* "
                                  "series) as JSON")

    p = command("export-figures", _cmd_export_figures,
                "write every figure's plot data as CSV")
    p.add_argument("directory", help="output directory")
    p.add_argument("--figures", nargs="*", default=None,
                   help="subset of figure ids (default: all)")
    _add(p, "--jobs", help="regenerate figures on N fleet workers")
    _add(p, "--cache-dir")

    p = command("bench", _cmd_bench,
                "micro-benchmarks of the engine/accounting/snapshot hot "
                "paths")
    p.add_argument("--quick", action="store_true",
                   help="small workloads for CI smoke use")
    _add(p, "--out", default="BENCH_core.json", metavar=None,
         help="write results JSON here (default BENCH_core.json)")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="compare against a baseline results file; exit 1 on "
                        "regression")
    p.add_argument("--max-regression", type=float, default=0.25,
                   help="allowed normalized slowdown vs baseline "
                        "(default 0.25 = 25%%)")
    p.add_argument("--confirm", type=_nonnegative_int, default=2,
                   help="re-run regressed benchmarks up to N times before "
                        "failing --compare, to reject scheduler noise "
                        "(default 2; 0 disables)")
    p.add_argument("--only", nargs="*", default=None, metavar="NAME",
                   help="subset of benchmarks to run; each token matches "
                        "by substring (e.g. 'snapshot' selects every "
                        "snapshot_* bench)")
    p.add_argument("--repeats", type=_positive_int, default=None,
                   help="repeat count per benchmark (min is reported)")

    p = command("report", _cmd_report,
                "headline results across all experiments")
    p.add_argument("--no-goal", action="store_true",
                   help="skip the goal-directed experiments")
    p.add_argument("--no-concurrency", action="store_true",
                   help="skip the concurrency experiment")
    _add(p, "--energy", help="initial energy for the goal experiments")
    _add(p, "--jobs", help="run the fidelity tables on N fleet workers")
    _add(p, *_OBS)

    p = command("sweep", _cmd_sweep,
                "run the fidelity studies as one parallel fleet campaign")
    _add(p, "--apps", "--jobs", "--trials", "--think", "--cache-dir",
         "--timeout", "--retries")
    p.add_argument("--progress", action="store_true",
                   help="print a line per finished task")
    p.add_argument("--csv-dir", default=None,
                   help="also write one CSV per application table")
    _add(p, "--results-out", "--telemetry-out")
    p.add_argument("--worker-trace", action="store_true",
                   help="collect in-worker ring traces and merge them "
                        "into the coordinator trace on per-task tracks "
                        "(needs --trace)")
    _add(p, *_MATRIX, *_OBS)

    p = command("snapshot", lambda args: _SNAPSHOT_MODES[args.mode](args),
                "checkpoint/fork the pulse scenario: determinism "
                "roundtrip, a warm-started extension sweep, or store "
                "pruning")
    p.add_argument("mode", choices=tuple(_SNAPSHOT_MODES),
                   help="roundtrip: capture mid-run, fork, verify the fork "
                        "finishes byte-identical to an uninterrupted run; "
                        "sweep: goal-extension campaign that restores the "
                        "shared scenario prefix from --snapshot-dir; "
                        "gc: prune old snapshots from --snapshot-dir")
    p.add_argument("--keep-latest", type=_nonnegative_int, default=None,
                   metavar="N",
                   help="gc: keep only the N most recent snapshots "
                        "(pinned snapshots always survive)")
    p.add_argument("--dry-run", action="store_true",
                   help="gc: report what would be deleted without deleting")
    p.add_argument("--at", type=_nonnegative_float, default=None,
                   help="capture / extension instant in sim seconds "
                        "(default 120)")
    _add(p, "--lookahead", "--horizon")
    p.add_argument("--extensions", nargs="*", type=_nonnegative_float,
                   default=None,
                   help="goal extensions in seconds to sweep (default "
                        "0 20 40)")
    p.add_argument("--snapshot-dir", default=None, metavar="DIR",
                   help="snapshot store directory; omitting it runs the "
                        "sweep cold (every prefix re-simulated)")
    _add(p, "--jobs", help="worker processes for the sweep (default: serial)")
    p.add_argument("--verify-cold", action="store_true",
                   help="re-run every sweep point cold and fail unless the "
                        "warm results are identical")
    _add(p, "--telemetry-out", *_OBS)

    p = command("serve", _cmd_serve,
                "start the persistent campaign service: a warm worker pool "
                "serving submitted campaigns over local HTTP")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="warm pool size (default 2)")
    _add(p, "--cache-dir", help="shared result cache directory (all clients "
                                "benefit from each other's completed tasks)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7341,
                   help="listen port (default 7341; 0 picks a free port)")
    _add(p, "--retries", help="default extra attempts per failing task")
    _add(p, "--timeout", help="default per-task wall-clock budget in seconds")
    p.add_argument("--heartbeat", type=float, default=0.2,
                   help="worker heartbeat period in seconds (default 0.2)")
    p.add_argument("--heartbeat-timeout", type=float, default=5.0,
                   help="declare a worker dead after this long without a "
                        "heartbeat (default 5.0)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    _add(p, *_OBS)

    p = command("submit", _cmd_submit,
                "submit a campaign to a running service")
    _add(p, "--endpoint")
    p.add_argument("--sweep", action="store_true",
                   help="submit the fidelity-study sweep campaign "
                        "(the default; same campaign as `repro sweep`)")
    p.add_argument("--spec", default=None, metavar="PATH",
                   help="submit a campaign spec from a JSON file instead")
    _add(p, "--apps", help="sweep: subset of applications")
    _add(p, "--trials", help="sweep: jittered trials per cell")
    _add(p, "--think", help="sweep: think time in seconds (map/web)")
    p.add_argument("--queue", default="default",
                   help="named queue to submit into (default 'default')")
    p.add_argument("--priority", type=int, default=0,
                   help="priority within the queue (higher runs first)")
    p.add_argument("--client", default=None,
                   help="client label recorded on the job")
    _add(p, "--retries", default=None,
         help="override the service's per-task retry budget")
    _add(p, "--timeout", help="override the service's per-task timeout")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal; exit nonzero "
                        "if any task permanently failed")
    p.add_argument("--wait-timeout", type=_positive_float, default=None,
                   help="give up waiting after this many seconds")
    _add(p, "--results-out",
         help="with --wait: write the raw task values as canonical JSON "
              "(byte-comparable with `repro sweep --results-out`)")
    _add(p, "--telemetry-out",
         help="with --wait: write the job telemetry as JSON")
    _add(p, *_MATRIX)

    p = command("status", _cmd_status, "one job's state and progress")
    p.add_argument("job_id")
    _add(p, "--endpoint")

    p = command("result", _cmd_result,
                "fetch a terminal job's values and telemetry")
    p.add_argument("job_id")
    _add(p, "--endpoint", "--out")
    _add(p, "--telemetry-out", help="write the job telemetry as JSON")

    p = command("queues", _cmd_queues,
                "per-queue depths and the worker table")
    _add(p, "--endpoint")

    for p in sub.choices.values():
        # Each option's declared default: a flag is given when its value
        # differs (see _given).
        p.set_defaults(declared={
            action.option_strings[-1]: (action.dest, action.default)
            for action in p._actions
            if action.option_strings and action.default != argparse.SUPPRESS
        })
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code.

    A reader that closes stdout early (``repro ... | head -1``) stops
    the command at its next write: it exits 141, the code of a process
    ended by SIGPIPE, with no traceback.
    """
    try:
        try:
            return _main(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's flush at exit
        # does not fail on the closed pipe a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE (13)


def _main(argv):
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if getattr(args, "trace", None):
            code = _traced(args)
        else:
            code = args.func(args)
        if getattr(args, "metrics_out", None):
            from repro.obs.export import write_metrics
            from repro.obs.metrics import current_metrics

            _write(args.metrics_out,
                   lambda path: write_metrics(current_metrics(), path))
    except _UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 2
    return code


def _traced(args):
    """Run the command under a recording tracer and write ``--trace``
    PREFIX.jsonl and PREFIX.trace.json."""
    from repro.obs import Tracer, installed
    from repro.obs.export import write_chrome_trace, write_events_jsonl

    tracer = Tracer()
    with installed(tracer):
        code = args.func(args)
        tracer.flush()
    events = list(tracer.events)
    _write(args.trace + ".jsonl",
           lambda path: write_events_jsonl(events, path),
           f" ({len(events)} events)", mkdir=True)
    _write(args.trace + ".trace.json",
           lambda path: write_chrome_trace(events, path))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
