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
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import render_table
from repro.analysis.export import energy_table_csv, timeline_csv, write_csv

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


def _cmd_energy_table(args, table_fn, label, app=None):
    jobs = getattr(args, "jobs", None)
    if app is not None and jobs is not None and jobs != 1:
        from repro.fleet import energy_table

        table = energy_table(app, jobs=jobs, think_time_s=args.think)
    elif args.think is not None:
        table = table_fn(think_time_s=args.think)
    else:
        table = table_fn()
    objects = list(next(iter(table.values())))
    rows = [
        [config] + [f"{table[config][obj]:.1f}" for obj in objects]
        for config in table
    ]
    print(render_table(["config (J)"] + objects, rows, title=label))
    if args.csv:
        write_csv(args.csv, energy_table_csv(table, objects))
        print(f"wrote {args.csv}")
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
        try:
            write_csv(args.csv, timeline_csv(result.series))
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.csv}")
    return 0 if result.goal_met else 1


def _cmd_calibrate(args):
    """Check headline percentages against the paper's bands."""
    from repro.experiments.calibration import (
        calibration_report,
        render_report,
        report_ok,
    )

    report = calibration_report()
    print(render_report(report))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
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


def _cmd_trace(args):
    """Run one experiment under a recording tracer and export everything."""
    import os

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

    # Flag -> (its value, the pulse-rig knobs it sets).  All are
    # goal-only; all but --no-hysteresis, which the classic goal rig
    # honours too, select the pulse rig.
    flags = {
        "--pulse": (args.pulse, {}),
        "--lookahead": (args.lookahead, {"lookahead": True}),
        "--horizon": (args.horizon, {"horizon": args.horizon}),
        "--beam": (args.beam, {"lookahead": True, "beam_width": args.beam}),
        "--depth": (args.depth, {"beam_depth": args.depth}),
        "--learned-model": (args.learned_model, {"learned_model": True}),
        "--drift": (args.drift, {"drift": args.drift}),
        "--device-file": (args.device_file, {}),
        "--device-id": (args.device_id, {}),
        "--no-hysteresis": (args.no_hysteresis, {"variable_fraction": 0.0,
                                                 "constant_fraction": 0.0}),
    }
    given = {flag: knobs for flag, (value, knobs) in flags.items()
             if value not in (None, False)}
    if args.experiment != "goal" and given:
        print(f"error: trace {args.experiment} does not take "
              f"{', '.join(given)} (trace goal only)", file=sys.stderr)
        return 2
    if args.device_id is not None and args.device_file is None:
        print("error: --device-id needs --device-file", file=sys.stderr)
        return 2
    prefix = args.out
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    sink = JsonlSink(prefix + ".jsonl") if args.stream else None
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
                print(f"error: {exc}", file=sys.stderr)
                return 2
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
            result = run_bursty_experiment(args.seed, goal)
            print(f"bursty goal {goal:.0f}s (seed {args.seed}): "
                  f"{'MET' if result.goal_met else 'MISSED'}")
        else:  # video
            from repro.experiments import build_rig
            from repro.workloads.videos import VideoClip

            rig = build_rig()
            clip = VideoClip("trace-clip", args.seconds, 12.0, 16_250)
            rig.sim.spawn(rig.apps["video"].play(clip))
            rig.sim.run(until=args.seconds)
            print(f"video playback traced for {args.seconds:.0f}s "
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
        write_events_jsonl(events, prefix + ".jsonl")
        print(f"wrote {prefix}.jsonl ({len(events)} events"
              + (f", {tracer.dropped} dropped" if tracer.dropped else "")
              + ")")
    write_chrome_trace(events, prefix + ".trace.json")
    print(f"wrote {prefix}.trace.json (load at https://ui.perfetto.dev)")
    write_metrics(current_metrics(), prefix + ".metrics.json")
    print(f"wrote {prefix}.metrics.json")
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
    import json

    from repro.obs.diff import diff_traces
    from repro.obs.export import read_events_jsonl

    try:
        events_a = read_events_jsonl(args.left)
        events_b = read_events_jsonl(args.right)
    except (OSError, ValueError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_traces(
        events_a, events_b,
        label_a=args.left, label_b=args.right,
        gap=args.gap,
    )
    # Write the JSON before printing the report so `repro diff ... | head`
    # (stdout closed early) still leaves the artifact on disk.
    if args.json:
        import os

        out_dir = os.path.dirname(args.json)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(diff.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(diff.render(max_windows=args.max_windows))
    if args.json:
        print(f"wrote {args.json}")
    if args.fail_on_divergence and not diff.identical:
        return 1
    return 0


def _cmd_verify_profile(args):
    """Verify a traced run's energy signature against a golden."""
    import json

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
        print(f"verify-profile: {exc}", file=sys.stderr)
        return 2
    # Write the JSON before printing the report so a closed stdout
    # still leaves the artifact on disk (same contract as `repro diff`).
    if args.json:
        import os

        out_dir = os.path.dirname(args.json)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(diff.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(diff.render(max_phases=args.max_phases))
    if args.json:
        print(f"wrote {args.json}")
    if diff.regression:
        return 1
    return 0


def build_parser():
    """Build the argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Energy-aware adaptation for mobile "
                    "applications' (SOSP 1999).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p):
        """Flags shared by every experiment-running command."""
        p.add_argument("--trace", default=None, metavar="PREFIX",
                       help="record a trace of the run; writes "
                            "PREFIX.jsonl and PREFIX.trace.json")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics snapshot as JSON")

    def add_matrix_flags(p):
        """The policy-diff-matrix mode shared by sweep and submit."""
        p.add_argument("--diff-against", default=None, metavar="SPEC",
                       help="run a policy diff matrix instead of the "
                            "fidelity sweep: every candidate policy "
                            "diffs against this baseline policy spec "
                            "('default', or 'key=value,...' — e.g. "
                            "'hysteresis=off,lookahead=on')")
        p.add_argument("--candidate", action="append", default=None,
                       metavar="SPEC",
                       help="add a candidate policy spec (repeatable; "
                            "default: the hysteresis x lookahead grid)")
        p.add_argument("--vary", action="append", default=None,
                       metavar="KEY=V1,V2",
                       help="sweep a policy key over listed values; "
                            "repeat for a cross product (e.g. "
                            "--vary hysteresis=on,off "
                            "--vary horizon=6,12)")
        p.add_argument("--scenario", default=None, metavar="SPEC",
                       help="shared scenario params for every variant "
                            "(e.g. 'goal_seconds=120,"
                            "initial_energy=1000')")
        p.add_argument("--devices", default=None, metavar="PATH",
                       help="fan the matrix across a device fleet read "
                            "from a calibration file (see "
                            "repro.devices.write_fleet); one row per "
                            "(device, policy) pair")
        p.add_argument("--fleet-size", type=_positive_int, default=None,
                       metavar="N",
                       help="fan the matrix across N generated devices "
                            "(byte-stable per --fleet-seed) instead of "
                            "a fleet file")
        p.add_argument("--fleet-seed", type=int, default=0, metavar="S",
                       help="seed for --fleet-size device generation "
                            "(default 0)")
        p.add_argument("--matrix-out", default=None, metavar="PATH",
                       help="write the matrix as canonical JSON — "
                            "byte-identical across serial, --jobs N, "
                            "cache-warm, and service-submitted runs")
        p.add_argument("--fail-on-divergence", action="store_true",
                       help="exit 1 when any candidate row violates "
                            "the thresholds below (with none set: any "
                            "divergence from the baseline at all)")
        p.add_argument("--max-windows", type=_nonnegative_int,
                       default=None, metavar="N",
                       help="allow up to N divergence windows per row")
        p.add_argument("--max-delta-j", type=float, default=None,
                       metavar="J",
                       help="allow up to J joules of absolute energy "
                            "delta per row")
        p.add_argument("--max-shape-distance", type=float, default=None,
                       metavar="D",
                       help="allow up to D signature shape distance "
                            "per row")

    for fig, label in (
        ("fig06", "Figure 6 — video energy by fidelity"),
        ("fig08", "Figure 8 — speech energy by strategy"),
        ("fig10", "Figure 10 — map energy by fidelity"),
        ("fig13", "Figure 13 — Web energy by JPEG quality"),
    ):
        p = sub.add_parser(fig, help=label)
        p.add_argument("--think", type=float, default=None,
                       help="think time in seconds (map/web only)")
        p.add_argument("--csv", help="also write the table as CSV")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="run the table's cells on N fleet workers")
        add_obs_flags(p)

    p = sub.add_parser("goal", help="run one goal-directed experiment")
    p.add_argument("--energy", type=_positive_float, default=6000.0,
                   help="initial energy in joules")
    p.add_argument("--goal", type=_positive_float, default=None,
                   help="battery-duration goal in seconds (derived if omitted)")
    p.add_argument("--halflife", type=_positive_float, default=0.10,
                   help="smoothing half-life fraction")
    p.add_argument("--csv", help="write the supply/demand/fidelity trace as CSV")
    p.add_argument("--no-chart", action="store_true",
                   help="skip the ASCII supply/demand chart")
    add_obs_flags(p)

    p = sub.add_parser("profile", help="PowerScope profile of video playback")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--rate", type=float, default=600.0,
                   help="sampling rate in Hz")
    p.add_argument("--no-pm", action="store_true",
                   help="disable hardware power management")
    add_obs_flags(p)

    p = sub.add_parser(
        "trace",
        help="run one experiment under the tracer and export JSONL, "
             "Chrome trace JSON, and a metrics snapshot",
    )
    p.add_argument("experiment", choices=("goal", "bursty", "video"),
                   help="which experiment to trace")
    p.add_argument("--out", default="trace/run", metavar="PREFIX",
                   help="output prefix (default trace/run → trace/run.jsonl, "
                        "trace/run.trace.json, trace/run.metrics.json)")
    p.add_argument("--ring", type=_positive_int, default=None,
                   help="ring-buffer capacity (default: unbounded)")
    p.add_argument("--categories", nargs="*", default=None,
                   choices=("sim", "power", "core", "powerscope", "fleet",
                            "branch", "service", "workload", "calibration"),
                   help="restrict tracing to these categories")
    p.add_argument("--goal", type=_positive_float, default=None,
                   help="goal seconds (goal/bursty; default 400, "
                        "or 290 with --pulse/--lookahead)")
    p.add_argument("--energy", type=_positive_float, default=None,
                   help="initial energy in joules (goal; default 6000, "
                        "or 2400 with --pulse/--lookahead)")
    p.add_argument("--pulse", action="store_true",
                   help="run the snapshot-capable pulse scenario instead "
                        "of the generator-based goal rig (goal only)")
    p.add_argument("--lookahead", action="store_true",
                   help="vet adaptation decisions with what-if "
                        "branches (implies --pulse); branch verdicts "
                        "are traced on the 'branch' category")
    p.add_argument("--horizon", type=_positive_float, default=None,
                   help="lookahead branch horizon in seconds (default 12)")
    p.add_argument("--beam", type=_positive_int, default=None, metavar="W",
                   help="beam-search adaptation schedules with width W "
                        "(implies --lookahead); keeps the W best-margin "
                        "schedules per stage")
    p.add_argument("--depth", type=_positive_int, default=None,
                   help="beam stages across the horizon (default 2; "
                        "only with --beam)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (bursty)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="playback seconds (video)")
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

    p = sub.add_parser(
        "calibrate",
        help="check headline savings percentages against the paper's "
             "published bands; exits nonzero on any MISS",
    )
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the structured report as JSON")

    p = sub.add_parser(
        "diff",
        help="align two traced runs on decision ids and report "
             "divergence windows with attributed energy deltas",
    )
    p.add_argument("left", help="baseline trace (PREFIX.jsonl)")
    p.add_argument("right", help="candidate trace (PREFIX.jsonl)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the diff as deterministic JSON")
    p.add_argument("--gap", type=_nonnegative_int, default=0,
                   help="merge divergence windows separated by at most "
                        "this many matching decisions (default 0)")
    p.add_argument("--max-windows", type=_positive_int, default=10,
                   help="windows to show in the text report (default 10)")
    p.add_argument("--fail-on-divergence", action="store_true",
                   help="exit 1 if the decision spines differ (CI gate)")

    p = sub.add_parser(
        "verify-profile",
        help="verify a traced run's per-phase energy signature against "
             "a golden; exits 1 when behaviour matches but energy does "
             "not (or 2 on unreadable inputs)",
    )
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
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the signature diff as deterministic "
                        "JSON")
    p.add_argument("--max-phases", type=_positive_int, default=10,
                   help="out-of-band phases to show in the text report "
                        "(default 10)")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="explicit CI marker; regressions already exit 1")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the metrics snapshot (signature.* series) "
                        "as JSON")

    p = sub.add_parser(
        "export-figures", help="write every figure's plot data as CSV"
    )
    p.add_argument("directory", help="output directory")
    p.add_argument("--figures", nargs="*", default=None,
                   help="subset of figure ids (default: all)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="regenerate figures on N fleet workers")
    p.add_argument("--cache-dir", default=None,
                   help="fleet result cache directory (re-runs are free)")

    p = sub.add_parser(
        "bench",
        help="micro-benchmarks of the engine/accounting/snapshot hot paths",
    )
    p.add_argument("--quick", action="store_true",
                   help="small workloads for CI smoke use")
    p.add_argument("--out", default="BENCH_core.json",
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

    p = sub.add_parser(
        "report", help="headline results across all experiments"
    )
    p.add_argument("--no-goal", action="store_true",
                   help="skip the goal-directed experiments")
    p.add_argument("--no-concurrency", action="store_true",
                   help="skip the concurrency experiment")
    p.add_argument("--energy", type=float, default=6000.0,
                   help="initial energy for the goal experiments")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="run the fidelity tables on N fleet workers")
    add_obs_flags(p)

    p = sub.add_parser(
        "sweep",
        help="run the fidelity studies as one parallel fleet campaign",
    )
    p.add_argument("--apps", nargs="*", default=None,
                   choices=("video", "speech", "map", "web"),
                   help="subset of applications (default: all four)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: one per CPU)")
    p.add_argument("--trials", type=_positive_int, default=1,
                   help="jittered trials per cell (1 = calibration run)")
    p.add_argument("--think", type=float, default=None,
                   help="think time in seconds (map/web)")
    p.add_argument("--cache-dir", default=None,
                   help="fleet result cache directory (re-runs are free)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task wall-clock budget in seconds")
    p.add_argument("--retries", type=_nonnegative_int, default=2,
                   help="extra attempts per failing task")
    p.add_argument("--progress", action="store_true",
                   help="print a line per finished task")
    p.add_argument("--csv-dir", default=None,
                   help="also write one CSV per application table")
    p.add_argument("--results-out", default=None, metavar="PATH",
                   help="write the raw task values as canonical JSON "
                        "(byte-comparable with `repro result --out`)")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="write the campaign telemetry snapshot as JSON")
    p.add_argument("--worker-trace", action="store_true",
                   help="collect in-worker ring traces and merge them "
                        "into the coordinator trace on per-task tracks "
                        "(needs --trace)")
    add_matrix_flags(p)
    add_obs_flags(p)

    p = sub.add_parser(
        "snapshot",
        help="checkpoint/fork the pulse scenario: determinism roundtrip, "
             "a warm-started extension sweep, or store pruning",
    )
    p.add_argument("mode", choices=("roundtrip", "sweep", "gc"),
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
    p.add_argument("--at", type=_nonnegative_float, default=120.0,
                   help="capture / extension instant in sim seconds "
                        "(default 120)")
    p.add_argument("--lookahead", action="store_true",
                   help="roundtrip: use the lookahead controller; "
                        "sweep: add the lookahead policy as a second axis")
    p.add_argument("--horizon", type=_positive_float, default=12.0,
                   help="lookahead branch horizon in seconds (default 12)")
    p.add_argument("--extensions", nargs="*", type=_nonnegative_float,
                   default=(0.0, 20.0, 40.0),
                   help="goal extensions in seconds to sweep (default "
                        "0 20 40)")
    p.add_argument("--snapshot-dir", default=None, metavar="DIR",
                   help="snapshot store directory; omitting it runs the "
                        "sweep cold (every prefix re-simulated)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes for the sweep (default: serial)")
    p.add_argument("--verify-cold", action="store_true",
                   help="re-run every sweep point cold and fail unless the "
                        "warm results are identical")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="write the campaign telemetry snapshot as JSON")
    add_obs_flags(p)

    # ------------------------------------------------------------------
    # campaign service
    # ------------------------------------------------------------------
    from repro.service.client import DEFAULT_ENDPOINT

    def add_endpoint(p):
        p.add_argument("--endpoint", default=DEFAULT_ENDPOINT,
                       help=f"service base URL (default {DEFAULT_ENDPOINT})")

    p = sub.add_parser(
        "serve",
        help="start the persistent campaign service: a warm worker pool "
             "serving submitted campaigns over local HTTP",
    )
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="warm pool size (default 2)")
    p.add_argument("--cache-dir", default=None,
                   help="shared result cache directory (all clients "
                        "benefit from each other's completed tasks)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7341,
                   help="listen port (default 7341; 0 picks a free port)")
    p.add_argument("--retries", type=_nonnegative_int, default=2,
                   help="default extra attempts per failing task")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-task wall-clock budget in seconds")
    p.add_argument("--heartbeat", type=float, default=0.2,
                   help="worker heartbeat period in seconds (default 0.2)")
    p.add_argument("--heartbeat-timeout", type=float, default=5.0,
                   help="declare a worker dead after this long without a "
                        "heartbeat (default 5.0)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    add_obs_flags(p)

    p = sub.add_parser(
        "submit", help="submit a campaign to a running service"
    )
    add_endpoint(p)
    p.add_argument("--sweep", action="store_true",
                   help="submit the fidelity-study sweep campaign "
                        "(the default; same campaign as `repro sweep`)")
    p.add_argument("--spec", default=None, metavar="PATH",
                   help="submit a campaign spec from a JSON file instead")
    p.add_argument("--apps", nargs="*", default=None,
                   choices=("video", "speech", "map", "web"),
                   help="sweep: subset of applications")
    p.add_argument("--trials", type=_positive_int, default=1,
                   help="sweep: jittered trials per cell")
    p.add_argument("--think", type=float, default=None,
                   help="sweep: think time in seconds (map/web)")
    p.add_argument("--queue", default="default",
                   help="named queue to submit into (default 'default')")
    p.add_argument("--priority", type=int, default=0,
                   help="priority within the queue (higher runs first)")
    p.add_argument("--client", default=None,
                   help="client label recorded on the job")
    p.add_argument("--retries", type=_nonnegative_int, default=None,
                   help="override the service's per-task retry budget")
    p.add_argument("--timeout", type=float, default=None,
                   help="override the service's per-task timeout")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal; exit nonzero "
                        "if any task permanently failed")
    p.add_argument("--wait-timeout", type=float, default=None,
                   help="give up waiting after this many seconds")
    p.add_argument("--results-out", default=None, metavar="PATH",
                   help="with --wait: write the raw task values as "
                        "canonical JSON (byte-comparable with "
                        "`repro sweep --results-out`)")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="with --wait: write the job telemetry as JSON")
    add_matrix_flags(p)

    p = sub.add_parser("status", help="one job's state and progress")
    p.add_argument("job_id")
    add_endpoint(p)

    p = sub.add_parser(
        "result", help="fetch a terminal job's values and telemetry"
    )
    p.add_argument("job_id")
    add_endpoint(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the raw task values as canonical JSON")
    p.add_argument("--telemetry-out", default=None, metavar="PATH",
                   help="write the job telemetry as JSON")

    p = sub.add_parser(
        "queues", help="per-queue depths and the worker table"
    )
    add_endpoint(p)

    return parser


def _cmd_bench(args):
    import json
    import os

    from repro.perf import (
        compare,
        render_bench_table,
        render_comparison,
        run_benchmarks,
    )
    from repro.perf.bench import load_results

    def write_out(results):
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    results = run_benchmarks(
        quick=args.quick, only=args.only, repeats=args.repeats
    )
    print(render_bench_table(results))
    if args.out:
        write_out(results)
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
            write_out(results)
        print()
        print(render_comparison(rows, max_regression=args.max_regression))
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("no regressions vs baseline")
    return 0


def _cmd_snapshot(args):
    if args.mode == "roundtrip":
        return _cmd_snapshot_roundtrip(args)
    if args.mode == "gc":
        return _cmd_snapshot_gc(args)
    return _cmd_snapshot_sweep(args)


def _cmd_snapshot_gc(args):
    """Prune old snapshots from the store, keeping pinned + the newest N."""
    from repro.snapshot.disk import SnapshotStore

    if args.snapshot_dir is None:
        print("error: gc needs --snapshot-dir", file=sys.stderr)
        return 2
    if args.keep_latest is None:
        print("error: gc needs --keep-latest N", file=sys.stderr)
        return 2
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


def _cmd_snapshot_roundtrip(args):
    """Fork-determinism check: capture mid-run, finish both, compare."""
    from repro.fleet.spec import canonical_json
    from repro.snapshot import Snapshot
    from repro.snapshot.scenario import build_pulse_scenario

    kwargs = {"lookahead": args.lookahead, "horizon": args.horizon}
    reference = build_pulse_scenario(**kwargs).start().run()
    interrupted = build_pulse_scenario(**kwargs).start().run(until=args.at)
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

    axis = (False, True) if args.lookahead else (False,)
    warm = args.snapshot_dir is not None
    if not warm:
        print("no --snapshot-dir: running cold (no prefix reuse)")
    spec = build_warm_campaign(
        extensions=tuple(args.extensions), lookahead_axis=axis,
        extend_at=args.at, warm=warm, snapshot_dir=args.snapshot_dir,
        horizon=args.horizon,
    )
    runner = FleetRunner(jobs=args.jobs if args.jobs is not None else 1)
    result = runner.run(spec)
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
    print(result.telemetry.render())
    if args.telemetry_out:
        import json

        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            json.dump(result.telemetry.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.telemetry_out}")
    for failure in result.failures:
        print(f"FAILED {failure.task_id} "
              f"(attempts {failure.attempts}): {failure.error}")
    code = 0 if result.ok else 1
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


def _matrix_spec(args):
    """Build the policy-matrix campaign a matrix-mode invocation names."""
    import itertools

    from repro.fleet.diffmatrix import (
        DEFAULT_GRID,
        SCENARIO_KEYS,
        parse_policy_spec,
        policy_matrix_campaign,
    )

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

        devices = generate_fleet(args.fleet_size, args.fleet_seed)
    return policy_matrix_campaign(candidates, baseline=baseline,
                                  scenario=scenario, devices=devices)


def _matrix_finish(spec, values, args):
    """Fold, render, persist, and gate a completed matrix campaign."""
    from repro.fleet.diffmatrix import matrix_from_values

    matrix = matrix_from_values(spec, values)
    if args.matrix_out:
        import os

        out_dir = os.path.dirname(args.matrix_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.matrix_out, "w", encoding="utf-8") as handle:
            handle.write(matrix.document())
        print(f"wrote {args.matrix_out}")
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


def _cmd_sweep_matrix(args):
    """``repro sweep --diff-against``: the policy diff matrix."""
    from repro.fleet import FleetRunner, ProgressPrinter

    try:
        spec = _matrix_spec(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    printer = ProgressPrinter() if args.progress else None
    runner = FleetRunner(
        jobs=args.jobs, timeout_s=args.timeout, retries=args.retries,
        cache=args.cache_dir, progress=printer,
        worker_trace=args.worker_trace,
    )
    result = runner.run(spec)
    if printer is not None:
        printer.close()
    code = _matrix_finish(spec, result.values, args)
    print(result.telemetry.render())
    if args.results_out:
        from repro.service.jobs import results_document

        with open(args.results_out, "w", encoding="utf-8") as handle:
            handle.write(results_document(result.spec.name, result.values))
        print(f"wrote {args.results_out}")
    if args.telemetry_out:
        import json

        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            json.dump(result.telemetry.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.telemetry_out}")
    for failure in result.failures:
        print(f"FAILED {failure.task_id} "
              f"(attempts {failure.attempts}): {failure.error}")
    if not result.ok:
        return 1
    return code


def _cmd_sweep(args):
    from repro.fleet import ProgressPrinter, run_sweep

    if args.diff_against is not None:
        return _cmd_sweep_matrix(args)
    printer = ProgressPrinter() if args.progress else None
    tables, result = run_sweep(
        apps=args.apps,
        jobs=args.jobs,
        trials=args.trials,
        think_time_s=args.think,
        cache=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=printer,
        worker_trace=args.worker_trace,
    )
    if printer is not None:
        printer.close()
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
        if args.trials > 1:
            title += f" — mean ± 90% CI over {args.trials} trials"
        print(render_table([f"{app} (J)"] + objects, rows, title=title))
        print()
        if args.csv_dir:
            import os

            os.makedirs(args.csv_dir, exist_ok=True)
            means = {
                config: {
                    obj: (cell.mean if hasattr(cell, "mean") else cell)
                    for obj, cell in row.items()
                }
                for config, row in table.items()
            }
            path = os.path.join(args.csv_dir, f"sweep_{app}.csv")
            write_csv(path, energy_table_csv(means, objects))
            print(f"wrote {path}")
    print(result.telemetry.render())
    if args.results_out:
        from repro.service.jobs import results_document

        with open(args.results_out, "w", encoding="utf-8") as handle:
            handle.write(results_document(result.spec.name, result.values))
        print(f"wrote {args.results_out}")
    if args.telemetry_out:
        import json

        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            json.dump(result.telemetry.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.telemetry_out}")
    for failure in result.failures:
        print(f"FAILED {failure.task_id} "
              f"(attempts {failure.attempts}): {failure.error}")
    return 0 if result.ok else 1


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
        import json

        with open(args.spec, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
    if getattr(args, "diff_against", None) is not None:
        # The same campaign `repro sweep --diff-against` runs, so the
        # folded matrix is byte-comparable with the one-shot path.
        return _matrix_spec(args)
    # --sweep (the default): the same campaign `repro sweep` runs, so
    # service results are byte-comparable with the one-shot path.
    from repro.fleet.campaigns import sweep_campaign

    return sweep_campaign(apps=args.apps, think_time_s=args.think,
                          trials=args.trials)


def _write_result_artifacts(payload, results_out=None, telemetry_out=None):
    from repro.service.jobs import results_document

    if results_out:
        with open(results_out, "w", encoding="utf-8") as handle:
            handle.write(results_document(payload["campaign"],
                                          payload["values"]))
        print(f"wrote {results_out}")
    if telemetry_out:
        import json

        with open(telemetry_out, "w", encoding="utf-8") as handle:
            json.dump(payload["telemetry"], handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {telemetry_out}")


def _print_job_outcome(payload):
    """Common terminal-job rendering for submit --wait / result."""
    telemetry = payload["telemetry"]
    print(f"job {payload['job_id']} ({payload['campaign']}): "
          f"{payload['state']} — {telemetry['done']}/{telemetry['total']} "
          f"tasks, {telemetry['cached']} cached, "
          f"{telemetry['failed']} failed, wall {telemetry['wall_s']:.2f}s")
    for failure in payload.get("failures", ()):
        print(f"FAILED {failure['task_id']} "
              f"(attempts {failure['attempts']}): {failure['error']}")


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.endpoint)


def _cmd_submit(args):
    from repro.service import ServiceError, ServiceUnavailable

    try:
        try:
            spec = _load_spec(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_job_outcome(payload)
    _write_result_artifacts(payload, results_out=args.results_out,
                            telemetry_out=args.telemetry_out)
    matrix_code = 0
    if args.diff_against is not None:
        matrix_code = _matrix_finish(spec, payload["values"], args)
    # Like `repro sweep`: any permanently failed task is a nonzero exit.
    if payload["state"] != "done":
        return 1
    return matrix_code


def _cmd_status(args):
    from repro.service import ServiceError

    try:
        status = _service_client(args).status(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    from repro.service import ServiceError

    try:
        payload = _service_client(args).result(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_job_outcome(payload)
    _write_result_artifacts(payload, results_out=args.out,
                            telemetry_out=args.telemetry_out)
    return 0 if payload["state"] == "done" else 1


def _cmd_queues(args):
    from repro.service import ServiceError

    try:
        client = _service_client(args)
        queues = client.queues()
        workers = client.workers()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_prefix = getattr(args, "trace", None)
    if args.command != "trace" and trace_prefix:
        import os

        from repro.obs import Tracer, installed
        from repro.obs.export import write_chrome_trace, write_events_jsonl

        tracer = Tracer()
        with installed(tracer):
            code = _dispatch(args)
            tracer.flush()
        out_dir = os.path.dirname(trace_prefix)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        events = list(tracer.events)
        write_events_jsonl(events, trace_prefix + ".jsonl")
        write_chrome_trace(events, trace_prefix + ".trace.json")
        print(f"wrote {trace_prefix}.jsonl and {trace_prefix}.trace.json "
              f"({len(events)} events)")
    else:
        code = _dispatch(args)
    if getattr(args, "metrics_out", None):
        from repro.obs.export import write_metrics
        from repro.obs.metrics import current_metrics

        write_metrics(current_metrics(), args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return code


def _dispatch(args):
    if args.command == "fig06":
        from repro.experiments import video_energy_table

        table_fn = lambda **kw: video_energy_table()
        return _cmd_energy_table(args, table_fn, "Figure 6 — video",
                                 app="video")
    if args.command == "fig08":
        from repro.experiments import speech_energy_table

        table_fn = lambda **kw: speech_energy_table()
        return _cmd_energy_table(args, table_fn, "Figure 8 — speech",
                                 app="speech")
    if args.command == "fig10":
        from repro.experiments import map_energy_table

        return _cmd_energy_table(args, map_energy_table, "Figure 10 — map",
                                 app="map")
    if args.command == "fig13":
        from repro.experiments import web_energy_table

        return _cmd_energy_table(args, web_energy_table, "Figure 13 — web",
                                 app="web")
    if args.command == "goal":
        return _cmd_goal(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "verify-profile":
        return _cmd_verify_profile(args)
    if args.command == "export-figures":
        from repro.experiments import export_figures

        written = export_figures(args.directory, figures=args.figures,
                                 jobs=args.jobs, cache=args.cache_dir)
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.command == "report":
        from repro.experiments import full_report, render_report

        report = full_report(
            include_concurrency=not args.no_concurrency,
            include_goal=not args.no_goal,
            goal_energy=args.energy,
            jobs=args.jobs,
        )
        print(render_report(report))
        return 0
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "result":
        return _cmd_result(args)
    if args.command == "queues":
        return _cmd_queues(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
