"""Repository benchmark: CPU time of what a user of ``repro`` runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

One run builds the workload's set-up, runs one untimed warm-up
operation, then runs fresh seeded operations until ``--seconds`` of
wall time have passed (at least ``MIN_OPS``), and finally replays the
warm-up input to check the program is deterministic.  Every
operation's output is checked.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics:

* ``op_cpu_ratio``: the median, over operations, of the operation's CPU
  time divided by the CPU time of a fixed pure-Python reference loop
  run just before and just after it.  On a shared virtual machine the
  same operation's raw CPU time moves by a third between runs a minute
  apart; the ratio cancels the host's speed and still moves one for one
  with the cost of the program's own code.
* ``setup_s``: the median CPU seconds a fresh interpreter spends
  importing the workload's modules and building its inputs, measured
  ``SETUP_REPEATS`` times in child processes.

``--trace 1`` runs the same loop under cProfile and reports per-layer
figures instead (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Operations timed even when ``--seconds`` runs out first.
MIN_OPS = 5
#: Fresh interpreters whose set-up is timed; the median is reported.
SETUP_REPEATS = 5
#: Iterations of the reference loop (about 25 ms of CPU).
REFERENCE_STEPS = 20_000
#: A child set-up that takes longer than this is a hang, not a result.
SETUP_TIMEOUT_S = 60.0

sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name, seed):
    """Median child CPU seconds to import and build the workload."""
    code = (f"import sys; sys.path[:0] = [{SRC_DIR!r}, {BENCH_DIR!r}]; "
            f"import workloads; "
            f"workloads.WORKLOADS[{name!r}]({seed}).make_input(0)")
    samples = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=SETUP_TIMEOUT_S)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append((after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"FAIL {label}: {problem}", file=sys.stderr)


class _Particle:
    __slots__ = ("t", "v")

    def __init__(self):
        self.t = 0.0
        self.v = 1.0

    def step(self, dt):
        self.t += dt
        self.v = self.v * 0.999 + dt
        return self.v


def reference_cpu():
    """CPU seconds of a fixed loop shaped like simulator code.

    Method calls, attribute updates, heap pushes, dict and tuple churn:
    the mix the program's own hot paths run, so host slowdowns hit the
    loop and the operations alike.  It never calls the program, so a
    change to the program cannot change it.
    """
    started = time.process_time()
    heap = []
    particles = [_Particle() for _ in range(256)]
    table = {}
    for k in range(REFERENCE_STEPS):
        value = particles[k & 255].step(0.001 * (k % 7))
        heapq.heappush(heap, (value, k))
        if len(heap) > 512:
            heapq.heappop(heap)
        table[(k & 511, "v")] = {"value": value, "k": k}
    return time.process_time() - started


def run_op(workload, k, tally, profile=None):
    """Run and check operation ``k``; return (cpu ratio, output).

    The ratio is the operation's CPU time over the mean of the
    reference loop's CPU time just before and just after it.
    """
    inputs = workload.make_input(k)
    gc.collect()
    before = reference_cpu()
    try:
        if profile is not None:
            profile.enable()
        started = time.process_time()
        output = workload.run(inputs)
        elapsed = time.process_time() - started
    except Exception:  # an operation failing is a result, not a crash
        if profile is not None:
            profile.disable()
        tally.record(f"op {k}", [traceback.format_exc()])
        return None, None
    if profile is not None:
        profile.disable()
    after = reference_cpu()
    tally.record(f"op {k}", workload.check(inputs, output))
    return elapsed / ((before + after) / 2), output


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"error: no repro sources at {SRC_DIR}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    try:
        setup_s = None if args.trace else measure_setup(args.workload,
                                                        args.seed)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        tally = Tally()
        _, warm = run_op(workload, 0, tally)
        reference = workload.digest(warm) if warm is not None else None

        profile = cProfile.Profile() if args.trace else None
        ratios = []
        deadline = time.monotonic() + args.seconds
        k = 1
        while len(ratios) < MIN_OPS or time.monotonic() < deadline:
            ratio, _ = run_op(workload, k, tally, profile)
            if ratio is not None:
                ratios.append(ratio)
            k += 1

        _, replay = run_op(workload, 0, tally)
        if replay is not None and workload.digest(replay) != reference:
            tally.failed += 1
            print("FAIL replay: operation 0 gave a different result the "
                  "second time", file=sys.stderr)
    finally:
        shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)

    if not ratios:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layers.layer_metrics(profile, len(ratios))
    else:
        metrics = {
            "op_cpu_ratio": (statistics.median(ratios), "x"),
            "setup_s": (setup_s, "s"),
        }
    print(f"{args.workload}: {len(ratios)} timed operations, "
          f"{tally.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
