#!/usr/bin/env python
"""Alternated perfbench pairs: a git revision against the working tree.

    python scripts/perfpairs.py REV [--workload W ...] [--pairs N] [--seconds S]

Checks ``REV`` out with ``git worktree`` under a temporary directory,
then runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
for i = 1..N on that checkout and on the working tree, swapping which
side runs first on every other pair so that a drift in host speed
falls on both sides alike.  The worktree is removed afterwards.

Prints, per workload and metric, the revision's median and quartiles,
the working tree's median, the median over pairs of the
change/revision ratio, and in how many pairs the change read lower.  Exits 1 if any run is not ``correct`` or
failed an operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("figures", "goal_traced", "lookahead", "fleet_matrix")


def run_once(checkout, workload, seed, seconds):
    """The result object perfbench prints last, for one run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, universal_newlines=True,
        check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs):
    """``[(metric, parent median, q1, q3, change median, ratio, lower)]``
    from ``[(parent result, change result)]`` pairs."""
    rows = []
    for metric in sorted(pairs[0][0]["metrics"]):
        parent = [p["metrics"][metric]["value"] for p, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        ratios = [c / p for p, c in zip(parent, change) if p]
        q1, q3 = quartiles(parent)
        rows.append((metric, statistics.median(parent), q1, q3,
                     statistics.median(change),
                     statistics.median(ratios) if ratios else float("nan"),
                     sum(c < p for p, c in zip(parent, change))))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the revision to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)

    scratch = tempfile.mkdtemp(prefix="perfpairs-")
    checkout = os.path.join(scratch, "rev")
    subprocess.run(["git", "worktree", "add", "--detach", checkout,
                    args.rev], cwd=ROOT, check=True)
    ok = True
    lines = [f"{'workload':<13} {'metric':<13} {'rev median':>10} "
             f"{'(q1-q3)':>19} {'change':>10} {'change/rev':>10} lower"]
    try:
        for workload in workloads:
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = [checkout, ROOT]
                if seed % 2 == 0:
                    order.reverse()
                results = {side: run_once(side, workload, seed,
                                          args.seconds) for side in order}
                for side, result in results.items():
                    if not result["correct"] or result["failed"]:
                        ok = False
                        print(f"NOT CORRECT: {workload} seed {seed} on "
                              f"{'rev' if side == checkout else 'change'}"
                              f" ({result['failed']} failed)")
                pairs.append((results[checkout], results[ROOT]))
            for (metric, median, q1, q3, change, ratio,
                 lower) in summarize(pairs):
                lines.append(f"{workload:<13} {metric:<13} {median:>10.4f} "
                             f"({q1:>8.4f}-{q3:<8.4f}) {change:>10.4f} "
                             f"{ratio:>10.3f} {lower}/{len(pairs)}")
        print("\n".join(lines))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", checkout],
                       cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
