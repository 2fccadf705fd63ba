#!/usr/bin/env python
"""Re-bless the golden decision spines under tests/goldens/.

Run this ONLY when a controller behaviour change is intentional::

    PYTHONPATH=src python scripts/regen_goldens.py [scenario ...]

With no arguments every scenario in tests/golden_scenarios.py is
regenerated; name scenarios to regenerate a subset.  Review the diff of
the golden files before committing — each changed line is a decision
the controller now takes differently, and ``python -m repro diff`` of
before/after traces is the readable view of the same change.

Pass ``--campaign`` to (also) re-bless the fleet campaign outcome
golden (task ordering + retry counts, ``tests/goldens/campaign-demo``).

Pass ``--signatures`` to (also) re-bless the per-phase energy
signatures (``tests/goldens/*.sig.json``) — the joule-vector goldens
``repro verify-profile`` checks runs against.  Review changed phases
the same way: each moved joule count is an energy-behaviour change.

Pass ``--profile`` to (also) re-bless the PowerScope profile golden
(``tests/goldens/profile-video.json``) — the ``EnergyProfile`` tables
of ``repro profile`` with and without ``--no-pm``.  Every number is
exact, so any change is a change in what the sampler attributes.

Pass ``--matrix`` to (also) re-bless the policy diff matrix golden
(``tests/goldens/policy-matrix.json``) — the N-way
``repro sweep --diff-against`` document over the pinned candidate
grid.  Each changed row is a policy whose energy/divergence profile
against the baseline moved.

Pass ``--fleet-matrix`` to (also) re-bless the fleet robustness matrix
golden (``tests/goldens/fleet-matrix.json``) — the per-device x
per-policy document over the pinned generated fleet
(``repro sweep --fleet-size 4 --fleet-seed 7 --diff-against default``).
"""

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.obs.diff import diff_spines, read_spine_jsonl, write_spine_jsonl  # noqa: E402
from tests.golden_scenarios import (  # noqa: E402
    CAMPAIGN_GOLDEN,
    FLEET_MATRIX_GOLDEN,
    GOLDEN_DIR,
    MATRIX_GOLDEN,
    PROFILE_GOLDEN,
    SCENARIOS,
    SIGNATURE_SCENARIOS,
    golden_path,
    fleet_matrix_golden_path,
    matrix_golden_path,
    profile_golden_path,
    run_campaign_scenario,
    run_fleet_matrix_scenario,
    run_matrix_scenario,
    run_profile_scenario,
    run_scenario,
    run_scenario_signature,
    signature_path,
)


def regen_campaign():
    path = os.path.join(GOLDEN_DIR, f"{CAMPAIGN_GOLDEN}.json")
    record = run_campaign_scenario()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            old = json.load(handle)
        if old == record:
            print(f"{CAMPAIGN_GOLDEN}: unchanged ({len(record)} tasks)")
            return
        print(f"{CAMPAIGN_GOLDEN}: outcome changed")
        for before, after in zip(old, record):
            if before != after:
                print(f"  {before} -> {after}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{CAMPAIGN_GOLDEN}: wrote {path} ({len(record)} tasks)")


def regen_profile():
    path = profile_golden_path()
    tables = run_profile_scenario()
    counts = ", ".join(f"{variant} {table['sample_count']}"
                       for variant, table in tables.items())
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if json.load(handle) == tables:
                print(f"{PROFILE_GOLDEN}: unchanged ({counts} samples)")
                return
        print(f"{PROFILE_GOLDEN}: profile tables changed — review the diff")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, indent=2)
        handle.write("\n")
    print(f"{PROFILE_GOLDEN}: wrote {path} ({counts} samples)")


def regen_matrix():
    path = matrix_golden_path()
    matrix = run_matrix_scenario()
    document = matrix.document()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if handle.read() == document:
                print(f"{MATRIX_GOLDEN}: unchanged "
                      f"({len(matrix.rows)} rows)")
                return
        print(f"{MATRIX_GOLDEN}: matrix changed — review the row diff")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"{MATRIX_GOLDEN}: wrote {path} ({len(matrix.rows)} rows)")


def regen_fleet_matrix():
    path = fleet_matrix_golden_path()
    matrix = run_fleet_matrix_scenario()
    document = matrix.document()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if handle.read() == document:
                print(f"{FLEET_MATRIX_GOLDEN}: unchanged "
                      f"({len(matrix.rows)} rows, "
                      f"{len(matrix.devices)} devices)")
                return
        print(f"{FLEET_MATRIX_GOLDEN}: matrix changed — review the row diff")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"{FLEET_MATRIX_GOLDEN}: wrote {path} ({len(matrix.rows)} rows, "
          f"{len(matrix.devices)} devices)")


def regen_signatures(names):
    from repro.obs.signature import diff_signatures, read_signature, \
        write_signature

    for name in names:
        path = signature_path(name)
        sig = run_scenario_signature(name)
        if os.path.exists(path):
            old = read_signature(path)
            diff = diff_signatures(old, sig)
            if not diff.out_of_band and diff.behaviour_match \
                    and old["phase_count"] == sig["phase_count"]:
                print(f"{name}: signature unchanged "
                      f"({sig['phase_count']} phases, "
                      f"{sig['total_joules']:.1f} J)")
                continue
            print(f"{name}: signature changed vs previous golden:")
            print("  " + diff.render().replace("\n", "\n  "))
        write_signature(sig, path)
        print(f"{name}: wrote {path} ({sig['phase_count']} phases, "
              f"{sig['total_joules']:.1f} J)")


FLAGS = ("--campaign", "--profile", "--matrix", "--fleet-matrix",
         "--signatures")


def main(argv):
    flags = {a for a in argv if a in FLAGS}
    argv = [a for a in argv if a not in FLAGS]
    if flags:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
    if "--campaign" in flags:
        regen_campaign()
    if "--profile" in flags:
        regen_profile()
    if "--matrix" in flags:
        regen_matrix()
    if "--fleet-matrix" in flags:
        regen_fleet_matrix()
    if "--signatures" in flags:
        sig_names = argv or list(SIGNATURE_SCENARIOS)
        unknown = [n for n in sig_names if n not in SIGNATURE_SCENARIOS]
        if unknown:
            print(f"no signature golden for: {', '.join(unknown)} "
                  f"(have: {', '.join(SIGNATURE_SCENARIOS)})",
                  file=sys.stderr)
            return 2
        regen_signatures(sig_names)
    if flags and not argv:
        return 0
    names = argv or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)} "
              f"(have: {', '.join(sorted(SCENARIOS))})", file=sys.stderr)
        return 2
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        path = golden_path(name)
        spine = run_scenario(name)
        if os.path.exists(path):
            old = read_spine_jsonl(path)
            diff = diff_spines(old, spine, label_a="old", label_b="new")
            if diff.identical:
                print(f"{name}: unchanged ({len(spine)} decisions)")
                continue
            print(f"{name}: {len(diff.windows)} divergence window(s) "
                  f"vs previous golden:")
            print("  " + diff.render().replace("\n", "\n  "))
        count = write_spine_jsonl(spine, path)
        print(f"{name}: wrote {path} ({count} decisions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
