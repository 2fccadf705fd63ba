"""Energy signatures: determinism, sensitivity, and the CLI gate.

A signature must be a pure function of the traced event payloads
(identical across runs and indifferent to wall-clock), verify cleanly
against itself and against the committed golden, and *fail* — naming
the offending phase — when the power accounting moves while behaviour
does not.
"""

import copy
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.obs.diff import decision_spine
from repro.obs.export import power_spans, read_events_jsonl, write_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.signature import (
    SignatureError,
    compute_signature,
    diff_signatures,
    read_signature,
    verify_signature,
    write_signature,
)
from tests.golden_scenarios import (
    SIGNATURE_SCENARIOS,
    run_scenario_events,
    signature_path,
)


@pytest.fixture(scope="module")
def pulse_events():
    """One traced goal-pulse run (the scenario with a committed
    ``goal-pulse.sig.json`` golden)."""
    return run_scenario_events("goal-pulse")


@pytest.fixture(scope="module")
def pulse_signature(pulse_events):
    return compute_signature(pulse_events)


def _perturb_power(events, factor, t0, t1):
    """Scale power spans overlapping [t0, t1) — a hot power table."""
    perturbed = []
    for event in events:
        record = copy.deepcopy(event.to_dict())
        if (record.get("cat") == "power" and record.get("name") == "span"
                and record["ts"] < t1
                and record["ts"] + record.get("dur", 0.0) > t0):
            args = record["args"]
            args["watts"] *= factor
            for name in list(args.get("components") or ()):
                args["components"][name] *= factor
        perturbed.append(record)
    return perturbed


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_signature_deterministic_across_runs(pulse_events, pulse_signature):
    rerun = compute_signature(run_scenario_events("goal-pulse"))
    assert json.dumps(rerun, sort_keys=True) == json.dumps(
        pulse_signature, sort_keys=True)


def test_signature_ignores_wall_clock(pulse_events, pulse_signature):
    """Wall stamps differ every run; the signature must not see them."""
    shifted = []
    for event in pulse_events:
        record = copy.deepcopy(event.to_dict())
        record["wall"] = record.get("wall", 0.0) + 1e6
        shifted.append(record)
    assert json.dumps(compute_signature(shifted), sort_keys=True) == (
        json.dumps(pulse_signature, sort_keys=True))


@pytest.mark.parametrize("name", SIGNATURE_SCENARIOS)
def test_event_and_dict_inputs_give_the_golden_bytes(tmp_path, name):
    """Live ``TraceEvent``s, their ``to_dict`` records and the records
    read back from an exported JSONL file reduce to the same spine, the
    same span index and the blessed signature bytes; a caller-supplied
    spine and span index change nothing."""
    events = run_scenario_events(name)
    records = [event.to_dict() for event in events]
    log = os.path.join(str(tmp_path), f"{name}.jsonl")
    write_events_jsonl(events, log)
    inputs = {"events": events, "dicts": records,
              "jsonl": read_events_jsonl(log)}
    with open(signature_path(name), encoding="utf-8") as handle:
        golden = handle.read()

    spine = decision_spine(events)
    spans = power_spans(events)
    for kind, stream in inputs.items():
        assert ([entry.to_dict() for entry in decision_spine(stream)]
                == [entry.to_dict() for entry in spine]), kind
        assert power_spans(stream) == spans, kind
        path = os.path.join(str(tmp_path), f"{kind}.sig.json")
        write_signature(compute_signature(stream), path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == golden, kind
    assert (compute_signature(events, spine=spine, spans=spans)
            == compute_signature(events))


def test_signature_json_roundtrip(tmp_path, pulse_signature):
    path = os.path.join(str(tmp_path), "pulse.sig.json")
    write_signature(pulse_signature, path)
    assert read_signature(path) == pulse_signature


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def test_self_verify_clean(pulse_events, pulse_signature):
    diff = verify_signature(pulse_events, pulse_signature)
    assert diff.behaviour_match
    assert not diff.regression
    assert diff.shape_distance == 0.0
    assert diff.first_offender is None


def test_verify_against_committed_golden(pulse_events):
    """The acceptance check: an unmodified run passes the committed
    golden."""
    golden = read_signature(signature_path("goal-pulse"))
    diff = verify_signature(pulse_events, golden)
    assert not diff.regression, "\n" + diff.render()


def test_perturbed_power_table_flags_phase(pulse_events, pulse_signature):
    """Same decisions, hotter watts mid-run: behaviour matches, energy
    does not, and the offending phase carries a nonzero delta."""
    t0, t1 = pulse_signature["t0"], pulse_signature["t1"]
    window = (t0 + 0.3 * (t1 - t0), t0 + 0.5 * (t1 - t0))
    perturbed = _perturb_power(pulse_events, 1.4, *window)
    diff = verify_signature(perturbed, pulse_signature)
    assert diff.behaviour_match, "perturbation must not move the spine"
    assert diff.regression
    offenders = diff.out_of_band
    assert offenders and all(p["delta_j"] != 0.0 for p in offenders)
    assert diff.first_offender == offenders[0]["id"]


def test_committed_goldens_disagree_on_behaviour():
    """Hysteresis-off decides differently: its signature must be a
    behaviour-mismatch regression against the default golden."""
    default = read_signature(signature_path("goal-default"))
    no_hyst = read_signature(signature_path("goal-hysteresis-off"))
    diff = diff_signatures(default, no_hyst)
    assert not diff.behaviour_match
    assert diff.regression


def test_tolerance_bands_loosen(pulse_events, pulse_signature):
    t0, t1 = pulse_signature["t0"], pulse_signature["t1"]
    perturbed = _perturb_power(pulse_events, 1.04, t0, t1)
    strict = verify_signature(perturbed, pulse_signature,
                              rel_tolerance=0.001, abs_tolerance_j=0.001)
    loose = verify_signature(perturbed, pulse_signature,
                             rel_tolerance=0.10, abs_tolerance_j=2.0)
    assert strict.regression
    assert not loose.regression


def test_empty_stream_rejected():
    with pytest.raises(SignatureError):
        compute_signature([])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_signature_metrics(pulse_events, pulse_signature):
    registry = MetricsRegistry()
    compute_signature(pulse_events, metrics=registry)
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["signature.phase_count"] == (
        pulse_signature["phase_count"])
    assert snapshot["histograms"]["signature.compute_s"]["count"] == 1

    tampered = copy.deepcopy(pulse_signature)
    tampered["phases"][0]["joules"] += 500.0
    verify_signature(pulse_events, tampered, metrics=registry)
    assert registry.snapshot()["counters"]["signature.verify_failures"] == 1


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------
def test_cli_verify_profile_exit_codes(tmp_path, capsys, pulse_events,
                                       pulse_signature):
    run_path = os.path.join(str(tmp_path), "run.jsonl")
    write_events_jsonl(pulse_events, run_path)
    sig_path = os.path.join(str(tmp_path), "golden.sig.json")
    write_signature(pulse_signature, sig_path)

    assert cli_main(["verify-profile", run_path,
                     "--against", sig_path]) == 0
    out = capsys.readouterr().out
    assert "verdict: clean" in out

    tampered = copy.deepcopy(pulse_signature)
    tampered["phases"][0]["joules"] += 500.0
    bad_path = os.path.join(str(tmp_path), "tampered.sig.json")
    write_signature(tampered, bad_path)
    report_path = os.path.join(str(tmp_path), "report.json")
    assert cli_main(["verify-profile", run_path, "--against", bad_path,
                     "--json", report_path,
                     "--fail-on-regression"]) == 1
    out = capsys.readouterr().out
    assert "verdict: REGRESSION" in out
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["regression"] and report["first_offender"]

    missing = os.path.join(str(tmp_path), "missing.sig.json")
    assert cli_main(["verify-profile", run_path,
                     "--against", missing]) == 2
    not_a_sig = os.path.join(str(tmp_path), "plain.json")
    with open(not_a_sig, "w", encoding="utf-8") as handle:
        handle.write("{}\n")
    assert cli_main(["verify-profile", run_path,
                     "--against", not_a_sig]) == 2
