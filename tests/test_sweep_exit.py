"""Exit-code regression tests: partially failed campaigns exit nonzero.

Historically a sweep with a permanently failed task crashed the table
renderer (KeyError on the missing cell) before the telemetry file was
written, instead of printing a partial table and exiting 1.  These
tests pin the intended behaviour for ``repro sweep`` and the service
path's ``repro submit --wait``.
"""

import json
import threading

import pytest

from repro import cli
from repro.fleet import CampaignSpec, FleetRunner, Task
from repro.fleet.campaigns import tables_from_result
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER


def partial_failure_result():
    """A sweep-shaped campaign with one permanently failed cell."""
    spec = CampaignSpec(
        name="sweep",
        tasks=(
            Task(id="video/base/clipA",
                 fn="repro.fleet.library:seeded_value", params={"seed": 1}),
            Task(id="video/base/clipB",
                 fn="repro.fleet.library:seeded_value", params={"seed": 2}),
            Task(id="video/premium/clipA",
                 fn="repro.fleet.library:always_fail",
                 params={"message": "cell exploded"}),
            Task(id="video/premium/clipB",
                 fn="repro.fleet.library:seeded_value", params={"seed": 3}),
        ),
    )
    runner = FleetRunner(jobs=1, retries=0, tracer=NULL_TRACER,
                         metrics=MetricsRegistry())
    return runner.run(spec)


class TestSweepExitCode:
    @pytest.fixture
    def patched_sweep(self, monkeypatch):
        result = partial_failure_result()
        tables = tables_from_result(result)

        def fake_run_sweep(**kwargs):
            return tables, result

        import repro.fleet

        monkeypatch.setattr(repro.fleet, "run_sweep", fake_run_sweep)
        return result

    def test_partial_failure_exits_nonzero(self, patched_sweep, capsys):
        code = cli.main(["sweep"])
        assert code == 1
        out = capsys.readouterr().out
        # The failure is reported, and the incomplete cell renders as
        # "-" instead of crashing the table.
        assert "FAILED video/premium/clipA" in out
        assert "cell exploded" in out
        assert "-" in out

    def test_partial_failure_still_writes_telemetry(self, patched_sweep,
                                                    tmp_path, capsys):
        telemetry_path = tmp_path / "telemetry.json"
        code = cli.main(["sweep", "--telemetry-out", str(telemetry_path)])
        assert code == 1
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["failed"] == 1
        assert telemetry["succeeded"] == 3

    def test_all_green_sweep_exits_zero(self, monkeypatch, tmp_path):
        spec = CampaignSpec(
            name="sweep",
            tasks=(
                Task(id="video/base/clipA",
                     fn="repro.fleet.library:seeded_value",
                     params={"seed": 1}),
            ),
        )
        result = FleetRunner(jobs=1, tracer=NULL_TRACER,
                             metrics=MetricsRegistry()).run(spec)
        tables = tables_from_result(result)
        import repro.fleet

        monkeypatch.setattr(repro.fleet, "run_sweep",
                            lambda **kw: (tables, result))
        results_path = tmp_path / "results.json"
        code = cli.main(["sweep", "--results-out", str(results_path)])
        assert code == 0
        document = json.loads(results_path.read_text())
        assert document["campaign"] == "sweep"
        assert set(document["values"]) == {"video/base/clipA"}


@pytest.fixture
def service_endpoint(tmp_path):
    """A live service + HTTP server for CLI-level submit tests."""
    from repro.service import CampaignService, serve

    service = CampaignService(workers=1, cache=tmp_path / "cache",
                              poll_s=0.02, backoff_s=0.01,
                              tracer=NULL_TRACER, metrics=MetricsRegistry())
    with service:
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.endpoint
        finally:
            server.shutdown()
            server.server_close()
            thread.join(2.0)


class TestSubmitExitCode:
    def write_spec(self, tmp_path, tasks):
        spec = CampaignSpec(name="cli-spec", tasks=tasks)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_failed_job_exits_nonzero(self, service_endpoint, tmp_path,
                                      capsys):
        spec_path = self.write_spec(tmp_path, (
            Task(id="bad", fn="repro.fleet.library:always_fail",
                 params={"message": "nope"}),
        ))
        telemetry_path = tmp_path / "telemetry.json"
        code = cli.main([
            "submit", "--spec", spec_path, "--endpoint", service_endpoint,
            "--wait", "--retries", "0",
            "--telemetry-out", str(telemetry_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED bad" in out
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["failed"] == 1

    def test_successful_job_exits_zero(self, service_endpoint, tmp_path):
        spec_path = self.write_spec(tmp_path, (
            Task(id="fine", fn="repro.fleet.library:seeded_value",
                 params={"seed": 4}),
        ))
        results_path = tmp_path / "results.json"
        code = cli.main([
            "submit", "--spec", spec_path, "--endpoint", service_endpoint,
            "--wait", "--results-out", str(results_path),
        ])
        assert code == 0
        document = json.loads(results_path.read_text())
        assert document["campaign"] == "cli-spec"

    def test_unreachable_service_exits_two(self, tmp_path):
        spec_path = self.write_spec(tmp_path, (
            Task(id="fine", fn="repro.fleet.library:seeded_value",
                 params={"seed": 4}),
        ))
        code = cli.main([
            "submit", "--spec", spec_path,
            "--endpoint", "http://127.0.0.1:1", "--wait",
        ])
        assert code == 2


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BAD_INPUTS = {
    "missing-devices-file": lambda tmp: [
        "sweep", "--diff-against", "default",
        "--devices", str(tmp / "missing.json")],
    "fleet-file-is-a-list": lambda tmp: [
        "sweep", "--diff-against", "default",
        "--devices", write_json(tmp / "fleet.json", [])],
    "device-without-id": lambda tmp: [
        "sweep", "--diff-against", "default",
        "--devices", write_json(tmp / "fleet.json", {
            "kind": "device-fleet", "version": 1,
            "devices": [{"battery_scale": 0.9}]})],
    "missing-submit-spec": lambda tmp: [
        "submit", "--spec", str(tmp / "missing.json")],
    # A flag the chosen mode does not read, or one without the flag it
    # needs, is refused before anything runs.
    "snapshot-gc-with-sweep-flags": lambda tmp: [
        "snapshot", "gc", "--snapshot-dir", str(tmp), "--keep-latest", "1",
        "--lookahead", "--extensions", "5", "--jobs", "3", "--verify-cold"],
    "snapshot-gc-without-store": lambda tmp: [
        "snapshot", "gc", "--keep-latest", "1"],
    "fidelity-sweep-with-matrix-flags": lambda tmp: [
        "sweep", "--apps", "map", "--candidate", "lookahead=on",
        "--fleet-size", "3", "--matrix-out", str(tmp / "m.json")],
    "matrix-with-apps": lambda tmp: [
        "sweep", "--diff-against", "default", "--apps", "map"],
    "submit-results-out-without-wait": lambda tmp: [
        "submit", "--results-out", str(tmp / "r.json")],
    "submit-spec-with-sweep-flags": lambda tmp: [
        "submit", "--spec", str(tmp / "missing.json"), "--trials", "2"],
    "worker-trace-without-trace": lambda tmp: [
        "sweep", "--apps", "map", "--worker-trace"],
    "fleet-seed-without-fleet-size": lambda tmp: [
        "sweep", "--diff-against", "default", "--fleet-seed", "3"],
    "threshold-without-gate": lambda tmp: [
        "sweep", "--diff-against", "default", "--max-delta-j", "5"],
    "bench-confirm-without-compare": lambda tmp: [
        "bench", "--confirm", "3"],
    "snapshot-horizon-without-lookahead": lambda tmp: [
        "snapshot", "roundtrip", "--horizon", "3"],
    "sweep-vary-horizon-without-lookahead": lambda tmp: [
        "sweep", "--diff-against", "default", "--vary", "horizon=6,12"],
    "report-without-goal-with-energy": lambda tmp: [
        "report", "--no-goal", "--energy", "5"],
    "export-figures-unknown-id": lambda tmp: [
        "export-figures", str(tmp / "figures"), "--figures", "bogus"],
    # An unwritable output path names the path, never a traceback.
    "calibrate-json-to-missing-dir": lambda tmp: [
        "calibrate", "--json", str(tmp / "missing" / "c.json")],
    "results-out-to-missing-dir": lambda tmp: [
        "sweep", "--apps", "map", "--jobs", "1",
        "--results-out", str(tmp / "missing" / "r.json")],
    "telemetry-out-to-missing-dir": lambda tmp: [
        "sweep", "--apps", "map", "--jobs", "1",
        "--telemetry-out", str(tmp / "missing" / "t.json")],
    "metrics-out-to-missing-dir": lambda tmp: [
        "fig10", "--metrics-out", str(tmp / "missing" / "m.json")],
    "export-figures-into-a-file": lambda tmp: [
        "export-figures", write_json(tmp / "file.json", {}) + "/figures",
        "--figures", "fig10"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(case, tmp_path, capsys):
    """Unreadable or misshapen input files are usage errors: exit 2
    with a single ``error:`` line, never a traceback."""
    code = cli.main(BAD_INPUTS[case](tmp_path))
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
