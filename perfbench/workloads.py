"""The benchmark's workloads: seeded inputs, one operation, its checks.

Each workload is a class built from the run's seed.  Building it is the
workload's set-up: it imports the ``repro`` modules the operation needs
and prepares the input generator.  Then, for operation ``k``:

* ``make_input(k)`` derives the operation's inputs from ``(seed, k)``
  alone, so the same seed always yields the same inputs and no two
  operations of a run share one;
* ``run(inputs)`` is the timed user-level operation;
* ``check(inputs, output)`` returns a list of problems (empty = correct);
* ``digest(output)`` reduces the output to a value that must repeat
  exactly when the same inputs are run again.

Inputs are fresh per operation on purpose: the fleet matrix memoizes
traced runs per process, so repeating one input would time the memo
instead of the simulation.
"""

from __future__ import annotations

import json
import os
import random

#: Written by ``goal_traced``, relative to the checkout root; removed
#: when the run ends.
OUT_DIR = ".perfbench_out"

#: Slack for comparing joules the model makes equal.
_REL_TOL = 1e-9


def _rng(seed, workload, k):
    return random.Random(f"{seed}/{workload}/{k}")


class Figures:
    """Section 3 figures for one seeded object set, with per-trial costs.

    One operation regenerates one object's row of each fidelity figure
    (Figures 6, 8, 10, 13) plus the Figure 2 PowerScope profile of the
    same clip, under a cost model jittered the way the paper's trials
    vary.  The clip has a fixed length, so every operation simulates the
    same number of frames.
    """

    name = "figures"
    CLIP_SECONDS = 10.0
    PROFILE_RATE_HZ = 600.0
    HEADLINE_PROCESSES = ("Idle", "xanim", "X", "odyssey",
                          "Interrupts-WaveLAN")

    def __init__(self, seed):
        from repro.apps.costs import DEFAULT_COSTS
        from repro.experiments import build_rig, fidelity_study
        from repro.powerscope import profile_run
        from repro.workloads.images import IMAGES
        from repro.workloads.maps import MAPS
        from repro.workloads.utterances import UTTERANCES
        from repro.workloads.videos import VideoClip

        self.seed = seed
        self.costs = DEFAULT_COSTS
        self.study = fidelity_study
        self.build_rig = build_rig
        self.profile_run = profile_run
        self.utterances = UTTERANCES
        self.maps = MAPS
        self.images = IMAGES
        self.clip_type = VideoClip

    def make_input(self, k):
        rng = _rng(self.seed, self.name, k)
        return {
            "clip": self.clip_type(f"clip-{k}", self.CLIP_SECONDS, 12.0,
                                   rng.randint(14_000, 18_500)),
            "costs": self.costs.jittered(rng.getrandbits(32)),
            "utterance": rng.choice(self.utterances),
            "map": rng.choice(self.maps),
            "image": rng.choice(self.images),
        }

    def run(self, inputs):
        study = self.study
        clip, costs = inputs["clip"], inputs["costs"]
        rig = self.build_rig(pm_enabled=False, costs=costs)
        rig.sim.spawn(rig.apps["video"].play(clip), name="xanim")
        profile = self.profile_run(rig.machine, until=clip.duration_s,
                                   rate_hz=self.PROFILE_RATE_HZ)
        return {
            "fig02": {
                "samples": profile.sample_count,
                "profile_j": profile.total_energy,
                "machine_j": rig.machine.energy_total,
                "processes": {name: profile.energy_of(name)
                              for name in self.HEADLINE_PROCESSES},
            },
            "fig06": {config: study.measure_video(clip, config, costs)
                      for config in study.VIDEO_CONFIGS},
            "fig08": {config: study.measure_speech(inputs["utterance"],
                                                   config, costs)
                      for config in study.SPEECH_CONFIGS},
            "fig10": {config: study.measure_map(inputs["map"], config,
                                                5.0, costs)
                      for config in study.MAP_CONFIGS},
            "fig13": {config: study.measure_web(inputs["image"], config,
                                                5.0, costs)
                      for config in study.WEB_CONFIGS},
        }

    def check(self, inputs, output):
        problems = []
        fig02 = output["fig02"]
        expected = int(self.CLIP_SECONDS * self.PROFILE_RATE_HZ)
        if abs(fig02["samples"] - expected) > 1:
            problems.append(f"fig02: {fig02['samples']} samples, "
                            f"expected {expected}")
        if abs(fig02["profile_j"] - fig02["machine_j"]) > (
                0.02 * fig02["machine_j"]):
            problems.append(f"fig02: profile {fig02['profile_j']:.3f} J "
                            f"vs machine {fig02['machine_j']:.3f} J")
        for process, joules in fig02["processes"].items():
            if not joules > 0:
                problems.append(f"fig02: no energy for {process}")
        # The paper's orderings: power management alone saves energy,
        # and each reduced fidelity saves more on top of it, down to the
        # figure's cheapest configurations (remote and hybrid reduced
        # speech trade places under the per-trial cost jitter).
        for figure, cheapest in (("fig06", ("combined",)),
                                 ("fig08", ("remote-reduced",
                                            "hybrid-reduced")),
                                 ("fig10", ("crop-secondary",)),
                                 ("fig13", ("jpeg-5",))):
            row = output[figure]
            if not 0 < row["hw-only"] < row["baseline"]:
                problems.append(f"{figure}: hw-only {row['hw-only']:.3f} J "
                                f"not below baseline {row['baseline']:.3f} J")
            if figure == "fig13":
                continue
            floor = min(row[config] for config in cheapest)
            for config, joules in row.items():
                if config not in ("baseline", "hw-only") and not (
                        floor <= joules <= row["hw-only"]):
                    problems.append(f"{figure}: {config} {joules:.3f} J "
                                    f"outside [{floor:.3f}, hw-only]")
        # Distillation costs a fixed overhead, so an image near the
        # minimum size gains nothing from it; lower JPEG quality must
        # still never cost more.
        web = output["fig13"]
        qualities = ("jpeg-75", "jpeg-50", "jpeg-25", "jpeg-5")
        for higher, lower in zip(qualities, qualities[1:]):
            if web[lower] > web[higher] * (1 + _REL_TOL):
                problems.append(f"fig13: {lower} {web[lower]:.3f} J above "
                                f"{higher} {web[higher]:.3f} J")
        return problems

    def digest(self, output):
        return json.dumps(output, sort_keys=True)


class GoalTraced:
    """``repro trace goal``: a traced goal-directed run and its exports.

    One operation runs the Section 5 goal experiment under a recording
    tracer, then writes the JSONL event log, the validated Chrome trace
    and the metrics snapshot, and joins events to power spans, as the
    CLI does.  The cost model is jittered per operation; goal and energy
    are fixed, so every run simulates the same span of time.
    """

    name = "goal_traced"
    GOAL_S = 60.0
    ENERGY_J = 900.0

    def __init__(self, seed):
        from repro.apps.costs import DEFAULT_COSTS
        from repro.experiments import run_goal_experiment
        from repro.obs import MetricsRegistry, Tracer, installed, set_metrics
        from repro.obs import compute_signature, export

        self.seed = seed
        self.costs = DEFAULT_COSTS
        self.run_goal = run_goal_experiment
        self.tracer_cls = Tracer
        self.installed = installed
        self.registry_cls = MetricsRegistry
        self.set_metrics = set_metrics
        self.export = export
        self.signature = compute_signature
        os.makedirs(OUT_DIR, exist_ok=True)

    def make_input(self, k):
        rng = _rng(self.seed, self.name, k)
        return {"costs": self.costs.jittered(rng.getrandbits(32)),
                "prefix": os.path.join(OUT_DIR, f"goal-{k % 2}")}

    def run(self, inputs):
        export = self.export
        prefix = inputs["prefix"]
        tracer = self.tracer_cls()
        registry = self.registry_cls()
        previous = self.set_metrics(registry)
        try:
            with self.installed(tracer):
                result = self.run_goal(self.GOAL_S,
                                       initial_energy=self.ENERGY_J,
                                       costs=inputs["costs"])
                tracer.flush()
        finally:
            self.set_metrics(previous)
        events = list(tracer.events)
        export.write_events_jsonl(events, prefix + ".jsonl")
        export.write_chrome_trace(events, prefix + ".trace.json")
        export.write_metrics(registry, prefix + ".metrics.json")
        return {
            "events": events,
            "dropped": tracer.dropped,
            "join": export.join_summary(export.join_power(events)),
            "goal_met": result.goal_met,
            "residual_j": result.residual_energy,
        }

    def check(self, inputs, output):
        problems = []
        if output["dropped"]:
            problems.append(f"{output['dropped']} events dropped")
        if not any(e.cat == "core" and e.name.startswith("decision.")
                   for e in output["events"]):
            problems.append("no controller decisions traced")
        join = output["join"]
        if not join["total"] or join["unresolved"]:
            problems.append(f"power join: {join['resolved']}/{join['total']} "
                            f"resolved")
        return problems

    def digest(self, output):
        # Events carry wall-clock stamps; the energy signature is their
        # deterministic reduction (decision spine + per-phase joules).
        signature = self.signature(output["events"],
                                   metrics=self.registry_cls())
        return json.dumps([signature, output["goal_met"],
                           output["residual_j"]], sort_keys=True)


class Lookahead:
    """Lookahead goal runs: the what-if controller forking the pulse stack.

    One operation is one pulse-scenario goal run under the lookahead
    controller, which captures the stack and forks a hold and an acted
    branch at every proposed adaptation.  The goal is drawn from a
    narrow band with energy in proportion, so the controller faces a
    different schedule each time at a similar cost (device variation
    changes the branch count several-fold, so the fleet_matrix workload
    covers devices instead).
    """

    name = "lookahead"
    GOAL_BAND_S = (285.0, 295.0)
    WATTS = 2400.0 / 290.0

    def __init__(self, seed):
        from repro.snapshot.scenario import run_pulse_goal

        self.seed = seed
        self.run_pulse_goal = run_pulse_goal

    def make_input(self, k):
        goal = _rng(self.seed, self.name, k).uniform(*self.GOAL_BAND_S)
        return {"goal_seconds": goal, "initial_energy": goal * self.WATTS}

    def run(self, inputs):
        return self.run_pulse_goal(lookahead=True, **inputs)

    def check(self, inputs, output):
        look = output["lookahead"]
        problems = []
        if not look["evaluations"] or not look["branches_run"]:
            problems.append(f"lookahead idle: {look['evaluations']} "
                            f"evaluations, {look['branches_run']} branches")
        if not output["goal_met"]:
            problems.append(f"goal {inputs['goal_seconds']:.1f} s missed")
        return problems

    def digest(self, output):
        return json.dumps(output, sort_keys=True)


class FleetMatrix:
    """``repro sweep --diff-against default --fleet-size 4 --fleet-seed 7``.

    One operation runs the default hysteresis x lookahead policy grid
    against the baseline on each device of the seed-7 fleet through the
    serial fleet runner, then folds and renders the robustness matrix.
    The devices keep the seed-7 physics, since a matrix over another
    generated fleet costs up to half again as much, but get ids unique
    to the operation: the matrix
    memoizes traced runs per process keyed on the device, and fresh ids
    make every run a miss, as in a fresh ``repro sweep`` process.
    """

    name = "fleet_matrix"
    FLEET_SIZE = 4
    FLEET_SEED = 7
    SCENARIO = {"goal_seconds": 60.0, "initial_energy": 500.0}

    def __init__(self, seed):
        from repro.devices import fleet_matrix_campaign, generate_fleet
        from repro.devices.fleetmatrix import FleetMatrix, fleet_from_result
        from repro.fleet import FleetRunner
        from repro.fleet.diffmatrix import DEFAULT_GRID

        self.seed = seed
        self.fleet = [device.to_dict() for device in
                      generate_fleet(self.FLEET_SIZE, self.FLEET_SEED)]
        self.campaign = fleet_matrix_campaign
        self.matrix_cls = FleetMatrix
        self.fold = fleet_from_result
        self.runner_cls = FleetRunner
        self.grid = list(DEFAULT_GRID)

    def make_input(self, k):
        rng = _rng(self.seed, self.name, k)
        devices = [dict(device, device_id=f"s{self.seed}-op{k}-"
                                          f"{device['device_id']}")
                   for device in self.fleet]
        rng.shuffle(devices)
        return {"devices": devices}

    def run(self, inputs):
        spec = self.campaign(inputs["devices"], self.grid, baseline={},
                             scenario=self.SCENARIO)
        result = self.runner_cls(jobs=1).run(spec)
        matrix = self.fold(result)
        return {"ok": result.ok, "document": matrix.document(),
                "table": matrix.render()}

    def check(self, inputs, output):
        problems = []
        if not output["ok"]:
            problems.append("campaign reported failed tasks")
        document = output["document"]
        record = json.loads(document)
        rows = record["rows"]
        expected = self.FLEET_SIZE * (1 + len(self.grid))
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        for row in rows:
            # The baseline self-row and the grid's default-policy row run
            # the baseline's own params, so they must not diverge.
            if row["params"] in ({}, {"lookahead": False}) and not (
                    row["identical"] and row["energy_delta_j"] == 0.0):
                problems.append(f"{row['device']}/{row['policy']}: "
                                f"baseline-equivalent row diverged")
        if self.matrix_cls.from_dict(record).document() != document:
            problems.append("matrix document does not round-trip")
        return problems

    def digest(self, output):
        return output["document"]


WORKLOADS = {cls.name: cls for cls in (Figures, GoalTraced, Lookahead,
                                       FleetMatrix)}
