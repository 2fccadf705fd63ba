"""Import-surface tests: every documented public name resolves.

Guards against refactors silently breaking the public API that the
README, examples, and downstream users rely on.
"""

import importlib

import pytest

import repro

SURFACES = {
    "repro.sim": [
        "Simulator", "Timeout", "Event", "Waitable", "Process", "Resource",
        "QuantumScheduler", "SimulationError",
        "SchedulingError", "ProcessError", "ResourceError",
    ],
    "repro.hardware": [
        "Battery", "ExternalSupply", "PeukertBattery", "RecoveryBattery",
        "VoltageCurve", "PowerComponent", "Cpu", "Disk", "Display",
        "ZonedDisplay", "Rect", "WaveLan", "Machine", "MemorySystem",
        "PowerManager", "build_machine", "thinkpad560x",
    ],
    "repro.powerscope": [
        "Multimeter", "SystemMonitor", "OnlinePowerMonitor",
        "SmartBatteryGauge", "EnergyProfile", "correlate", "render_profile",
        "diff_profiles", "render_diff", "profile_run",
    ],
    "repro.net": [
        "Link", "RpcChannel", "RpcTimeout", "Server", "BandwidthEstimator",
        "NetworkError", "DisconnectedError", "INTERRUPT_PROCESS",
    ],
    "repro.core": [
        "FidelityLadder", "Warden", "Viceroy", "Upcall", "EnergySupply",
        "DemandPredictor", "AdaptationTrigger", "PriorityLadder",
        "GoalDirectedController", "Odyssey", "DiskCache", "ResourceWindow",
        "ExpectationRegistry", "ExpectationMonitor",
    ],
    "repro.apps": [
        "AdaptiveApplication", "VideoPlayer", "SpeechRecognizer",
        "MapViewer", "WebBrowser", "CompositeApplication", "XServer",
        "ZonedWindowManager", "CostModel", "DEFAULT_COSTS",
    ],
    "repro.workloads": [
        "VIDEO_CLIPS", "UTTERANCES", "MAPS", "IMAGES", "FixedThinkTime",
        "RandomThinkTime", "BurstySchedule", "SessionTrace",
    ],
    "repro.analysis": [
        "summarize", "fit_linear", "normalize_to_baseline", "render_table",
        "ascii_chart", "ascii_staircase", "energy_table_csv", "timeline_csv",
    ],
    "repro.experiments": [
        "build_rig", "run_trials", "measure_video", "measure_speech",
        "measure_map", "measure_web", "concurrency_table",
        "measure_video_zoned", "run_goal_experiment",
        "fidelity_runtime_bounds", "derive_goals", "halflife_sweep",
        "run_bursty_experiment", "full_report", "export_figures",
    ],
}


@pytest.mark.parametrize("module_name", sorted(SURFACES))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in SURFACES[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"
        assert name in module.__all__, f"{module_name}.{name} not in __all__"


def test_package_version():
    assert repro.__version__ == "1.0.0"


def test_subpackage_list():
    for sub in repro.__all__:
        if sub == "__version__":
            continue
        importlib.import_module(f"repro.{sub}")
