"""Every layer imports on its own, in a fresh interpreter.

Within one test session an earlier import can hide a cycle: the suite
passes while ``python -c "import repro.sim"`` fails.  Each case here
runs in a new subprocess, so import order cannot mask one.  The same
fresh interpreters check import hygiene: no layer loads scipy or numpy,
the snapshot layer does not drag in the Section-3 study, and each
package's lazy exports (``repro._lazy``) resolve to the objects their
submodules define.
"""

import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MODULES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.name != "__main__"
)
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )


def _loaded_after(imports, watched):
    """Which of ``watched`` a fresh ``import`` of ``imports`` loads."""
    code = (f"import sys\nimport {', '.join(imports)}\n"
            f"print(sorted(m for m in {sorted(watched)!r} "
            f"if m in sys.modules))")
    result = _run(code)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_fresh(module):
    result = _run(f"import {module}")
    assert result.returncode == 0, result.stderr


def test_no_layer_imports_scipy_or_numpy():
    imports = ["repro", *MODULES, "repro.cli"]
    assert _loaded_after(imports, {"scipy", "numpy"}) == "[]"


def test_snapshot_scenario_skips_the_section3_study():
    watched = {"repro.experiments", "repro.analysis", "repro.fleet.campaigns"}
    assert _loaded_after(["repro.snapshot.scenario"], watched) == "[]"


def test_snapshot_scenario_loads_no_fleet_or_trace_reducers():
    # The pulse rig needs the tracer and the on-line monitor, not the
    # fleet, the trace reducers or the PowerScope multimeter.
    watched = {"repro.fleet", "repro.obs.signature", "repro.obs.diff",
               "repro.obs.export", "repro.powerscope.multimeter"}
    assert _loaded_after(["repro.snapshot.scenario"], watched) == "[]"


@pytest.mark.parametrize("module", ["repro.experiments.rig",
                                    "repro.experiments.fidelity_study"])
def test_section3_rig_loads_no_fleet_snapshot_or_diff(module):
    watched = {"repro.fleet", "repro.snapshot", "repro.obs.diff",
               "repro.obs.signature"}
    assert _loaded_after([module], watched) == "[]"


def test_cli_loads_no_simulator():
    # ``repro --help`` parses arguments; each command imports its layers.
    assert _loaded_after(["repro.cli"], {"repro.sim"}) == "[]"


_EXPORTS_CHECK = """
import importlib, pkgutil, sys, types
package = importlib.import_module({package!r})
prefix = package.__name__ + "."

def import_submodules():
    for info in pkgutil.walk_packages(package.__path__, prefix):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)

if {submodules_first!r}:
    import_submodules()
resolved = {{name: getattr(package, name) for name in package.__all__}}
listed = set(dir(package))
assert not set(package.__all__) - listed, set(package.__all__) - listed
try:
    package.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("no AttributeError for an unknown name")
import_submodules()
modules = [package] + [module for name, module in sys.modules.items()
                       if name.startswith(prefix)]
for name, value in resolved.items():
    # Importing every submodule must not rebind an exported name.
    assert getattr(package, name) is value, name
    if isinstance(value, types.ModuleType):
        # A submodule defining its own name shadows that definition.
        assert value is sys.modules[prefix + name], name
        assert name not in vars(value), f"{{name}} is shadowed by its module"
    else:
        assert any(vars(module).get(name) is value
                   for module in modules), name
"""


@pytest.mark.parametrize("submodules_first", [False, True],
                         ids=["names-first", "submodules-first"])
@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve_to_their_definitions(package,
                                                      submodules_first):
    code = _EXPORTS_CHECK.format(package=package,
                                 submodules_first=submodules_first)
    result = _run(code)
    assert result.returncode == 0, result.stderr


def test_export_named_like_its_submodule_stays_the_function():
    # ``correlate`` is both a submodule and the function it defines.
    result = _run("import sys\n"
                  "import repro.powerscope.correlate\n"
                  "from repro.powerscope import correlate\n"
                  "import repro.powerscope as powerscope\n"
                  "module = sys.modules['repro.powerscope.correlate']\n"
                  "assert correlate is module.correlate, correlate\n"
                  "assert powerscope.correlate is module.correlate\n")
    assert result.returncode == 0, result.stderr


def test_fleet_loads_no_process_machinery():
    # The worker pool is imported only when a campaign runs with jobs > 1.
    watched = {"concurrent.futures", "multiprocessing"}
    assert _loaded_after(["repro.fleet"], watched) == "[]"


def test_lazy_campaign_names_resolve():
    result = _run("import repro.fleet as fleet\n"
                  "from repro.fleet import run_sweep\n"
                  "from repro.fleet.campaigns import run_sweep as direct\n"
                  "assert run_sweep is direct\n"
                  "assert all(hasattr(fleet, n) for n in fleet.__all__)\n"
                  "try:\n    fleet.no_such_name\n"
                  "except AttributeError:\n    pass\n"
                  "else:\n    raise SystemExit('no AttributeError')\n")
    assert result.returncode == 0, result.stderr


def _sweep_table(prelude=""):
    code = (f"{prelude}import sys\nfrom repro.cli import main\n"
            "sys.exit(main(['sweep', '--apps', 'map', '--trials', '5']))")
    result = _run(code)
    assert result.returncode == 0, result.stderr
    return result.stdout.split("\nfleet:")[0]


def test_sweep_table_is_identical_without_scipy():
    # The interval is stdlib-only: forbidding scipy changes nothing, and
    # the table matches the one recorded on a machine with scipy.
    plain = _sweep_table()
    blocked = _sweep_table("import sys\nsys.modules['scipy'] = None\n")
    assert plain == blocked
    with open(os.path.join(ROOT, "tests", "data", "sweep-map-trials5.txt"),
              encoding="utf-8") as handle:
        assert plain + "\n" == handle.read()


def test_readme_lower_level_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    match = re.search(r"Lower-level layers[^\n]*\n+```python\n(.*?)```",
                      readme, re.S)
    assert match, "README lost its lower-level layers snippet"
    result = _run(match.group(1))
    assert result.returncode == 0, result.stderr
    assert "myapp" in result.stdout
