"""Every layer imports on its own, in a fresh interpreter.

Within one test session an earlier import can hide a cycle: the suite
passes while ``python -c "import repro.sim"`` fails.  Each case here
runs in a new subprocess, so import order cannot mask one.  The same
fresh interpreters check import hygiene: no layer loads scipy or numpy,
and the snapshot layer does not drag in the Section-3 study.
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
