"""Every layer imports on its own, in a fresh interpreter.

Within one test session an earlier import can hide a cycle: the suite
passes while ``python -c "import repro.sim"`` fails.  Each case here
runs in a new subprocess, so import order cannot mask one.
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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_fresh(module):
    result = _run(f"import {module}")
    assert result.returncode == 0, result.stderr


def test_readme_lower_level_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    match = re.search(r"Lower-level layers[^\n]*\n+```python\n(.*?)```",
                      readme, re.S)
    assert match, "README lost its lower-level layers snippet"
    result = _run(match.group(1))
    assert result.returncode == 0, result.stderr
    assert "myapp" in result.stdout
