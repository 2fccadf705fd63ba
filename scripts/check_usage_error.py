#!/usr/bin/env python
"""Require that a ``repro`` command line is refused as a usage error.

    python scripts/check_usage_error.py ARG...

runs ``python -m repro ARG...`` and exits nonzero, saying why, unless
the command exits 2, prints no traceback, and writes exactly one line
to stderr besides the usage block argparse prints before its own
errors.  Its stderr is echoed so a CI log shows the message.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problem(argv):
    """Why ``repro argv`` is not a one-line usage error, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 2:
        return f"expected exit 2, got {proc.returncode}"
    if "Traceback" in proc.stderr:
        return "traceback"
    lines = proc.stderr.splitlines()
    if lines and lines[0].startswith("usage: "):
        # argparse's usage block: the first line and its indented
        # continuation lines.
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    if len(lines) != 1:
        return f"expected one error line, got {len(lines)}"
    return None


def main(argv):
    why = problem(argv)
    if why is not None:
        print(f"{why}: repro {' '.join(argv)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
