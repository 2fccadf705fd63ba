#!/usr/bin/env python
"""Which ``src/repro`` functions does a command line ever enter?

    python scripts/reach.py run OUT -- CMD...   # append what CMD enters to OUT
    python scripts/reach.py report OUT...       # list what none of them entered

``run`` puts a ``sitecustomize`` first on ``PYTHONPATH`` that installs a
call-events-only ``sys.settrace`` hook in every Python process CMD
starts.  Each process appends ``path:first-line`` of each ``src/repro``
code object it first enters to OUT, flushed per line, so a pool worker
that leaves by ``os._exit`` still counts.  ``report`` lists, by file,
the functions (``def``s and lambdas) that no OUT file names.

Blind spot: a command that resets ``PYTHONPATH`` itself, rather than
extending it, starts processes that are not traced.
"""

import ast
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

HOOK = '''\
import os, sys, threading
_out, _src = os.environ.get("REACH_OUT"), os.environ.get("REACH_SRC")
if _out and _src:
    _seen, _log = set(), open(_out, "a", encoding="utf-8")
    def _trace(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_src):
                _log.write(f"{code.co_filename}:{code.co_firstlineno}\\n")
                _log.flush()
    sys.settrace(_trace), threading.settrace(_trace)
'''


def run(out, cmd):
    with tempfile.TemporaryDirectory() as hook_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as hook:
            hook.write(HOOK)
        path = os.pathsep.join(filter(None, [
            hook_dir, os.environ.get("PYTHONPATH")]))
        return subprocess.call(cmd, env=dict(
            os.environ, PYTHONPATH=path, REACH_OUT=os.path.abspath(out),
            REACH_SRC=SRC + os.sep))


def functions(path):
    """``(first line, name, lines)`` per function, from its first decorator."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            yield (first, getattr(node, "name", "<lambda>"),
                   node.end_lineno - first + 1)


def report(outs):
    entered = {line.strip() for out in outs
               for line in open(out, encoding="utf-8")}
    total = missed = missed_lines = 0
    for folder, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            for first, func, lines in sorted(functions(path)):
                total += 1
                if f"{path}:{first}" not in entered:
                    missed, missed_lines = missed + 1, missed_lines + lines
                    print(f"{os.path.relpath(path, ROOT)}:{first} "
                          f"{func} ({lines} lines)")
    print(f"{missed} of {total} functions ({missed_lines} lines) "
          f"never entered")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "run" and args[2] == "--":
        sys.exit(run(args[1], args[3:]))
    if len(args) >= 2 and args[0] == "report":
        sys.exit(report(args[1:]))
    sys.exit(__doc__)
