"""Function-level reach audit of ``src/repro``: which ``def``s do the
project's drivers actually call?

Usage (from the repository root)::

    python tools/reach_audit.py                  # every default driver
    python tools/reach_audit.py --driver "examples/quickstart.py"

Each driver is a Python command line (a script path or ``-m module``,
then its arguments; ``*`` patterns are expanded against the repository
root; ``{tmp}`` names a scratch directory that is removed afterwards).
It runs in its own interpreter with ``sys.setprofile`` (and
``threading.setprofile``) recording every ``src/repro`` function that
is called. Processes the driver forks inherit the hook, and every newly
seen function is appended to the log at once, so forked pool workers
that exit without cleanup are still counted; processes it spawns afresh
are not profiled.

How a ``def`` is counted: every ``def`` / ``async def`` statement under
``src/repro`` (methods and nested functions included; lambdas,
comprehensions and class bodies are not) is one function, identified by
its file, its name and its first line, decorators included. That is the
line a code object reports as ``co_firstlineno``, so a call matches a
``def`` exactly. Other counts (per qualified name, or the ``def`` line
without decorators) give other totals.

The report's first line is ``reached R of T defs``; then one line per
module with its reached/total count and the names of its unreached
functions. Standard library only; profiling makes the drivers several
times slower.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import shlex
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

#: The drivers: every experiment, a traced experiment, the four
#: benchmark workloads at smoke size, every example and CI's lint step.
DEFAULT_DRIVERS = [
    "-m repro.experiments --fast",
    "-m repro.experiments fig6 --fast --trace {tmp}/fig6_trace.json",
    *(f"-m bench.repeat {workload} --smoke"
      for workload in ("web_nic", "image_rdma", "web_host", "storm_mixed")),
    *sorted(os.path.relpath(path, ROOT) for path in
            glob.glob(os.path.join(ROOT, "examples", "*.py"))),
    "-m repro.isa.verify examples/lambdas/*.asm --workloads"
    " --forbid unknown-offset",
]

#: Run in the driver's interpreter before the driver itself: appends
#: "path<TAB>line<TAB>name" for each src/repro code object on its first
#: call, one unbuffered write per line.
_BOOTSTRAP = r"""
import os, runpy, sys, threading
prefix, log, target = sys.argv[1], sys.argv[2], sys.argv[3:]
fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
seen = {}  # id -> code: holding the code keeps its id unique
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            if code.co_filename.startswith(prefix):
                os.write(fd, ("%s\t%d\t%s\n" % (
                    code.co_filename, code.co_firstlineno,
                    code.co_name)).encode())
if target[0] == "-m":
    sys.argv = [target[1]] + target[2:]
    run = lambda: runpy.run_module(target[1], run_name="__main__",
                                   alter_sys=True)
else:
    sys.argv = target
    sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
    run = lambda: runpy.run_path(target[0], run_name="__main__")
threading.setprofile(hook)
sys.setprofile(hook)
try:
    run()
finally:
    sys.setprofile(None)
"""

Key = Tuple[str, int, str]


def package_defs() -> Dict[Key, str]:
    """Every def under src/repro: (relative path, first line, name) ->
    qualified name."""
    defs: Dict[Key, str] = {}
    for directory, _, files in os.walk(PACKAGE):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            relative = os.path.relpath(path, os.path.dirname(PACKAGE))
            _collect(tree, relative, "", defs)
    return defs


def _collect(node: ast.AST, path: str, scope: str,
             defs: Dict[Key, str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            qualified = scope + child.name
            defs[(path, first, child.name)] = qualified
            _collect(child, path, qualified + ".", defs)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, scope + child.name + ".", defs)
        else:
            _collect(child, path, scope, defs)


def run_driver(driver: str, log: str, tmp: str) -> Tuple[int, float]:
    """Run one driver under the profile hook; (exit code, seconds)."""
    argv: List[str] = []
    for arg in shlex.split(driver.replace("{tmp}", tmp)):
        matches = sorted(glob.glob(os.path.join(ROOT, arg))) \
            if "*" in arg else []
        argv.extend(os.path.relpath(m, ROOT) for m in matches or [arg])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _BOOTSTRAP, PACKAGE + os.sep, log] + argv,
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - started


def reached_defs(log: str) -> Set[Key]:
    reached: Set[Key] = set()
    base = os.path.dirname(PACKAGE)
    with open(log, encoding="utf-8") as handle:
        for line in handle:
            path, first, name = line.rstrip("\n").split("\t")
            reached.add((os.path.relpath(path, base), int(first), name))
    return reached


def report(defs: Dict[Key, str], reached: Set[Key],
           runs: List[Tuple[str, int, float]]) -> List[str]:
    hit = reached & defs.keys()
    lines = [f"reached {len(hit)} of {len(defs)} defs in src/repro",
             "counting: one def per def/async def statement (methods and "
             "nested functions included), keyed by file, name and first "
             "line, decorators included",
             "drivers:"]
    for driver, code, seconds in runs:
        lines.append(f"  [exit {code}, {seconds:.1f} s] {driver}")
    by_module: Dict[str, List[Key]] = {}
    for key in defs:
        by_module.setdefault(key[0], []).append(key)
    lines.append("per module (reached/total, then the unreached defs):")
    for module in sorted(by_module):
        keys = sorted(by_module[module], key=lambda k: k[1])
        missed = [defs[k] for k in keys if k not in hit]
        line = f"  {module} {len(keys) - len(missed)}/{len(keys)}"
        if missed:
            line += ": " + ", ".join(missed)
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--driver", action="append", metavar="COMMAND",
        help="a driver command line (repeatable; default: "
             "every default driver)")
    args = parser.parse_args(argv)
    drivers = args.driver or DEFAULT_DRIVERS
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        log = os.path.join(scratch, "reached.tsv")
        open(log, "w").close()
        for driver in drivers:
            code, seconds = run_driver(driver, log, scratch)
            runs.append((driver, code, seconds))
        reached = reached_defs(log)
    print("\n".join(report(package_defs(), reached, runs)))
    return 1 if any(code for _, code, _ in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
