"""The verifier's work must not depend on Python's string-hash salt.

Its interprocedural fixpoints visit functions in a fixed order, so the
number of dataflow problems one compile solves is a property of the
program alone. The check compiles the composed web_server + kv_client
firmware (the storm_mixed benchmark's) in two processes with different
``PYTHONHASHSEED`` values and counts :func:`dataflow.solve` calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_COUNT_SOLVES = """
import json
import sys

from repro.compiler import CompilationUnit, compile_unit
from repro.isa.verify import dataflow
from repro.workloads.registry import standard_workloads

calls = [0]
solve = dataflow.solve


def counting(*args, **kwargs):
    calls[0] += 1
    return solve(*args, **kwargs)


for module in list(sys.modules.values()):
    if module is not None and module.__name__.startswith("repro") \\
            and getattr(module, "solve", None) is solve:
        module.solve = counting

specs = standard_workloads()
unit = CompilationUnit()
for wid, name in enumerate(("web_server", "kv_client"), start=1):
    unit.add_lambda(specs[name].nic_program(), wid=wid)
firmware = compile_unit(unit)
print(json.dumps([calls[0], firmware.verifier_report.ok]))
"""


def test_composed_firmware_solves_as_many_problems_at_any_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _COUNT_SOLVES], env=env,
            capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(completed.stdout))
    assert runs[0] == runs[1]
    solves, ok = runs[0]
    assert ok
    assert solves > 0
