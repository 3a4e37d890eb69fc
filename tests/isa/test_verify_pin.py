"""Pinned verifier results for every bundled program.

The verifier's analyses may be restructured, but what it proves about
the shipped programs must not move: the verdict, where each finding
lands (code, function, body index), the per-function WCET, and the
bound and counter register of every loop. The programs are the three
standard workloads, the example lambdas in ``examples/lambdas`` and
the composed Figure-9 firmware.
"""

from pathlib import Path

import pytest

from repro.experiments.fig9_optimizer import compile_fig9
from repro.isa.asm import assemble
from repro.isa.verify import estimate_wcet, verify_program
from repro.workloads.registry import standard_workloads

_LAMBDAS = Path(__file__).resolve().parents[2] / "examples" / "lambdas"

#: name -> (ok, sorted findings, per-function WCET, loops per function
#: as (bound, counter) in header order).
PINNED = {
    "web_server": (
        True, [],
        {"reply_static": 254, "web_server": 8521},
        {},
    ),
    "kv_client": (
        True, [],
        {"gen_memcached_request": 210, "kv_client": 311},
        {},
    ),
    "image_transformer": (
        True, [],
        {"image_transformer": 19674715, "reply_static": 254},
        {},
    ),
    "counter": (
        True, [("loop-bound", "counter", 3)],
        {"counter": 161},
        {"counter": [(9, "r1")]},
    ),
    "echo": (
        True, [],
        {"echo": 6},
        {},
    ),
    "hash_bucket": (
        True,
        [("proven-offset", "hash_bucket", 4),
         ("proven-offset", "hash_bucket", 6)],
        {"hash_bucket": 256},
        {},
    ),
    "seg_walker": (
        True, [("loop-bound", "seg_walker", 4)],
        {"seg_walker": 458752},
        {"seg_walker": [(65536, "r2")]},
    ),
    "fig9_firmware": (
        True,
        [("unreachable", "match_dispatch", index)
         for index in (28, 34, 40, 46, 53, 57)],
        {
            "image_transformer": 19661309,
            "kv_client_get": 90,
            "kv_client_set": 90,
            "lib.shared1": 6,
            "lib.shared2": 14,
            "main": 19661383,
            "match_dispatch": 19661326,
            "parse": 47,
            "web_server": 1328,
        },
        {},
    ),
}

#: Whole-program WCET of each entry, for a readable failure first.
TOTAL_WCET = {
    "web_server": 8521,
    "kv_client": 311,
    "image_transformer": 19674715,
    "counter": 161,
    "echo": 6,
    "hash_bucket": 256,
    "seg_walker": 458752,
    "fig9_firmware": 19661383,
}


def _program(name):
    workloads = standard_workloads()
    if name in workloads:
        return workloads[name].nic_program()
    if name == "fig9_firmware":
        return compile_fig9().program
    return assemble((_LAMBDAS / f"{name}.asm").read_text())


def test_pin_covers_every_example_lambda():
    assert {path.stem for path in _LAMBDAS.glob("*.asm")} <= set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verifier_results_are_pinned(name):
    ok, findings, function_wcet, loops = PINNED[name]
    program = _program(name)
    report = verify_program(program)
    assert report.wcet_cycles == TOTAL_WCET[name]
    assert report.ok is ok
    assert sorted(
        (f.code, f.function or "", -1 if f.index is None else f.index)
        for f in report.findings
    ) == findings
    assert report.function_wcet == function_wcet
    wcet = estimate_wcet(program)
    assert {
        function: [(loop.bound, loop.counter) for loop in found]
        for function, found in wcet.loops.items()
    } == loops
