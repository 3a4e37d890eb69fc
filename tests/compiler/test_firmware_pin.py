"""Pinned compiler output: the final firmware and the JIT's source.

The compiler's passes and the analyses behind them may be restructured,
but what they emit must not move. This pins

* the final firmware of 16 compilation units, op for op: every ordered
  selection of one, two or three of the standard workloads (the units
  the runtime compiles as lambdas are deployed one by one) plus the
  composed Figure-9 unit. Label names are canonicalised per function,
  so renaming a label is not a change; object sizes, access modes and
  placed regions are part of the digest;
* the JIT's generated Python source for every registered workload
  program and for each of those composed firmwares.

Each digest is a SHA-256 over a plain-text rendering; on a mismatch the
test prints the unit's name, so the offending unit can be rebuilt and
diffed by hand.
"""

import hashlib
from itertools import permutations

import pytest

from repro.compiler import CompilationUnit, compile_unit
from repro.isa import Op, compile_jit
from repro.workloads.registry import fig9_workloads, standard_workloads

_STANDARD = sorted(standard_workloads())


def _units():
    """name -> CompilationUnit factory, for the 16 pinned units."""
    units = {}
    for size in (1, 2, 3):
        for order in permutations(_STANDARD, size):
            units["+".join(order)] = (
                lambda order=order: _unit(standard_workloads(), order))
    units["fig9"] = lambda: _unit(fig9_workloads(),
                                  sorted(fig9_workloads()), ports=True)
    return units


def _unit(specs, order, ports=False):
    unit = CompilationUnit()
    for index, name in enumerate(order):
        unit.add_lambda(specs[name].nic_program(), wid=index + 1,
                        route_port=f"p{index}" if ports else "p0")
    return unit


def _canonical_body(function):
    """The body as text, with labels renamed in order of appearance."""
    names = {}
    for instruction in function.body:
        if instruction.op is Op.LABEL:
            names.setdefault(instruction.args[0], f"L{len(names)}")
    lines = []
    for instruction in function.body:
        args = list(instruction.args)
        if instruction.op is Op.LABEL or instruction.op is Op.JMP or (
                instruction.op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE)):
            args[-1] = names.get(args[-1], args[-1])
        lines.append(f"{instruction.op.value} {args!r}")
    return "\n".join(lines)


def firmware_text(program):
    parts = [f"entry {program.entry}"]
    for name, obj in program.objects.items():
        parts.append(f"object {name} {obj.size_bytes} {obj.access.value} "
                     f"{obj.hot} {obj.region.value}")
    for name, function in program.functions.items():
        parts.append(f"func {name}\n{_canonical_body(function)}")
    return "\n".join(parts) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: unit -> (final instruction count, firmware digest, JIT source digest).
FIRMWARE_PINS = {
    "fig9": (1320, "99ace919fdfab580",
        "5f716c254abe7e73"),
    "image_transformer": (288, "b5eb60b0f85a03ec",
        "57233bb338f5eb3e"),
    "image_transformer+kv_client": (574, "857077299c7a0052",
        "a77d91f18c324d55"),
    "image_transformer+kv_client+web_server": (1039, "d7dbb87ce6db586e",
        "a48dfac872191cfd"),
    "image_transformer+web_server": (753, "4fd377ee2b147af5",
        "a8ae668d1f977d23"),
    "image_transformer+web_server+kv_client": (1039, "b8d8a2d1b2fef6fc",
        "1606e565262a4507"),
    "kv_client": (341, "32a29193d1c23427",
        "16b4776e666a2a0c"),
    "kv_client+image_transformer": (574, "de74cb47a1971cd5",
        "5771563540e0a058"),
    "kv_client+image_transformer+web_server": (1039, "c3d122885e98ec98",
        "bfa3806da02bd728"),
    "kv_client+web_server": (810, "0650ae7d3313d4a4",
        "71969a111be0340b"),
    "kv_client+web_server+image_transformer": (1039, "b0f7b353ff628ca3",
        "f4077a46b8d16943"),
    "web_server": (524, "7e486d04fba24e66",
        "e8035fef0f8727ca"),
    "web_server+image_transformer": (753, "d19a34bca85ed03d",
        "e63b1c6c02069bcc"),
    "web_server+image_transformer+kv_client": (1039, "744a8b443e9eb6b4",
        "6acb094e0bcd85cc"),
    "web_server+kv_client": (810, "27dbbf12f0fc3632",
        "2c8f2e61fd4cf0b9"),
    "web_server+kv_client+image_transformer": (1039, "744761d8dc77eab2",
        "5e70f0423c2c21f9"),
}

#: workload program -> JIT source digest, standalone (not composed).
PROGRAM_JIT_PINS = {
    "fig9:image_transformer": "616ac569dab2a684",
    "fig9:kv_client_get": "63b86b44ff0d3577",
    "fig9:kv_client_set": "0325b31f9f4cf1f2",
    "fig9:web_server": "46ee2c941c23ea58",
    "std:image_transformer": "616ac569dab2a684",
    "std:kv_client": "0b69c3dd874f0f83",
    "std:web_server": "46ee2c941c23ea58",
}


@pytest.fixture(scope="module")
def firmwares():
    return {name: compile_unit(make()).program
            for name, make in _units().items()}


def test_sixteen_units_are_pinned(firmwares):
    assert len(firmwares) == 16
    assert sorted(firmwares) == sorted(FIRMWARE_PINS)


@pytest.mark.parametrize("name", sorted(_units()))
def test_final_firmware_is_pinned(firmwares, name):
    program = firmwares[name]
    found = (program.instruction_count, digest(firmware_text(program)),
             digest(compile_jit(program).source))
    assert found == FIRMWARE_PINS[name], name


def _workload_programs():
    programs = {f"std:{name}": spec.nic_program
                for name, spec in standard_workloads().items()}
    programs.update({f"fig9:{name}": spec.nic_program
                     for name, spec in fig9_workloads().items()})
    return programs


@pytest.mark.parametrize("name", sorted(_workload_programs()))
def test_workload_jit_source_is_pinned(name):
    program = _workload_programs()[name]()
    assert digest(compile_jit(program).source) == PROGRAM_JIT_PINS[name], name
