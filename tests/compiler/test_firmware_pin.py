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
        "903b9d0874220530"),
    "image_transformer": (288, "b5eb60b0f85a03ec",
        "24acc8e50b522766"),
    "image_transformer+kv_client": (574, "857077299c7a0052",
        "dac9d37257c69c6e"),
    "image_transformer+kv_client+web_server": (1039, "d7dbb87ce6db586e",
        "6a86dab12a1e1664"),
    "image_transformer+web_server": (753, "4fd377ee2b147af5",
        "1b4b67baa77453f8"),
    "image_transformer+web_server+kv_client": (1039, "b8d8a2d1b2fef6fc",
        "2ba9333b57f2a472"),
    "kv_client": (341, "32a29193d1c23427",
        "b657c6e17e354113"),
    "kv_client+image_transformer": (574, "de74cb47a1971cd5",
        "cc5369e8cc5e4dd4"),
    "kv_client+image_transformer+web_server": (1039, "c3d122885e98ec98",
        "0c3a6a7ce89ec8b5"),
    "kv_client+web_server": (810, "0650ae7d3313d4a4",
        "0714e6362de4617b"),
    "kv_client+web_server+image_transformer": (1039, "b0f7b353ff628ca3",
        "a458e76111d40588"),
    "web_server": (524, "7e486d04fba24e66",
        "80f7ac4130b5986a"),
    "web_server+image_transformer": (753, "d19a34bca85ed03d",
        "44c87e85640c8e4b"),
    "web_server+image_transformer+kv_client": (1039, "744a8b443e9eb6b4",
        "82603c45d285468b"),
    "web_server+kv_client": (810, "27dbbf12f0fc3632",
        "5d244dfe57d7fee8"),
    "web_server+kv_client+image_transformer": (1039, "744761d8dc77eab2",
        "6a4dd2377d50bc11"),
}

#: workload program -> JIT source digest, standalone (not composed).
PROGRAM_JIT_PINS = {
    "fig9:image_transformer": "fa16173ba7570023",
    "fig9:kv_client_get": "bdde2f005b1eac7b",
    "fig9:kv_client_set": "6dc254e75bac7459",
    "fig9:web_server": "7be83821ad8092b0",
    "std:image_transformer": "fa16173ba7570023",
    "std:kv_client": "e750f2457bd2c6e9",
    "std:web_server": "7be83821ad8092b0",
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
