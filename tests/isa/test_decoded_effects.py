"""The decoded form: the same register effects, decoded once.

Every analysis reads ``Function.decoded`` instead of decoding operands
itself. These tests hold it to the per-analysis decoding it replaced
(kept in ``tests/isa/legacy_effects.py``) and count the work one
compile does:

* on random instructions and on every bundled program, the decoded
  uses and defs of each instruction equal the reference's. Register
  operands are the 16 canonical names ``r0``-``r15``; the reference's
  ``is_register`` also accepts spellings such as ``r01`` that name no
  register of the machine (the interpreter cannot read them), so the
  strategy does not generate those;
* one ``compile_unit`` of web_server validates each program it builds
  exactly once, solves whole-program liveness at most twice (the
  dead-store rounds; the verifier's lint reuses the last), and a second
  compile of the same unit decodes exactly as much as the first — the
  decoded form is per body, not a process-wide cache.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilationUnit, compile_unit
from repro.isa import Function, Instruction, LambdaProgram, Op
from repro.isa.asm import assemble
from repro.isa.verify import InterproceduralLiveness
from repro.isa.verify import cfg as cfg_module
from repro.isa.verify.cfg import register_names
from repro.workloads.registry import fig9_workloads, standard_workloads
from tests.isa.legacy_effects import instruction_defs, instruction_uses

_LAMBDAS = Path(__file__).resolve().parents[2] / "examples" / "lambdas"

_REGISTERS = [f"r{i}" for i in range(16)]
#: Strings that are not registers, including near misses.
_NAMES = ["p0", "r16", "r", "R1", "lbl", "route", "mem", "hdr"]

_scalars = st.one_of(
    st.sampled_from(_REGISTERS),
    st.sampled_from(_NAMES),
    st.integers(-5, 5),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_operands = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(st.just("mem"), st.sampled_from(["buf", "r3"]), inner),
        st.tuples(st.just("hdr"), st.sampled_from(["IPv4Header"]),
                  st.sampled_from(["ttl", "r2"])),
        st.tuples(st.just("meta"), st.sampled_from(["out", "r4"])),
    ),
    max_leaves=3,
)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(sorted(Op, key=lambda o: o.value)))
    least = 1 if op in (Op.LABEL, Op.CALL) else 0
    args = draw(st.lists(_operands, min_size=least, max_size=4))
    return Instruction(op, tuple(args))


def _decoded_effects(function, index):
    decoded = function.decoded
    return (frozenset(register_names(decoded.uses[index])),
            frozenset(register_names(decoded.defs[index])))


@settings(max_examples=400, deadline=None)
@given(instructions())
def test_decoded_effects_match_the_reference(instruction):
    function = Function("f", [instruction])
    assert _decoded_effects(function, 0) == (
        instruction_uses(instruction), instruction_defs(instruction))


@settings(max_examples=100, deadline=None)
@given(st.lists(instructions(), max_size=12))
def test_decoded_bodies_match_the_reference(body):
    function = Function("f", body)
    for index, instruction in enumerate(body):
        assert _decoded_effects(function, index) == (
            instruction_uses(instruction), instruction_defs(instruction))


def _bundled_programs():
    programs = {f"std:{name}": spec.nic_program()
                for name, spec in standard_workloads().items()}
    programs.update({f"fig9:{name}": spec.nic_program()
                     for name, spec in fig9_workloads().items()})
    for path in sorted(_LAMBDAS.glob("*.asm")):
        programs[f"asm:{path.stem}"] = assemble(path.read_text())
    for optimize in (False, True):
        unit = CompilationUnit()
        for index, (_, spec) in enumerate(sorted(fig9_workloads().items())):
            unit.add_lambda(spec.nic_program(), wid=index + 1,
                            route_port=f"p{index}")
        programs[f"fig9-firmware:{optimize}"] = compile_unit(
            unit, optimize=optimize).program
    return programs


@pytest.mark.parametrize("name", sorted(_bundled_programs()))
def test_bundled_programs_decode_like_the_reference(name):
    program = _bundled_programs()[name]
    checked = 0
    for function in program.functions.values():
        for index, instruction in enumerate(function.body):
            assert _decoded_effects(function, index) == (
                instruction_uses(instruction),
                instruction_defs(instruction)), (function.name, index)
            checked += 1
    assert checked > 0


def test_a_new_body_gets_a_new_decoded_form():
    function = Function("f", [Instruction(Op.MOV, ("r1", 1))])
    first = function.decoded
    assert function.decoded is first
    function.body = [Instruction(Op.MOV, ("r2", "r3"))]
    assert function.decoded is not first
    assert register_names(function.decoded.uses[0]) == ["r3"]


class _Work:
    """What one compile does: programs built, validations, liveness
    solves and decoded instructions."""

    def __init__(self, monkeypatch):
        self.built = []
        self.validated = []
        self.liveness = 0
        self.decoded = 0
        build = CompilationUnit.build_program
        validate = LambdaProgram.validate
        compute = InterproceduralLiveness._compute
        decode = cfg_module.DecodedFunction.__init__
        work = self

        def counting_build(unit):
            program = build(unit)
            work.built.append(program)
            return program

        def counting_validate(program):
            if not program.validated:
                work.validated.append(program)
            validate(program)

        def counting_compute(liveness):
            work.liveness += 1
            compute(liveness)

        def counting_decode(decoded, function):
            work.decoded += len(function.body)
            decode(decoded, function)

        monkeypatch.setattr(CompilationUnit, "build_program", counting_build)
        monkeypatch.setattr(LambdaProgram, "validate", counting_validate)
        monkeypatch.setattr(InterproceduralLiveness, "_compute",
                            counting_compute)
        monkeypatch.setattr(cfg_module.DecodedFunction, "__init__",
                            counting_decode)


def test_one_compile_validates_each_build_once_and_solves_liveness_twice(
        monkeypatch):
    unit = CompilationUnit()
    unit.add_lambda(standard_workloads()["web_server"].nic_program(), wid=1)

    first = _Work(monkeypatch)
    firmware = compile_unit(unit)
    assert firmware.verifier_report.ok
    assert first.built, "compile_unit built nothing"
    assert firmware.program is first.built[-1]
    assert [id(p) for p in first.validated] == [id(p) for p in first.built]
    assert first.liveness <= 2
    assert first.decoded > 0

    monkeypatch.undo()
    second = _Work(monkeypatch)
    compile_unit(unit)
    assert second.decoded == first.decoded
    assert len(second.built) == len(first.built)
    assert second.liveness == first.liveness
