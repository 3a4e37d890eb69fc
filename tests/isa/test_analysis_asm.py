"""Tests for static analyses and the assembler round-trip."""

import pytest

from repro.isa import (
    AccessMode,
    AsmError,
    Function,
    LambdaProgram,
    MemoryObject,
    Op,
    ProgramBuilder,
    Region,
    assemble,
    disassemble,
    duplicate_functions,
    function_signature,
    headers_used,
    ins,
    memory_access_profile,
    reachable_functions,
    unreachable_code,
)
from repro.isa.analysis import call_order


def test_reachable_functions_follows_calls():
    program = LambdaProgram(
        "p",
        [
            Function("p", [ins(Op.CALL, "a"), ins(Op.RET)]),
            Function("a", [ins(Op.CALL, "b"), ins(Op.RET)]),
            Function("b", [ins(Op.RET)]),
            Function("dead", [ins(Op.RET)]),
        ],
    )
    assert reachable_functions(program) == {"p", "a", "b"}


def test_call_order_puts_callers_before_callees():
    program = LambdaProgram(
        "p",
        [
            Function("p", [ins(Op.CALL, "b"), ins(Op.CALL, "a"),
                           ins(Op.RET)]),
            Function("a", [ins(Op.CALL, "c"), ins(Op.RET)]),
            Function("b", [ins(Op.CALL, "c"), ins(Op.RET)]),
            Function("c", [ins(Op.RET)]),
            Function("dead", [ins(Op.CALL, "c"), ins(Op.RET)]),
        ],
    )
    assert call_order(program) == ["p", "a", "b", "c"]
    assert call_order(program, "a") == ["a", "c"]


def test_unreachable_code_after_ret():
    # The label "after" is never a branch target, so the code behind it
    # is just as dead as the instruction right after the ret.
    function = Function(
        "f",
        [ins(Op.RET), ins(Op.NOP), ins(Op.LABEL, "after"), ins(Op.NOP)],
    )
    assert unreachable_code(function) == [1, 3]


def test_unreachable_code_after_forward():
    function = Function("f", [ins(Op.FORWARD), ins(Op.MOV, "r1", 1)])
    assert unreachable_code(function) == [1]


def test_unreachable_code_branch_target_stays_live():
    # A targeted label resurrects its code; an untargeted one does not.
    function = Function(
        "f",
        [
            ins(Op.BEQ, "r1", 0, "taken"),
            ins(Op.RET),
            ins(Op.NOP),
            ins(Op.LABEL, "taken"),
            ins(Op.NOP),
            ins(Op.RET),
        ],
    )
    assert unreachable_code(function) == [2]


def test_function_signature_ignores_labels():
    f1 = Function("x", [ins(Op.LABEL, "a"), ins(Op.NOP)])
    f2 = Function("y", [ins(Op.LABEL, "b"), ins(Op.NOP)])
    assert function_signature(f1) == function_signature(f2)


def test_duplicate_functions_across_programs():
    shared_body = [ins(Op.ADD, "r0", "r0", 1), ins(Op.RET)]
    p1 = LambdaProgram("p1", [Function("p1"), Function("helper", list(shared_body))])
    p2 = LambdaProgram("p2", [Function("p2"), Function("util", list(shared_body))])
    groups = duplicate_functions([p1, p2])
    assert len(groups) == 1
    locations = next(iter(groups.values()))
    assert ("p1", "helper") in locations
    assert ("p2", "util") in locations


def test_duplicate_functions_never_merges_entries():
    body = [ins(Op.RET)]
    p1 = LambdaProgram("p1", [Function("p1", list(body))])
    p2 = LambdaProgram("p2", [Function("p2", list(body))])
    assert duplicate_functions([p1, p2]) == {}


def test_memory_access_profile_counts():
    builder = ProgramBuilder("p")
    builder.object("hotbuf", 16)
    builder.object("cold", 1024)
    fn = builder.function("p")
    fn.mov("r1", 0)
    fn.label("loop")
    fn.load("r2", "hotbuf", "r1")
    fn.add("r1", "r1", 1)
    fn.blt("r1", 8, "loop")
    fn.store("cold", 0, "r2")
    fn.ret()
    builder.close(fn)
    profile = memory_access_profile(builder.build())
    assert profile["hotbuf"].reads >= 1
    assert profile["hotbuf"].in_loop
    assert profile["cold"].writes == 1
    assert not profile["cold"].in_loop
    assert profile["cold"].mode is AccessMode.WRITE


def test_headers_used_scans_instructions():
    builder = ProgramBuilder("p")
    fn = builder.function("p")
    fn.hload("r1", "RpcHeader", "method")
    fn.hstore("LambdaHeader", "is_response", 1)
    fn.ret()
    builder.close(fn)
    assert headers_used(builder.build()) == {"RpcHeader", "LambdaHeader"}


def roundtrip_program():
    builder = ProgramBuilder("web", entry="web")
    builder.object("memory", 60, AccessMode.READ, hot=True)
    fn = builder.function("web")
    fn.hload("r1", "ServerHdr", "address")
    fn.load("r2", "memory", 0)
    fn.mov("r3", 20)
    fn.label("out")
    fn.bne("r2", 0, "out")
    fn.forward()
    builder.close(fn)
    return builder.build()


def test_asm_roundtrip_preserves_program():
    program = roundtrip_program()
    text = disassemble(program)
    parsed = assemble(text)
    assert parsed.name == program.name
    assert parsed.instruction_count == program.instruction_count
    assert parsed.objects.keys() == program.objects.keys()
    assert parsed.object("memory").hot
    assert parsed.object("memory").access is AccessMode.READ
    # Instruction-level equality.
    for fname, function in program.functions.items():
        assert function_signature(parsed.function(fname)) == function_signature(function)


def test_asm_roundtrip_preserves_region():
    program = roundtrip_program()
    program.object("memory").region = Region.CTM
    parsed = assemble(disassemble(program))
    assert parsed.object("memory").region is Region.CTM


def test_assemble_rejects_garbage():
    with pytest.raises(AsmError):
        assemble(".lambda p\n.func p\n    frobnicate r1\n")
    with pytest.raises(AsmError):
        assemble(".func orphan\n    nop\n")
    with pytest.raises(AsmError):
        assemble("nop\n")


def test_assemble_requires_object_size():
    with pytest.raises(AsmError, match="size"):
        assemble(".lambda p\n.object buf\n.func p\n    ret\n")
