"""Tests for program structure, validation, and the builder."""

import pytest

from repro.isa import (
    AccessMode,
    Function,
    INSTRUCTION_BYTES,
    LambdaProgram,
    MemoryObject,
    Op,
    ProgramBuilder,
    Region,
    ins,
)


def simple_program():
    builder = ProgramBuilder("adder")
    fn = builder.function("adder")
    fn.mov("r1", 2).add("r0", "r1", 40).ret("r0")
    builder.close(fn)
    return builder.build()


def test_builder_produces_valid_program():
    program = simple_program()
    assert program.entry == "adder"
    assert program.instruction_count == 3
    assert program.code_bytes == 3 * INSTRUCTION_BYTES


def test_labels_do_not_count_as_instructions():
    function = Function("f", [ins(Op.LABEL, "top"), ins(Op.NOP), ins(Op.JMP, "top")])
    assert function.instruction_count == 2
    assert function.decoded.labels == {"top": 0}


def test_memory_object_validation():
    with pytest.raises(ValueError):
        MemoryObject("empty", 0)
    obj = MemoryObject("buf", 64)
    assert obj.region is Region.FLAT
    assert obj.access is AccessMode.READ_WRITE


def test_duplicate_function_rejected():
    program = LambdaProgram("p", [Function("f"), ])
    with pytest.raises(ValueError):
        program.add_function(Function("f"))


def test_duplicate_object_rejected():
    program = LambdaProgram("p", [Function("p")])
    program.add_object(MemoryObject("buf", 8))
    with pytest.raises(ValueError):
        program.add_object(MemoryObject("buf", 8))


def test_validate_catches_undefined_call():
    program = LambdaProgram("p", [Function("p", [ins(Op.CALL, "ghost")])])
    with pytest.raises(ValueError, match="ghost"):
        program.validate()


def test_validate_catches_undefined_label():
    program = LambdaProgram("p", [Function("p", [ins(Op.JMP, "nowhere")])])
    with pytest.raises(ValueError, match="nowhere"):
        program.validate()


def test_validate_catches_undefined_object():
    body = [ins(Op.LOADD, "r1", ("mem", "ghost", 0))]
    program = LambdaProgram("p", [Function("p", body)])
    with pytest.raises(ValueError, match="ghost"):
        program.validate()


def test_validate_catches_missing_entry():
    program = LambdaProgram("p", [Function("other")], entry="p")
    with pytest.raises(ValueError, match="entry"):
        program.validate()


def test_copy_is_deep_for_objects():
    program = simple_program()
    clone = program.copy()
    clone.functions["adder"].body.append(ins(Op.NOP))
    assert program.instruction_count == 3
    assert clone.instruction_count == 4


def test_data_bytes_sums_objects():
    builder = ProgramBuilder("p")
    fn = builder.function("p")
    fn.ret()
    builder.close(fn)
    builder.object("a", 100)
    builder.object("b", 28)
    program = builder.build()
    assert program.data_bytes == 128


def test_builder_tracks_headers():
    builder = ProgramBuilder("p")
    fn = builder.function("p")
    fn.hload("r1", "LambdaHeader", "wid").ret()
    builder.close(fn)
    program = builder.build()
    assert program.headers_used == ["LambdaHeader"]


def test_builder_flat_memory_emits_resolve_pairs():
    builder = ProgramBuilder("p")
    builder.object("buf", 16)
    fn = builder.function("p")
    fn.load("r1", "buf", 0)
    fn.ret()
    builder.close(fn)
    program = builder.build()
    ops = [i.op for i in program.functions["p"].body]
    assert ops == [Op.RESOLVE, Op.LOAD, Op.RET]
