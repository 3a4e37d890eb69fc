"""Tests for the Match+Lambda compiler: composition, passes, codegen."""

import pytest

from repro.compiler import (
    CompilationUnit,
    CompileError,
    Firmware,
    MAX_INSTRUCTIONS_PER_CORE,
    compile_unit,
    dead_code_elimination,
    lambda_coalescing,
    match_reduction,
    memory_stratification,
)
from repro.isa import (
    AccessMode,
    Interpreter,
    Op,
    ProgramBuilder,
    Region,
)


def make_lambda(name, with_helper=True, content_size=64, pad=0):
    """A small lambda: reads a header, copies content, replies."""
    builder = ProgramBuilder(name)
    builder.object("content", content_size, AccessMode.READ)
    builder.object("scratch", 32, AccessMode.READ_WRITE, hot=True)
    if with_helper:
        helper = builder.function("make_reply")
        helper.hstore("LambdaHeader", "is_response", 1)
        helper.nop(4)
        helper.ret()
        builder.close(helper)
    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "request_id")
    fn.load("r2", "content", 0)
    fn.store("scratch", 0, "r2")
    if pad:
        fn.nop(pad)
    if with_helper:
        fn.call("make_reply")
    fn.forward()
    builder.close(fn)
    return builder.build()


def make_unit(names=("web", "kv"), **kwargs):
    unit = CompilationUnit()
    for index, name in enumerate(names):
        unit.add_lambda(make_lambda(name, **kwargs), wid=index + 1,
                        route_port=f"p{index}")
    return unit


def test_unit_rejects_duplicates():
    unit = make_unit(["web"])
    with pytest.raises(CompileError):
        unit.add_lambda(make_lambda("web"), wid=9)
    with pytest.raises(CompileError):
        unit.add_lambda(make_lambda("other"), wid=1)


def test_build_program_contains_all_stages():
    program = make_unit().build_program()
    assert "main" in program.functions
    assert "parse" in program.functions
    assert "match_dispatch" in program.functions
    assert "web" in program.functions
    assert "web.make_reply" in program.functions
    assert "web.content" in program.objects


def test_empty_unit_rejected():
    with pytest.raises(CompileError):
        CompilationUnit().build_program()


def test_firmware_executes_end_to_end():
    firmware = compile_unit(make_unit())
    result = Interpreter().run(
        firmware.program,
        headers={"LambdaHeader": {"wid": 1, "request_id": 5}},
        meta={"has_EthernetHeader": 1, "has_IPv4Header": 1,
              "has_UDPHeader": 1, "has_LambdaHeader": 1},
    )
    assert result.verdict == "forward"
    assert result.headers["LambdaHeader"]["is_response"] == 1


def test_firmware_unknown_wid_to_host():
    firmware = compile_unit(make_unit())
    result = Interpreter().run(
        firmware.program,
        headers={"LambdaHeader": {"wid": 99, "request_id": 5}},
        meta={"has_LambdaHeader": 1},
    )
    assert result.verdict == "to_host"


def test_dead_code_elimination_removes_unused():
    unit = make_unit(["web"])
    program = unit.lambdas["web"]
    # An uncalled function and an untouched object.
    from repro.isa import Function, ins

    program.add_function(Function("orphan", [ins(Op.RET)]))
    program.add_object(
        __import__("repro.isa", fromlist=["MemoryObject"]).MemoryObject("unused", 99)
    )
    dead_code_elimination(unit)
    assert "orphan" not in program.functions
    assert "unused" not in program.objects
    assert "content" in program.objects


def test_lambda_coalescing_hoists_identical_helpers():
    unit = make_unit(["web", "kv"])
    before = unit.build_program().instruction_count
    lambda_coalescing(unit)
    after = unit.build_program().instruction_count
    assert len(unit.shared_functions) == 1
    assert "make_reply" not in unit.lambdas["web"].functions
    assert after < before


def test_coalesced_firmware_still_correct():
    unit = make_unit(["web", "kv"])
    lambda_coalescing(unit)
    firmware_program = unit.build_program()
    result = Interpreter().run(
        firmware_program,
        headers={"LambdaHeader": {"wid": 2, "request_id": 1}},
        meta={"has_LambdaHeader": 1},
    )
    assert result.verdict == "forward"
    assert result.headers["LambdaHeader"]["is_response"] == 1


def test_match_reduction_shrinks_dispatch():
    unit = make_unit(["web", "kv", "img"])
    before = unit.build_program().instruction_count
    match_reduction(unit)
    after = unit.build_program().instruction_count
    assert after < before
    assert unit.merged_routes and unit.if_else_tables and unit.prune_parser


def test_match_reduction_preserves_routing():
    unit = make_unit(["web", "kv"])
    match_reduction(unit)
    result = Interpreter().run(
        unit.build_program(),
        headers={"LambdaHeader": {"wid": 1, "request_id": 0}},
        meta={"has_LambdaHeader": 1},
    )
    assert result.verdict == "forward"
    assert result.meta["route_port"] == "p0"


def test_memory_stratification_places_objects():
    unit = make_unit(["web"])
    memory_stratification(unit)
    program = unit.lambdas["web"]
    assert program.object("scratch").region is Region.LOCAL  # hot + small
    assert program.object("content").region is Region.CTM


def test_memory_stratification_folds_accesses():
    unit = make_unit(["web"])
    before = unit.build_program().instruction_count
    memory_stratification(unit)
    after = unit.build_program().instruction_count
    assert after < before
    body = unit.lambdas["web"].functions["web"].body
    ops = [instruction.op for instruction in body]
    assert Op.LOADD in ops
    assert Op.STORED in ops
    assert Op.RESOLVE not in ops


def test_stratified_firmware_still_correct():
    unit = make_unit(["web", "kv"])
    memory_stratification(unit)
    result = Interpreter().run(
        unit.build_program(),
        headers={"LambdaHeader": {"wid": 1, "request_id": 3}},
        meta={"has_LambdaHeader": 1},
    )
    assert result.verdict == "forward"


def test_large_object_goes_to_imem():
    unit = CompilationUnit()
    builder = ProgramBuilder("img")
    builder.object("image", 1024 * 1024, AccessMode.READ)
    fn = builder.function("img")
    fn.load("r1", "image", 0)
    fn.forward()
    builder.close(fn)
    unit.add_lambda(builder.build(), wid=1)
    memory_stratification(unit, ctm_budget=1000)
    assert unit.lambdas["img"].object("image").region is Region.IMEM


def test_huge_object_goes_to_emem():
    unit = CompilationUnit()
    builder = ProgramBuilder("big")
    builder.object("blob", 8 * 1024 * 1024, AccessMode.READ_WRITE)
    fn = builder.function("big")
    fn.store("blob", 0, 1)
    fn.forward()
    builder.close(fn)
    unit.add_lambda(builder.build(), wid=1)
    memory_stratification(unit)
    assert unit.lambdas["big"].object("blob").region is Region.EMEM


def test_compile_unit_report_monotonic():
    firmware = compile_unit(make_unit(["web", "kv", "img"]))
    counts = [stage.instructions for stage in firmware.report.stages]
    assert counts == sorted(counts, reverse=True)
    assert firmware.report.stages[0].stage == "Unoptimized"
    assert firmware.report.total_reduction_percent > 0


def test_compile_unit_unoptimized():
    firmware = compile_unit(make_unit(), optimize=False)
    assert len(firmware.report.stages) == 1
    assert firmware.instruction_count == firmware.report.baseline


def test_firmware_resource_check():
    unit = make_unit(["web"], pad=MAX_INSTRUCTIONS_PER_CORE + 10)
    with pytest.raises(CompileError, match="instructions"):
        compile_unit(unit, optimize=False)


def test_firmware_sizes_and_layout():
    firmware = compile_unit(make_unit())
    assert firmware.binary_size_bytes > firmware.code_bytes
    assert sum(firmware.region_layout.values()) == \
        firmware.program.data_bytes
    assert firmware.lambda_ids["web"] == 1
    assert "ghost" not in firmware.lambda_ids


def test_optimized_beats_unoptimized_cycles():
    """Stratification must reduce executed cycles, not just code size."""
    headers = {"LambdaHeader": {"wid": 1, "request_id": 5}}
    meta = {"has_LambdaHeader": 1}
    naive = compile_unit(make_unit(), optimize=False)
    optimized = compile_unit(make_unit())
    naive_cycles = Interpreter().run(
        naive.program, headers=dict(headers), meta=dict(meta)
    ).cycles
    optimized_cycles = Interpreter().run(
        optimized.program, headers=dict(headers), meta=dict(meta)
    ).cycles
    assert optimized_cycles < naive_cycles
