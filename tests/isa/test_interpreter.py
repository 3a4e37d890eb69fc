"""Tests for the lambda interpreter: semantics and cycle accounting."""

import pytest

from repro.isa import (
    BASE_CYCLES,
    ExecutionError,
    Interpreter,
    IsolationError,
    Op,
    ProgramBuilder,
    REGION_ACCESS_CYCLES,
    Region,
    VERDICT_DROP,
    VERDICT_FORWARD,
    register_intrinsic,
)


def build(body_fn, objects=(), name="test"):
    builder = ProgramBuilder(name)
    for obj_name, size in objects:
        builder.object(obj_name, size)
    fn = builder.function(name)
    body_fn(fn)
    builder.close(fn)
    return builder.build()


def test_arithmetic_and_return():
    program = build(lambda f: f.mov("r1", 5).mul("r2", "r1", 8).ret("r2"))
    result = Interpreter().run(program)
    assert result.return_value == 40


def test_branches_loop():
    def body(f):
        f.mov("r1", 0).mov("r2", 0)
        f.label("top")
        f.add("r2", "r2", "r1")
        f.add("r1", "r1", 1)
        f.blt("r1", 5, "top")
        f.ret("r2")

    result = Interpreter().run(build(body))
    assert result.return_value == 0 + 1 + 2 + 3 + 4


def test_call_and_return_across_functions():
    builder = ProgramBuilder("main")
    helper = builder.function("double")
    helper.add("r0", "r0", "r0").ret("r0")
    builder.close(helper)
    main = builder.function("main")
    main.mov("r0", 21).call("double").ret("r0")
    builder.close(main)
    result = Interpreter().run(builder.build())
    assert result.return_value == 42


def test_memory_load_store_roundtrip():
    def body(f):
        f.mov("r1", 123456)
        f.store("buf", 0, "r1")
        f.load("r2", "buf", 0)
        f.ret("r2")

    result = Interpreter().run(build(body, objects=[("buf", 64)]))
    assert result.return_value == 123456


def test_memcpy_moves_bytes():
    def body(f):
        f.mov("r1", 0x0807060504030201)
        f.store("src", 0, "r1")
        f.memcpy("dst", 0, "src", 0, 8)
        f.load("r2", "dst", 0)
        f.ret("r2")

    result = Interpreter().run(build(body, objects=[("src", 8), ("dst", 8)]))
    assert result.return_value == 0x0807060504030201


def test_header_read_write():
    def body(f):
        f.hload("r1", "LambdaHeader", "wid")
        f.add("r1", "r1", 1)
        f.hstore("LambdaHeader", "is_response", 1)
        f.ret("r1")

    program = build(body)
    result = Interpreter().run(program, headers={"LambdaHeader": {"wid": 9}})
    assert result.return_value == 10
    assert result.headers["LambdaHeader"]["is_response"] == 1


def test_missing_header_field_raises():
    program = build(lambda f: f.hload("r1", "LambdaHeader", "wid").ret())
    with pytest.raises(ExecutionError, match="wid"):
        Interpreter().run(program, headers={})


def test_meta_read_write():
    def body(f):
        f.mload("r1", "key")
        f.mstore("out", "r1")
        f.ret("r1")

    result = Interpreter().run(build(body), meta={"key": 77})
    assert result.return_value == 77
    assert result.meta["out"] == 77


def test_forward_and_drop_verdicts():
    forward = build(lambda f: f.forward())
    drop = build(lambda f: f.drop())
    assert Interpreter().run(forward).verdict == VERDICT_FORWARD
    assert Interpreter().run(drop).verdict == VERDICT_DROP


def test_cycle_accounting_alu():
    program = build(lambda f: f.mov("r1", 1).add("r2", "r1", 1).ret("r2"))
    result = Interpreter().run(program)
    expected = BASE_CYCLES[Op.MOV] + BASE_CYCLES[Op.ADD] + BASE_CYCLES[Op.RET]
    assert result.cycles == expected
    assert result.instructions_executed == 3


def test_flat_memory_pays_flat_cost():
    program = build(lambda f: f.load("r1", "buf", 0).ret(), objects=[("buf", 8)])
    result = Interpreter().run(program)
    assert result.region_accesses.get(Region.FLAT) == 1
    assert result.cycles >= REGION_ACCESS_CYCLES[Region.FLAT]


def test_stratified_region_changes_cost():
    program = build(lambda f: f.load("r1", "buf", 0).ret(), objects=[("buf", 8)])
    flat_cycles = Interpreter().run(program).cycles
    program.object("buf").region = Region.LOCAL
    local_cycles = Interpreter().run(program).cycles
    assert local_cycles < flat_cycles


def test_out_of_bounds_store_raises():
    program = build(
        lambda f: f.store("buf", 100, 1).ret(), objects=[("buf", 8)]
    )
    with pytest.raises(ExecutionError, match="out of bounds"):
        Interpreter().run(program)


def test_isolation_foreign_object_raises():
    program = build(lambda f: f.ret(), objects=[("mine", 8)])
    interp = Interpreter()
    # Hand-craft a run against a memory map missing the object.
    from repro.isa import Machine, ins

    program2 = build(lambda f: f.load("r1", "mine", 0).ret(), objects=[("mine", 8)])
    with pytest.raises(IsolationError):
        interp.run(program2, memory={})


def test_step_limit_stops_runaway():
    def body(f):
        f.label("spin")
        f.jmp("spin")

    program = build(body)
    with pytest.raises(ExecutionError, match="step limit"):
        Interpreter(step_limit=1000).run(program)


def test_persistent_memory_across_runs():
    def body(f):
        f.load("r1", "counter", 0)
        f.add("r1", "r1", 1)
        f.store("counter", 0, "r1")
        f.ret("r1")

    program = build(body, objects=[("counter", 8)])
    memory = {"counter": bytearray(8)}
    interp = Interpreter()
    assert interp.run(program, memory=memory).return_value == 1
    assert interp.run(program, memory=memory).return_value == 2


def test_intrinsic_dispatch_and_cost():
    def double_buf(machine, args):
        data = machine.memory["buf"]
        data[0] = data[0] * 2
        return 500  # extra cycles

    register_intrinsic("double_buf", double_buf)

    def body(f):
        f.mov("r1", 21)
        f.store("buf", 0, "r1")
        f.emit(Op.INTRINSIC, "double_buf", ("mem", "buf", 0))
        f.load("r2", "buf", 0)
        f.ret("r2")

    result = Interpreter().run(build(body, objects=[("buf", 8)]))
    assert result.return_value == 42
    assert result.cycles > 500


def test_unknown_intrinsic_raises():
    def body(f):
        f.emit(Op.INTRINSIC, "no_such_intrinsic")
        f.ret()

    with pytest.raises(ExecutionError, match="no_such_intrinsic"):
        Interpreter().run(build(body))


def test_time_seconds_uses_clock():
    program = build(lambda f: f.nop(100).ret())
    result = Interpreter().run(program)
    assert result.time_seconds(clock_hz=1e6) == pytest.approx(result.cycles / 1e6)


_HASH_LAMBDA = """
import json
from repro.isa import Interpreter, JitInterpreter, ProgramBuilder

builder = ProgramBuilder("hasher")
fn = builder.function("hasher")
fn.hload("r1", "LambdaHeader", "request_id")
fn.hash("r2", "r1")
fn.crc("r3", "r1")
fn.mstore("hash", "r2")
fn.mstore("crc", "r3")
fn.forward()
builder.close(fn)
program = builder.build()
outputs = []
for engine in (Interpreter(), JitInterpreter()):
    result = engine.run(program,
                        headers={"LambdaHeader": {"request_id": 7}})
    outputs.append([result.meta["hash"], result.meta["crc"]])
print(json.dumps(outputs))
"""


def test_hash_and_crc_do_not_depend_on_the_process_hash_seed():
    """HASH/CRC results are part of a lambda's observable output, so
    they must not change with Python's per-process string-hash salt."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_LAMBDA], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(json.loads(completed.stdout))
    assert runs[0] == runs[1]
    (interpreter, jit) = runs[0]
    assert interpreter == jit
    assert all(0 <= value <= 0xFFFFFFFF for value in interpreter)
    assert interpreter[0] != interpreter[1]  # HASH and CRC differ
