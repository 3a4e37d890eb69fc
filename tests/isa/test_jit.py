"""Differential suite: the JIT source-codegen engine vs the reference.

The JIT tier must be *indistinguishable* from the reference
interpreter: same verdicts, return values, cycle counts, instruction
counts, region-access profiles, emitted packets, header/meta mutations,
response payloads, persistent-memory effects — and the same errors with
the same messages. The harness runs seeded fuzzed request streams over
every registered workload (and the composed multi-lambda firmware),
plus targeted cases for the paths where source codegen is structured
differently from the interpreter (segment-folded step checks, register
spills around calls, constant-folded branches, the interpreter
fallback).
"""

import copy
import random
import zlib
from dataclasses import asdict

import pytest

from repro.compiler import CompilationUnit, compile_unit
from repro.isa import (
    Interpreter,
    JitInterpreter,
    Op,
    ProgramBuilder,
    Region,
    compile_jit,
    program_signature,
)
import repro.isa.jit as jit_module
from repro.workloads.registry import fig9_workloads, standard_workloads


def all_workload_programs():
    """Every registered NIC lambda, by a stable unique name."""
    programs = {}
    for name, spec in standard_workloads().items():
        programs[f"std:{name}"] = spec.nic_program()
    for name, spec in fig9_workloads().items():
        programs[f"fig9:{name}"] = spec.nic_program()
    return programs


def composed_firmware_program(optimize):
    unit = CompilationUnit()
    for index, (_, spec) in enumerate(sorted(fig9_workloads().items())):
        unit.add_lambda(spec.nic_program(), wid=index + 1,
                        route_port=f"p{index}")
    return compile_unit(unit, optimize=optimize).program


def fuzz_inputs(rng, n):
    """Seeded request stream exercising every workload's branches."""
    inputs = []
    for i in range(n):
        headers = {
            "LambdaHeader": {
                "wid": rng.randrange(1, 6),
                "request_id": rng.randrange(1 << 16),
                "seq": rng.randrange(8),
                "is_response": rng.choice([0, 1]),
                "total_segments": rng.randrange(1, 5),
            }
        }
        meta = {
            "has_LambdaHeader": 1,
            "ingress_port": rng.randrange(4),
            "service_response": rng.choice([0, 0, 1]),
            "service_status": rng.choice([0, 1]),
            "rdma_len": rng.choice([0, 1024, 4096]),
        }
        inputs.append((headers, meta))
    return inputs


def fresh_memory(program):
    return {obj.name: bytearray(obj.size_bytes)
            for obj in program.objects.values()}


def run_both(program, headers, meta, ref_memory, jit_memory,
             reference=None, jit=None, entry=None):
    """Run one input through both engines; returns (outcome, outcome)."""
    reference = reference or Interpreter()
    jit = jit or JitInterpreter()
    try:
        ref = ("ok", asdict(reference.run(
            program, headers=copy.deepcopy(headers), meta=dict(meta),
            memory=ref_memory, entry=entry)))
    except Exception as error:
        ref = ("err", type(error).__name__, str(error))
    try:
        result, _ = jit.execute(
            program, headers=copy.deepcopy(headers), meta=dict(meta),
            memory=jit_memory, entry=entry)
        jt = ("ok", asdict(result))
    except Exception as error:
        jt = ("err", type(error).__name__, str(error))
    return ref, jt


@pytest.mark.parametrize("key", sorted(all_workload_programs()))
def test_every_workload_differentially(key):
    """Fuzzed request sequence against shared persistent memory."""
    program = all_workload_programs()[key]
    rng = random.Random(zlib.crc32(key.encode()))
    reference, jit = Interpreter(), JitInterpreter()
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    for headers, meta in fuzz_inputs(rng, 60):
        ref, jt = run_both(program, headers, meta, ref_memory,
                           jit_memory, reference, jit)
        assert ref == jt, f"{key}: {ref} != {jt}"
    # Persistent state evolved identically across the whole sequence.
    assert ref_memory == jit_memory
    # Every registered workload must lower — no silent tier degradation.
    assert jit.stats.fallbacks == 0
    assert jit.last_tier == "jit"


@pytest.mark.parametrize("optimize", [False, True])
def test_composed_firmware_differentially(optimize):
    """The multi-lambda compiled firmware image, pre/post optimizer."""
    program = composed_firmware_program(optimize)
    rng = random.Random(1234)
    reference, jit = Interpreter(), JitInterpreter()
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    for headers, meta in fuzz_inputs(rng, 40):
        ref, jt = run_both(program, headers, meta, ref_memory,
                           jit_memory, reference, jit)
        assert ref == jt
    assert ref_memory == jit_memory
    assert jit.stats.fallbacks == 0


def build(body_fn, objects=(), name="test"):
    builder = ProgramBuilder(name)
    for obj_name, size in objects:
        builder.object(obj_name, size)
    fn = builder.function(name)
    body_fn(fn)
    builder.close(fn)
    return builder.build()


def assert_identical(program, headers=None, meta=None, entry=None,
                     objects=True):
    ref_memory = fresh_memory(program) if objects else None
    jit_memory = ({k: bytearray(v) for k, v in ref_memory.items()}
                  if objects else None)
    ref, jt = run_both(program, headers or {}, meta or {},
                       ref_memory, jit_memory, entry=entry)
    assert ref == jt, f"{ref} != {jt}"
    if objects:
        assert ref_memory == jit_memory
    return ref


def test_calls_returns_and_cycle_parity():
    builder = ProgramBuilder("main")
    helper = builder.function("double")
    helper.add("r0", "r0", "r0").ret("r0")
    builder.close(helper)
    main = builder.function("main")
    main.mov("r0", 21).call("double").add("r1", "r0", 1).ret("r1")
    builder.close(main)
    outcome = assert_identical(builder.build(), objects=False)
    assert outcome[1]["return_value"] == 43


def test_loops_and_labels():
    def body(f):
        f.mov("r1", 0).mov("r2", 0)
        f.label("top")
        f.add("r2", "r2", "r1")
        f.add("r1", "r1", 1)
        f.blt("r1", 200, "top")
        f.ret("r2")

    outcome = assert_identical(build(body), objects=False)
    assert outcome[1]["return_value"] == sum(range(200))


def test_memory_region_accounting_parity():
    def body(f):
        f.mov("r1", 0xDEAD)
        f.store("buf", 0, "r1")
        f.load("r2", "buf", 0)
        f.memcpy("dst", 0, "buf", 0, 8)
        f.load("r3", "dst", 0)
        f.ret("r3")

    outcome = assert_identical(build(body, objects=[("buf", 64),
                                                    ("dst", 64)]))
    assert outcome[1]["region_accesses"]


def test_error_parity_step_limit():
    def body(f):
        f.label("spin")
        f.jmp("spin")

    program = build(body)
    reference = Interpreter(step_limit=500)
    jit = JitInterpreter(step_limit=500)
    ref, jt = run_both(program, {}, {}, None, None, reference, jit)
    assert ref[0] == "err" and ref == jt
    assert "step limit 500" in ref[2]


@pytest.mark.parametrize("limit", range(1, 9))
def test_step_limit_boundary_sweep(limit):
    """Folded per-segment step checks trip at the exact reference
    boundary, even when the limit lands mid-segment."""
    def body(f):
        f.mov("r1", 1)
        f.add("r1", "r1", 1)
        f.add("r1", "r1", 2)
        f.mov("r2", 5)
        f.add("r0", "r1", "r2")
        f.ret("r0")

    program = build(body)
    reference = Interpreter(step_limit=limit)
    jit = JitInterpreter(step_limit=limit)
    ref, jt = run_both(program, {}, {}, None, None, reference, jit)
    assert ref == jt
    assert ref[0] == ("ok" if limit >= 6 else "err")


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_step_limit_mid_segment_memory_side_effects(limit):
    """A limit landing inside a segment must preserve the stores that
    the reference executed before tripping (the _step_trip replay)."""
    def body(f):
        f.mov("r1", 0xAA)
        f.store("buf", 0, "r1")
        f.mov("r2", 0xBB)
        f.store("buf", 8, "r2")
        f.forward()

    program = build(body, objects=[("buf", 64)])
    reference = Interpreter(step_limit=limit)
    jit = JitInterpreter(step_limit=limit)
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    ref, jt = run_both(program, {}, {}, ref_memory, jit_memory,
                       reference, jit)
    assert ref == jt
    # The partial write prefix must match byte-for-byte.
    assert ref_memory == jit_memory


def test_error_parity_step_limit_through_trailing_label():
    """Termination through a trailing label at exactly the limit."""
    def body(f):
        f.mov("r1", 1)
        f.beq("r1", 1, "end")
        f.mov("r2", 2)
        f.label("end")

    program = build(body)
    # Two real instructions execute; limit of 2 trips at the label.
    reference = Interpreter(step_limit=2)
    jit = JitInterpreter(step_limit=2)
    ref, jt = run_both(program, {}, {}, None, None, reference, jit)
    assert ref[0] == "err" and ref == jt
    # One above the limit, both complete.
    reference = Interpreter(step_limit=3)
    jit = JitInterpreter(step_limit=3)
    ref, jt = run_both(program, {}, {}, None, None, reference, jit)
    assert ref[0] == "ok" and ref == jt


def test_error_parity_missing_header():
    program = build(lambda f: f.hload("r1", "Nope", "field").ret("r1"))
    ref, jt = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == jt
    assert "Nope.field not present" in ref[2]


def test_error_parity_foreign_object():
    program = build(lambda f: f.load("r1", "buf", 0).ret("r1"),
                    objects=[("buf", 64)])
    reference, jit = Interpreter(), JitInterpreter()
    ref, jt = run_both(program, {}, {}, {}, {}, reference, jit)
    assert ref[0] == "err" and ref == jt
    assert "foreign object" in ref[2]


def test_error_parity_out_of_bounds():
    program = build(lambda f: f.store("buf", 9999, "r1"),
                    objects=[("buf", 64)])
    ref, jt = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == jt
    assert "out of bounds" in ref[2]


def test_error_parity_unknown_intrinsic():
    program = build(lambda f: f.emit(Op.INTRINSIC, "nonsense"))
    ref, jt = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == jt
    assert "unknown intrinsic" in ref[2]


def test_wrote_memory_flag():
    pure = build(lambda f: f.load("r1", "buf", 0).mstore("v", "r1").forward(),
                 objects=[("buf", 64)])
    impure = build(lambda f: f.mov("r1", 7).store("buf", 0, "r1").forward(),
                   objects=[("buf", 64)])
    jit = JitInterpreter()
    _, wrote = jit.execute(pure, headers={}, meta={})
    assert wrote is False
    _, wrote = jit.execute(impure, headers={}, meta={})
    assert wrote is True


def test_recompiles_when_region_changes():
    """Memory stratification after compilation must not use stale code."""
    def body(f):
        f.load("r1", "buf", 0)
        f.ret("r1")

    program = build(body, objects=[("buf", 64)])
    jit = JitInterpreter()
    reference = Interpreter()
    first_jit = jit.run(program, memory=fresh_memory(program))
    first_ref = reference.run(program, memory=fresh_memory(program))
    assert asdict(first_jit) == asdict(first_ref)

    program.objects["buf"].region = Region.EMEM  # stratification pass
    second_jit = jit.run(program, memory=fresh_memory(program))
    second_ref = reference.run(program, memory=fresh_memory(program))
    assert asdict(second_jit) == asdict(second_ref)
    assert second_jit.cycles != first_jit.cycles
    assert list(second_jit.region_accesses) == [Region.EMEM]


def test_recompiles_when_body_changes():
    program = build(lambda f: f.mov("r0", 1).ret("r0"))
    jit = JitInterpreter()
    assert jit.run(program).return_value == 1
    fn = program.functions["test"]
    fn.body = fn.body[:1] + fn.body  # prepend another mov
    assert jit.run(program).instructions_executed == \
        Interpreter().run(program).instructions_executed


def test_compile_cache_stats():
    program = build(lambda f: f.mov("r0", 1).ret("r0"))
    jit = JitInterpreter()
    jit.run(program)
    assert (jit.stats.hits, jit.stats.misses) == (0, 1)
    first = jit.compiled_for(program)
    assert first is not None
    jit.run(program)
    assert jit.compiled_for(program) is first
    assert jit.stats.misses == 1
    assert jit.stats.hits >= 2
    assert jit.stats.fallbacks == 0
    assert jit.stats.lookups == jit.stats.hits + jit.stats.misses
    # A structural change forces a recompile (one more miss).
    fn = program.functions["test"]
    fn.body = fn.body[:1] + fn.body
    jit.run(program)
    assert jit.stats.misses == 2
    assert program_signature(program) == \
        jit._compiled[program][0]


def test_fallback_to_interpreter(monkeypatch):
    """Lowering failures degrade to the reference interpreter, identically."""
    program = build(lambda f: f.mov("r0", 7).ret("r0"))

    def explode(prog):
        raise jit_module.JitLoweringError("forced for test")

    monkeypatch.setattr(jit_module, "JitProgram", explode)
    jit = JitInterpreter()
    result, wrote = jit.execute(program, headers={}, meta={})
    assert result == Interpreter().run(program, headers={}, meta={})
    # The interpreter does not track writes, so a fallback run always
    # counts as memory-writing (the memo never replays it).
    assert wrote is True
    assert jit.last_tier == "interpreter"
    assert jit.stats.fallbacks == 1
    assert jit.dump_source(program) is None
    # The failure is cached: no recompile attempt per request.
    jit.execute(program, headers={}, meta={})
    assert jit.stats.fallbacks == 1
    assert jit.stats.hits >= 1


def test_alternate_entry_point_parity():
    builder = ProgramBuilder("main")
    other = builder.function("other")
    other.mov("r0", 99).ret("r0")
    builder.close(other)
    main = builder.function("main")
    main.mov("r0", 1).ret("r0")
    builder.close(main)
    program = builder.build()
    outcome = assert_identical(program, entry="other", objects=False)
    assert outcome[1]["return_value"] == 99


def test_missing_entry_point_parity():
    program = build(lambda f: f.ret(0))
    ref, jt = run_both(program, {}, {}, None, None, entry="nope")
    assert ref[0] == "err" and ref == jt


def test_emitted_packets_and_response_payload_parity():
    def body(f):
        f.mstore("emit_dst", "svc")
        f.mstore("emit_key", 5)
        f.emit_packet()
        f.hstore("LambdaHeader", "is_response", 1)
        f.forward()

    outcome = assert_identical(
        build(body),
        headers={"LambdaHeader": {"is_response": 0}},
        meta={"has_LambdaHeader": 1},
        objects=False,
    )
    assert len(outcome[1]["emitted"]) == 1
    assert outcome[1]["emitted"][0]["meta"]["emit_dst"] == "svc"


def test_dump_source_is_real_python():
    """--dump-source output is compilable, commented Python."""
    program = all_workload_programs()["std:web_server"]
    jit = JitInterpreter()
    source = jit.dump_source(program)
    assert source is not None
    compile(source, "<dump>", "exec")  # must be valid Python
    assert "def " in source and "st.registers" in source
    # compile_jit is the library entry point for the same artifact.
    assert compile_jit(program).source == source


def test_cli_dump_source(capsys):
    assert jit_module._main(["--workload", "web_server"]) == 0
    out = capsys.readouterr().out
    assert "JIT-generated code" in out
    compile(out, "<cli>", "exec")


# -- interval-driven memcpy lowering ----------------------------------------


def masked_memcpy_program():
    """Offset and length masked into [0, 63] / [0, 31] of 128 B
    objects: the JIT's interval pass proves every byte in bounds."""

    def body(f):
        f.hload("r1", "LambdaHeader", "request_id")
        f.hash("r2", "r1")
        f.band("r2", "r2", 63)
        f.hash("r3", "r2")
        f.band("r3", "r3", 31)
        f.memcpy("dst", "r2", "src", 0, "r3")
        f.ret("r3")

    return build(body, objects=[("dst", 128), ("src", 128)])


def test_const_length_memcpy_folds_to_slice_and_stays_cycle_exact():
    def body(f):
        f.mov("r1", 0xBEEF)
        f.store("src", 0, "r1")
        f.memcpy("dst", 8, "src", 0, 48)
        f.load("r2", "dst", 8)
        f.ret("r2")

    program = build(body, objects=[("dst", 64), ("src", 64)])
    jit = JitInterpreter()
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    ref, jt = run_both(program, {}, {}, ref_memory, jit_memory, jit=jit)
    assert ref == jt
    assert ref_memory == jit_memory
    assert jit.stats.fallbacks == 0
    compiled = jit.compiled_for(program)
    # The burst loop is gone: cycles folded into the segment constant,
    # the copy lowered to one slice assignment with no range check.
    assert compiled.lowering_stats["memcpy_folded"] == 1
    assert compiled.lowering_stats["memcpy_checks_elided"] == 1
    assert "_bursts" not in compiled.source


def test_proven_memcpy_elides_checks_differentially():
    program = masked_memcpy_program()
    jit = JitInterpreter()
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    for request_id in range(0, 4000, 97):
        headers = {"LambdaHeader": {"request_id": request_id}}
        ref, jt = run_both(program, headers, {}, ref_memory, jit_memory,
                           jit=jit)
        assert ref == jt, f"request_id={request_id}: {ref} != {jt}"
    assert ref_memory == jit_memory
    assert jit.stats.fallbacks == 0
    compiled = jit.compiled_for(program)
    assert compiled.lowering_stats["memcpy_checks_elided"] == 1
    # Dynamic length: the burst charge must stay in the generated code.
    assert compiled.lowering_stats["memcpy_folded"] == 0


def test_elision_guard_catches_undersized_caller_memory():
    """The static proof assumes declared object sizes; callers may
    pass *any* memory dict, so the elided check is guarded by a size
    comparison — an undersized buffer still faults identically."""

    def body(f):
        f.memcpy("dst", 0, "src", 0, 16)
        f.ret(0)

    program = build(body, objects=[("dst", 64), ("src", 64)])
    jit = JitInterpreter()
    ref_memory = {"dst": bytearray(8), "src": bytearray(8)}
    jit_memory = {"dst": bytearray(8), "src": bytearray(8)}
    ref, jt = run_both(program, {}, {}, ref_memory, jit_memory, jit=jit)
    assert ref[0] == "err" and ref == jt
    assert "memcpy out of bounds" in ref[2]
    compiled = jit.compiled_for(program)
    assert compiled.lowering_stats["memcpy_checks_elided"] == 1


def test_unprovable_memcpy_keeps_the_runtime_check():
    """An unmasked hash offset may exceed the object: no elision, and
    the runtime check fires identically in both engines."""

    def body(f):
        f.hload("r1", "LambdaHeader", "request_id")
        f.hash("r2", "r1")
        f.memcpy("dst", "r2", "src", 0, 8)
        f.ret(0)

    program = build(body, objects=[("dst", 64), ("src", 64)])
    jit = JitInterpreter()
    ref_memory = fresh_memory(program)
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    saw_error = False
    for request_id in range(64):
        headers = {"LambdaHeader": {"request_id": request_id}}
        ref, jt = run_both(program, headers, {}, ref_memory, jit_memory,
                           jit=jit)
        assert ref == jt
        saw_error = saw_error or ref[0] == "err"
    assert saw_error, "hash should overflow a 64 B object sometimes"
    compiled = jit.compiled_for(program)
    assert compiled.lowering_stats["memcpy_checks_elided"] == 0
    # The burst charge still folds (length is the constant 8) — the
    # two lowerings are independent.
    assert compiled.lowering_stats["memcpy_folded"] == 1
