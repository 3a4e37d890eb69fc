"""Differential suite: the JIT's interpreter fallback vs the reference.

When a program fails to lower, :class:`JitInterpreter` serves it from
the reference :class:`Interpreter` instead, until the program's
structure changes. That path must be *indistinguishable* from running
the reference interpreter directly: same verdicts, return values, cycle
counts, instruction counts, region-access profiles, emitted packets,
header/meta mutations, response payloads, persistent-memory effects —
and the same errors with the same messages. The one documented
difference is the write flag, which is always ``True`` on a fallback
run so the execution memo never replays it.

Every test here forces lowering to fail and counts the attempts, so the
cached failure (one lowering attempt per program signature) is checked
alongside the results. The module name is historical; the test ids are
kept stable.
"""

import random
import zlib
from dataclasses import asdict

import pytest

from repro.isa import (
    Interpreter,
    JitInterpreter,
    Op,
    ProgramBuilder,
    Region,
    program_signature,
)
import repro.isa.jit as jit_module
from tests.isa.test_jit import (
    all_workload_programs,
    build,
    composed_firmware_program,
    fresh_memory,
    fuzz_inputs,
    run_both,
)


@pytest.fixture(autouse=True)
def lowering_attempts(monkeypatch):
    """Make every JIT lowering fail; returns the list of attempted programs."""
    attempts = []

    def refuse(program):
        attempts.append(program)
        raise jit_module.JitLoweringError("forced for test")

    monkeypatch.setattr(jit_module, "JitProgram", refuse)
    return attempts


def assert_fell_back(engine, lowerings=1):
    assert engine.last_tier == "interpreter"
    assert engine.stats.fallbacks == lowerings
    assert engine.stats.misses == lowerings


def assert_identical(program, headers=None, meta=None, entry=None,
                     objects=True):
    ref_memory = fresh_memory(program) if objects else None
    fallback_memory = ({k: bytearray(v) for k, v in ref_memory.items()}
                       if objects else None)
    engine = JitInterpreter()
    ref, fb = run_both(program, headers or {}, meta or {}, ref_memory,
                       fallback_memory, jit=engine, entry=entry)
    assert ref == fb, f"{ref} != {fb}"
    assert_fell_back(engine)
    if objects:
        assert ref_memory == fallback_memory
    return ref


@pytest.mark.parametrize("key", sorted(all_workload_programs()))
def test_every_workload_differentially(key, lowering_attempts):
    """Fuzzed request sequence against shared persistent memory."""
    program = all_workload_programs()[key]
    rng = random.Random(zlib.crc32(key.encode()))
    reference, engine = Interpreter(), JitInterpreter()
    ref_memory = fresh_memory(program)
    fallback_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    for headers, meta in fuzz_inputs(rng, 60):
        ref, fb = run_both(program, headers, meta, ref_memory,
                           fallback_memory, reference, engine)
        assert ref == fb, f"{key}: {ref} != {fb}"
    # Persistent state evolved identically across the whole sequence.
    assert ref_memory == fallback_memory
    # One lowering attempt for the whole stream: the failure is cached.
    assert lowering_attempts == [program]
    assert_fell_back(engine)


@pytest.mark.parametrize("optimize", [False, True])
def test_composed_firmware_differentially(optimize, lowering_attempts):
    """The multi-lambda compiled firmware image, pre/post optimizer."""
    program = composed_firmware_program(optimize)
    rng = random.Random(1234)
    reference, engine = Interpreter(), JitInterpreter()
    ref_memory = fresh_memory(program)
    fallback_memory = {k: bytearray(v) for k, v in ref_memory.items()}
    for headers, meta in fuzz_inputs(rng, 40):
        ref, fb = run_both(program, headers, meta, ref_memory,
                           fallback_memory, reference, engine)
        assert ref == fb
    assert ref_memory == fallback_memory
    assert lowering_attempts == [program]
    assert_fell_back(engine)


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
    """The fallback interpreter inherits the JIT engine's step limit."""
    def body(f):
        f.label("spin")
        f.jmp("spin")

    program = build(body)
    engine = JitInterpreter(step_limit=500)
    ref, fb = run_both(program, {}, {}, None, None,
                       Interpreter(step_limit=500), engine)
    assert ref[0] == "err" and ref == fb
    assert "step limit 500" in ref[2]
    assert_fell_back(engine)


def test_error_parity_step_limit_through_trailing_label():
    """Termination through a trailing label at exactly the limit."""
    def body(f):
        f.mov("r1", 1)
        f.beq("r1", 1, "end")
        f.mov("r2", 2)
        f.label("end")

    program = build(body)
    # Two real instructions execute; limit of 2 trips at the label.
    ref, fb = run_both(program, {}, {}, None, None,
                       Interpreter(step_limit=2), JitInterpreter(step_limit=2))
    assert ref[0] == "err" and ref == fb
    # One above the limit, both complete.
    ref, fb = run_both(program, {}, {}, None, None,
                       Interpreter(step_limit=3), JitInterpreter(step_limit=3))
    assert ref[0] == "ok" and ref == fb


def test_error_parity_missing_header():
    program = build(lambda f: f.hload("r1", "Nope", "field").ret("r1"))
    ref, fb = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == fb
    assert "Nope.field not present" in ref[2]


def test_error_parity_foreign_object():
    program = build(lambda f: f.load("r1", "buf", 0).ret("r1"),
                    objects=[("buf", 64)])
    ref, fb = run_both(program, {}, {}, {}, {})
    assert ref[0] == "err" and ref == fb
    assert "foreign object" in ref[2]


def test_error_parity_out_of_bounds():
    program = build(lambda f: f.store("buf", 9999, "r1"),
                    objects=[("buf", 64)])
    ref, fb = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == fb
    assert "out of bounds" in ref[2]


def test_error_parity_unknown_intrinsic():
    program = build(lambda f: f.emit(Op.INTRINSIC, "nonsense"))
    ref, fb = run_both(program, {}, {}, None, None)
    assert ref[0] == "err" and ref == fb
    assert "unknown intrinsic" in ref[2]


def test_wrote_memory_flag():
    """A fallback run always counts as memory-writing, pure or not."""
    pure = build(lambda f: f.load("r1", "buf", 0).mstore("v", "r1").forward(),
                 objects=[("buf", 64)])
    impure = build(lambda f: f.mov("r1", 7).store("buf", 0, "r1").forward(),
                   objects=[("buf", 64)])
    engine = JitInterpreter()
    _, wrote = engine.execute(pure, headers={}, meta={})
    assert wrote is True
    _, wrote = engine.execute(impure, headers={}, meta={})
    assert wrote is True
    assert_fell_back(engine, lowerings=2)


def test_recompiles_when_region_changes(lowering_attempts):
    """Stratification after a failed lowering retries it and re-costs."""
    def body(f):
        f.load("r1", "buf", 0)
        f.ret("r1")

    program = build(body, objects=[("buf", 64)])
    engine = JitInterpreter()
    reference = Interpreter()
    first = engine.run(program, memory=fresh_memory(program))
    first_ref = reference.run(program, memory=fresh_memory(program))
    assert asdict(first) == asdict(first_ref)

    program.objects["buf"].region = Region.EMEM  # stratification pass
    second = engine.run(program, memory=fresh_memory(program))
    second_ref = reference.run(program, memory=fresh_memory(program))
    assert asdict(second) == asdict(second_ref)
    assert second.cycles != first.cycles
    assert list(second.region_accesses) == [Region.EMEM]
    assert lowering_attempts == [program, program]
    assert_fell_back(engine, lowerings=2)


def test_recompiles_when_body_changes(lowering_attempts):
    program = build(lambda f: f.mov("r0", 1).ret("r0"))
    engine = JitInterpreter()
    assert engine.run(program).return_value == 1
    stale_signature = program_signature(program)
    fn = program.functions["test"]
    fn.body = fn.body[:1] + fn.body  # prepend another mov
    assert program_signature(program) != stale_signature
    assert engine.run(program).instructions_executed == \
        Interpreter().run(program).instructions_executed
    assert len(lowering_attempts) == 2
    assert_fell_back(engine, lowerings=2)


def test_compile_cache_reused_for_unchanged_program(lowering_attempts):
    program = build(lambda f: f.mov("r0", 1).ret("r0"))
    engine = JitInterpreter()
    engine.run(program)
    assert engine.compiled_for(program) is None
    engine.run(program)
    assert engine.compiled_for(program) is None
    # The failure is cached against the unchanged signature.
    assert lowering_attempts == [program]
    assert engine.stats.hits == 3
    assert_fell_back(engine)


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
