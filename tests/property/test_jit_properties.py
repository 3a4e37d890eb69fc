"""Property-based differential tests: JIT tier vs the reference.

Hypothesis drives random packet headers/meta through every registered
workload on both the reference interpreter and the JIT engine and
requires byte-identical results — verdicts, cycles, region-access
profiles, emitted packets, mutated headers/meta, persistent-memory
contents, and the memory-write flag the NIC's state epoch follows. A
second group checks that epoch at the NIC level: JIT-executed writes
bump it, while pure executions leave it. A third sweeps the step limit
across random
straight-line programs, so every limit trips mid-segment on the JIT's
per-instruction slow path. A fourth runs random control-flow graphs
(forward branches, nested bounded loops, self-loops, back-edges to
block 0) at random step limits, comparing the write flag exactly.
"""

import copy
import random
from dataclasses import asdict
from unittest import mock

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Interpreter, JitInterpreter, Op, ProgramBuilder, Region
from repro.isa.interpreter import Machine
from repro.isa.jit import _STRAIGHTLINE_OPS
from repro.serverless import Testbed, closed_loop
from repro.workloads import web_server_spec
from repro.workloads.registry import fig9_workloads, standard_workloads

WORKLOADS = sorted(
    [f"std:{name}" for name in standard_workloads()]
    + [f"fig9:{name}" for name in fig9_workloads()]
)


def program_for(key):
    kind, _, name = key.partition(":")
    registry = standard_workloads() if kind == "std" else fig9_workloads()
    return registry[name].nic_program()


packet_headers = st.fixed_dictionaries({
    "LambdaHeader": st.fixed_dictionaries({
        "wid": st.integers(min_value=0, max_value=8),
        "request_id": st.integers(min_value=0, max_value=(1 << 16) - 1),
        "seq": st.integers(min_value=0, max_value=7),
        "is_response": st.integers(min_value=0, max_value=1),
        "total_segments": st.integers(min_value=1, max_value=4),
    }),
})

packet_meta = st.fixed_dictionaries({
    "has_LambdaHeader": st.just(1),
    "ingress_port": st.integers(min_value=0, max_value=3),
    "service_response": st.integers(min_value=0, max_value=1),
    "service_status": st.integers(min_value=0, max_value=1),
    "rdma_len": st.sampled_from([0, 64, 1024, 4096]),
})


def outcome(engine, program, headers, meta, memory):
    """(result-or-error, wrote_memory) for one run on either tier."""
    try:
        result, wrote = engine.execute(
            program, headers=copy.deepcopy(headers), meta=dict(meta),
            memory=memory)
        return ("ok", asdict(result)), wrote
    except Exception as error:
        return ("err", type(error).__name__, str(error)), None


@pytest.mark.parametrize("key", WORKLOADS)
@settings(max_examples=25, deadline=None)
@given(headers=packet_headers, meta=packet_meta, memory_seed=st.integers(
    min_value=0, max_value=2**32 - 1))
def test_jit_matches_reference_on_random_packets(key, headers, meta,
                                                 memory_seed):
    """Random packets, random pre-seeded persistent state: the JIT is
    byte-identical to the reference (results, errors, memory), and a
    successful run that changed persistent memory reports the write —
    the direction the state epoch's soundness depends on."""
    program = program_for(key)
    rng = random.Random(memory_seed)
    ref_memory = {
        obj.name: bytearray(rng.randrange(256) for _ in range(obj.size_bytes))
        for obj in program.objects.values()
    }
    before = {k: bytes(v) for k, v in ref_memory.items()}
    jit_memory = {k: bytearray(v) for k, v in ref_memory.items()}

    jit = JitInterpreter()
    ref, _ = outcome(Interpreter(), program, headers, meta, ref_memory)
    jt, jit_wrote = outcome(jit, program, headers, meta, jit_memory)
    assert ref == jt, f"{key}: {ref} != {jt}"
    assert ref_memory == jit_memory
    if jt[0] == "ok" and jit_memory != before:
        assert jit_wrote is True
    assert jit.stats.fallbacks == 0


_REGS = ["r1", "r2", "r3", "r4"]
#: Objects of the step-trip programs: (name, size, region).
_OBJECTS = (("a", 32, Region.EMEM), ("b", 16, Region.CTM))


@st.composite
def straightline_instruction(draw):
    """One random instruction of any opcode in ``_STRAIGHTLINE_OPS``."""
    op = draw(st.sampled_from(sorted(_STRAIGHTLINE_OPS, key=lambda o: o.value)))
    reg = st.sampled_from(_REGS)
    obj, size, _ = draw(st.sampled_from(_OBJECTS))
    offset = draw(st.one_of(st.integers(0, size - 1), reg))
    memref = ("mem", obj, offset)
    if op in (Op.SHL, Op.SHR):
        return (op, draw(reg), draw(reg), draw(st.integers(0, 8)))
    if op in (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.MIN,
              Op.MAX):
        return (op, draw(reg), draw(reg),
                draw(st.one_of(reg, st.integers(0, 255))))
    if op is Op.MOV:
        return (op, draw(reg), draw(st.one_of(reg, st.integers(0, 40))))
    if op in (Op.NOP, Op.EMIT):
        return (op,)
    if op is Op.RESOLVE:
        return (op, "r5", memref)
    if op is Op.LOAD:
        return (op, draw(reg), "r5", memref)
    if op is Op.LOADD:
        return (op, draw(reg), memref)
    if op is Op.STORE:
        return (op, "r5", memref, draw(reg))
    if op is Op.STORED:
        return (op, memref, draw(reg))
    if op is Op.MEMCPY:
        src, src_size, _ = draw(st.sampled_from(_OBJECTS))
        n = draw(st.integers(0, min(size, src_size)))
        return (op, ("mem", obj, draw(st.integers(0, size - n))),
                ("mem", src, draw(st.integers(0, src_size - n))),
                draw(st.one_of(st.just(n), reg)))
    if op is Op.HLOAD:
        return (op, draw(reg), ("hdr", "LambdaHeader", "request_id"))
    if op is Op.HSTORE:
        return (op, ("hdr", "LambdaHeader",
                     draw(st.sampled_from(["seq", "wid"]))), draw(reg))
    if op is Op.MLOAD:
        return (op, draw(reg), ("meta", "ingress_port"))
    if op is Op.MSTORE:
        return (op, ("meta", draw(st.sampled_from(["out", "ingress_port"]))),
                draw(reg))
    if op in (Op.HASH, Op.CRC):
        return (op, draw(reg), draw(reg))
    assert op is Op.INTRINSIC, op
    # grayscale rewrites its object in place (writes_memory=True).
    return (op, "grayscale", ("mem", obj, 0),
            draw(st.one_of(st.integers(0, size // 4), reg)))


@st.composite
def straightline_program(draw):
    builder = ProgramBuilder("trip")
    for name, size, _ in _OBJECTS:
        builder.object(name, size)
    fn = builder.function("trip")
    for reg in _REGS:
        fn.mov(reg, draw(st.integers(0, 24)))
    for op, *args in draw(st.lists(straightline_instruction(), min_size=1,
                                   max_size=12)):
        fn.emit(op, *args)
    fn.forward()
    builder.close(fn)
    program = builder.build()
    for name, _, region in _OBJECTS:
        program.objects[name].region = region
    return program


def _state_after(engine, program, headers, meta, memory):
    """Outcome plus the machine state left behind, even after a raise."""
    machines = []
    original_init = Machine.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        machines.append(self)

    with mock.patch.object(Machine, "__init__", recording_init):
        try:
            outcome = ("ok", asdict(engine.run(program, headers=headers,
                                               meta=meta, memory=memory)))
        except Exception as error:
            outcome = ("err", type(error).__name__, str(error))
    (machine,) = machines
    return (outcome, machine.headers, machine.meta,
            [asdict(packet) for packet in machine.emitted],
            {name: bytes(data) for name, data in memory.items()})


@settings(max_examples=40, deadline=None)
@given(program=straightline_program(),
       memory_seed=st.integers(0, 2**32 - 1))
def test_step_trip_matches_reference_at_every_limit(program, memory_seed):
    """Every step limit from 0 to the instruction count: the JIT's trip
    path leaves the same error, memory, headers, meta and emitted
    packets behind as the reference interpreter."""
    from repro.workloads.intrinsics import install_intrinsics

    install_intrinsics()
    rng = random.Random(memory_seed)
    memory = {obj.name: bytearray(rng.randrange(256)
                                  for _ in range(obj.size_bytes))
              for obj in program.objects.values()}
    headers = {"LambdaHeader": {"wid": 1, "request_id": rng.randrange(64),
                                "seq": 0}}
    meta = {"ingress_port": rng.randrange(4)}
    for limit in range(program.instruction_count + 1):
        states = [
            _state_after(engine, program, copy.deepcopy(headers),
                         dict(meta),
                         {k: bytearray(v) for k, v in memory.items()})
            for engine in (Interpreter(step_limit=limit),
                           JitInterpreter(step_limit=limit))
        ]
        assert states[0] == states[1], f"step limit {limit}"


# -- random control flow ------------------------------------------------------
#
# Random structured CFGs: straight-line code, forward branches that skip
# code, if/else diamonds, early exits, bounded loops nested up to three
# deep (each resets its own counter on entry), self-loops, a loop whose
# back-edge targets block 0, and endings that fall off the end of the
# body, right after a back-edge among others. Every loop counts a counter
# register up to a small bound, so every program terminates.

#: Loop counters; block 0's loop uses the last, which nothing resets.
_COUNTERS = ("r6", "r7", "r8", "r9", "r10", "r11", "r12")
_BRANCHES = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE)


def _bounded_instruction(instruction):
    """No register-by-register multiply: squaring inside a loop grows
    integers without bound."""
    if instruction[0] is Op.MUL and isinstance(instruction[3], str):
        return instruction[:3] + (3,)
    return instruction


@st.composite
def _cfg_region(draw, fn, depth, counters):
    kinds = ["code", "skip", "diamond", "exit", "loop", "self_loop"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds if depth < 3 else ["code"]))
        if kind in ("loop", "self_loop") and not counters:
            kind = "code"
        if kind == "code":
            for op, *args in draw(st.lists(
                    straightline_instruction().map(_bounded_instruction),
                    min_size=1, max_size=3)):
                fn.emit(op, *args)
            continue
        if kind == "loop" or kind == "self_loop":
            counter = counters.pop()
            top = fn.fresh_label("top")
            fn.mov(counter, 0)
            fn.label(top)
            if kind == "loop":
                draw(_cfg_region(fn, depth + 1, counters))
            fn.add(counter, counter, 1)
            fn.blt(counter, draw(st.integers(1, 3)), top)
            continue
        # A forward branch over the next part: an exit, a region, or a
        # diamond's then-arm.
        skip = fn.fresh_label("skip")
        fn.emit(draw(st.sampled_from(_BRANCHES)), draw(st.sampled_from(_REGS)),
                draw(st.integers(0, 24)), skip)
        if kind != "exit":
            draw(_cfg_region(fn, depth + 1, counters))
        elif draw(st.booleans()):
            fn.forward()
        else:
            fn.ret("r1")
        if kind == "diamond":
            join = fn.fresh_label("join")
            fn.jmp(join)
            fn.label(skip)
            draw(_cfg_region(fn, depth + 1, counters))
            fn.label(join)
        else:
            fn.label(skip)


@st.composite
def random_cfg_program(draw):
    builder = ProgramBuilder("cfg")
    for name, size, _ in _OBJECTS:
        builder.object(name, size)
    fn = builder.function("cfg")
    counters = list(_COUNTERS[:-1])
    to_block_zero = draw(st.booleans())
    if to_block_zero:
        fn.label("entry")
    for reg in _REGS:
        fn.mov(reg, draw(st.integers(0, 24)))
    draw(_cfg_region(fn, 0, counters))
    if to_block_zero:
        fn.add(_COUNTERS[-1], _COUNTERS[-1], 1)
        fn.blt(_COUNTERS[-1], draw(st.integers(1, 3)), "entry")
    ending = draw(st.sampled_from(["fall", "label", "forward", "ret"]))
    if ending == "label":
        fn.label("end")
    elif ending == "forward":
        fn.forward()
    elif ending == "ret":
        fn.ret("r2")
    builder.close(fn)
    program = builder.build()
    for name, _, region in _OBJECTS:
        program.objects[name].region = region
    return program


@settings(max_examples=150, deadline=None)
@given(program=random_cfg_program(), memory_seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_random_cfg_matches_reference_at_random_step_limits(
        program, memory_seed, data):
    """Random control flow runs identically on the JIT and the
    reference interpreter: results, errors, write flag and memory, with
    no step limit in reach and with a step limit drawn from the run's
    own length, so trips land inside loops and at back-edges."""
    from repro.workloads.intrinsics import install_intrinsics

    install_intrinsics()
    rng = random.Random(memory_seed)
    memory = {obj.name: bytearray(rng.randrange(256)
                                  for _ in range(obj.size_bytes))
              for obj in program.objects.values()}
    headers = {"LambdaHeader": {"wid": 1, "request_id": rng.randrange(64),
                                "seq": 0}}
    meta = {"ingress_port": rng.randrange(4)}
    first, _ = outcome(Interpreter(), program, headers, meta,
                       {k: bytearray(v) for k, v in memory.items()})
    # A limit inside the run's own length trips inside its loops; a run
    # that raises draws from the program's length instead.
    length = first[1]["instructions_executed"] if first[0] == "ok" \
        else program.instruction_count
    limit = data.draw(st.integers(0, length), label="step limit")
    for kwargs in ({}, {"step_limit": limit}):
        runs = []
        for engine in (Interpreter(**kwargs), JitInterpreter(**kwargs)):
            copied = {k: bytearray(v) for k, v in memory.items()}
            runs.append((outcome(engine, program, headers, meta, copied),
                         copied))
        assert runs[0] == runs[1], f"step limit {kwargs}"
    assert JitInterpreter().compiled_for(program) is not None
    blocks = program.functions["cfg"].decoded.cfg.blocks
    for feature, present in (
            ("self-loop", any(b.bid in b.succs for b in blocks)),
            ("back-edge to block 0", any(0 in b.succs for b in blocks)),
            ("step limit tripped", "step limit" in str(runs[0][0]))):
        hypothesis.event(feature if present else f"no {feature}")


def _jit_nic(builder_fn, name):
    """A SmartNIC (engine="jit") with one composed lambda installed."""
    from repro.compiler import CompilationUnit, compile_unit
    from repro.hw.nic import SmartNIC
    from repro.isa import ProgramBuilder
    from repro.net.network import Network
    from repro.sim import Environment

    builder = ProgramBuilder(name)
    builder_fn(builder)
    unit = CompilationUnit()
    unit.add_lambda(builder.build(), wid=1, route_port="p0")
    firmware = compile_unit(unit, optimize=False)

    env = Environment()
    net = Network(env)
    node = net.add_node("nic")
    nic = SmartNIC(env, node, rng=random.Random(3), engine="jit")
    nic.install_firmware(firmware)
    return nic


def _request(nic, request_id=7):
    headers = {"LambdaHeader": {"wid": 1, "request_id": request_id, "seq": 0,
                                "is_response": 0, "total_segments": 1}}
    meta = {"has_LambdaHeader": 1, "ingress_port": 0}
    return nic._execute(copy.deepcopy(headers), dict(meta))


def test_pure_jit_executions_leave_state_epoch():
    """Pure JIT executions leave the state epoch; a direct state write
    moves it, and the next execution reads the new contents."""
    def reader(builder):
        builder.object("state", 64)
        fn = builder.function("reader")
        fn.load("r1", "state", 0)
        fn.mstore("value", "r1")
        fn.forward()
        builder.close(fn)

    nic = _jit_nic(reader, "reader")
    assert nic.engine_tier == "jit"
    epoch = nic.state_epoch
    first = _request(nic)
    again = _request(nic)
    assert again == first
    assert first.meta["value"] == 0
    assert nic.state_epoch == epoch

    nic.lambda_memory("reader.state")[0] = 0xFF
    assert nic.state_epoch == epoch + 1
    assert _request(nic).meta["value"] == 0xFF
    assert nic.state_epoch == epoch + 1


def test_jit_write_through_execution_bumps_epoch():
    """An execution that writes persistent memory (wrote_memory=True
    from the JIT) bumps the state epoch via _state_written."""
    def writer(builder):
        builder.object("state", 64)
        fn = builder.function("writer")
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.store("state", 0, "r1")
        fn.forward()
        builder.close(fn)

    nic = _jit_nic(writer, "writer")
    epoch = nic.state_epoch
    result = _request(nic)
    assert result.verdict == "forward"
    assert nic.state_epoch == epoch + 1
    assert nic._lambda_memory["writer.state"][0] == 7
    # The same request again: still a write, so the epoch moves again.
    _request(nic)
    assert nic.state_epoch == epoch + 2


def test_jit_serves_gateway_traffic_end_to_end():
    """The default (JIT) tier serves real gateway traffic and reports
    compile-cache stats with zero fallbacks."""
    tb = Testbed(seed=11, n_workers=1, nic_kwargs={"engine": "jit"})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        result = yield closed_loop(tb.env, tb.gateway, spec.name,
                                   n_requests=12)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert process.value.completed == 12
    nic = tb.nics[0]
    stats = nic.stats.compile_cache_stats()
    assert stats["jit"]["fallbacks"] == 0
    assert stats["jit"]["misses"] == 1  # one firmware, compiled once
    assert stats["jit"]["hits"] >= 11
