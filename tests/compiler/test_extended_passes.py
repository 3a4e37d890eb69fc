"""The verifier-powered passes: smaller firmware, identical semantics.

``EXTENDED_PASSES`` appends dead-store elimination to the paper's three
stages. These tests pin the two claims that make the extension safe as
``compile_unit``'s default:

* the extended pipeline strictly reduces the composed firmware's
  instruction count (the paper's Figure-9 stages are untouched);
* the optimised firmware is observationally identical to the standard
  one on fuzzed request streams — same verdicts, return values, header
  and metadata mutations, emitted packets, response payloads, and
  persistent-memory effects — under both the reference interpreter and
  the JIT. (Cycle counts legitimately drop: fewer instructions
  execute.)
"""

import copy
import random
from dataclasses import asdict

import pytest

from repro.compiler import (
    CompilationUnit,
    EXTENDED_PASSES,
    STANDARD_PASSES,
    compile_unit,
)
from repro.isa import Interpreter, JitInterpreter
from repro.workloads.registry import fig9_workloads
from tests.isa.test_jit import fresh_memory, fuzz_inputs


def build_unit():
    unit = CompilationUnit()
    for index, (_, spec) in enumerate(sorted(fig9_workloads().items())):
        unit.add_lambda(spec.nic_program(), wid=index + 1,
                        route_port=f"p{index}")
    return unit


@pytest.fixture(scope="module")
def firmwares():
    standard = compile_unit(build_unit(), passes=STANDARD_PASSES)
    extended = compile_unit(build_unit(), passes=EXTENDED_PASSES)
    return standard, extended


def test_extended_passes_reduce_instruction_count(firmwares):
    standard, extended = firmwares
    assert extended.instruction_count < standard.instruction_count
    stages = [stage for stage, _, _ in extended.report.rows()]
    assert stages[-2:] == ["Memory Stratification", "Dead Store Elimination"]
    # The Figure-9 series is untouched: the first four stages match.
    assert extended.report.rows()[:4] == standard.report.rows()[:4]


def test_extended_firmware_still_verifies(firmwares):
    _, extended = firmwares
    assert extended.verifier_report is not None
    assert extended.verifier_report.ok
    assert extended.verifier_report.wcet_cycles is not None


def observable(outcome):
    """Everything but the cycle/instruction counters and access profile."""
    if outcome[0] != "ok":
        return outcome
    result = dict(outcome[1])
    for counter in ("cycles", "instructions_executed", "region_accesses"):
        result.pop(counter)
    return ("ok", result)


def run_one(engine, program, headers, meta, memory):
    try:
        result = engine.run(
            program, headers=copy.deepcopy(headers), meta=dict(meta),
            memory=memory)
        return ("ok", asdict(result))
    except Exception as error:
        return ("err", type(error).__name__, str(error))


@pytest.mark.parametrize("engine_cls", [Interpreter, JitInterpreter])
def test_extended_firmware_is_observationally_identical(firmwares,
                                                        engine_cls):
    standard, extended = firmwares
    rng = random.Random(4242)
    std_engine, ext_engine = engine_cls(), engine_cls()
    std_memory = fresh_memory(standard.program)
    ext_memory = {k: bytearray(v) for k, v in std_memory.items()}
    for headers, meta in fuzz_inputs(rng, 50):
        std = run_one(std_engine, standard.program, headers, meta,
                      std_memory)
        ext = run_one(ext_engine, extended.program, headers, meta,
                      ext_memory)
        assert observable(std) == observable(ext)
    # Persistent state evolved identically across the whole stream.
    assert std_memory == ext_memory


def test_constant_folding_rewrites_known_alu():
    """A concrete example: a known mul is the point [42, 42] before the
    ``ret``, and the JIT emits it as a constant."""
    from repro.isa import JitInterpreter, ProgramBuilder
    from repro.isa.verify import Interval, interval_states

    builder = ProgramBuilder("cf")
    fn = builder.function("cf")
    fn.mov("r1", 6).mov("r2", 7).mul("r3", "r1", "r2").ret("r3")
    builder.close(fn)
    program = builder.build()
    function = program.functions["cf"]
    ret_index = len(function.body) - 1
    assert interval_states(function).range_before(ret_index, "r3") == \
        Interval(42, 42)
    jit = JitInterpreter()
    result, _ = jit.execute(program)
    assert result.return_value == 42
    source = jit.compiled_for(program).source
    assert "r3 = 42" in source and "r1 * r2" not in source


def test_dead_store_elimination_removes_unread_writes():
    from repro.isa import Op, ProgramBuilder
    from repro.compiler import dead_store_elimination

    builder = ProgramBuilder("dse")
    fn = builder.function("dse")
    fn.mov("r5", 123)  # never read anywhere in the composed firmware
    fn.mov("r0", 1)
    fn.forward()
    builder.close(fn)
    unit = CompilationUnit()
    unit.add_lambda(builder.build(), wid=1, route_port="p0")
    dead_store_elimination(unit)
    body = unit.lambdas["dse"].functions["dse"].body
    assert not any(i.op is Op.MOV and i.args[0] == "r5" for i in body)
    assert any(i.op is Op.FORWARD for i in body)
