"""The verifier flags seeded bugs at precise locations — and passes
clean programs.

These are the acceptance cases of the static-analysis layer: each test
plants one specific bug (uninitialized read, out-of-bounds store,
unbounded loop, instruction-store overflow, ...) and checks the report
names the exact function and body index.
"""

import pytest

from repro.isa import AccessMode, Function, Op, ProgramBuilder, ins
from repro.isa.verify import (
    MAX_INSTRUCTIONS_PER_CORE,
    Severity,
    VerifyOptions,
    dead_stores,
    estimate_wcet,
    find_loops,
    uninitialized_reads,
    verify_program,
    build_cfg,
)


def build(body_fn, objects=(), name="test", scratch=()):
    builder = ProgramBuilder(name)
    for obj_name, size, *rest in objects:
        access = rest[0] if rest else AccessMode.READ_WRITE
        builder.object(obj_name, size, access=access)
    if scratch:
        builder.scratch(*scratch)
    fn = builder.function(name)
    body_fn(fn)
    builder.close(fn)
    return builder.build()


def findings_with(report, code):
    return [f for f in report.findings if f.code == code]


# -- seeded bug: uninitialized read -----------------------------------------


def test_uninitialized_read_flagged_at_location():
    program = build(lambda f: f.add("r0", "r3", 1).ret("r0"))
    report = verify_program(program)
    assert not report.ok
    (finding,) = findings_with(report, "uninit-read")
    assert finding.severity is Severity.ERROR
    assert finding.function == "test" and finding.index == 0
    assert "r3" in finding.message
    # The low-level query agrees.
    assert uninitialized_reads(program) == [("test", 0, "r3")]


def test_initialized_on_only_one_path_is_flagged():
    def body(f):
        f.mov("r1", 0)
        f.beq("r1", 0, "skip")
        f.mov("r2", 5)
        f.label("skip")
        f.add("r0", "r2", 1)  # r2 uninitialized when the branch is taken
        f.ret("r0")

    report = verify_program(build(body))
    (finding,) = findings_with(report, "uninit-read")
    assert finding.index == 4 and "r2" in finding.message


def test_write_before_read_is_clean():
    def body(f):
        f.mov("r3", 7)
        f.add("r0", "r3", 1)
        f.ret("r0")

    report = verify_program(build(body))
    assert report.ok and not findings_with(report, "uninit-read")


def test_helper_inherits_call_site_initialization():
    builder = ProgramBuilder("main")
    helper = builder.function("helper")
    helper.add("r0", "r1", 1).ret("r0")  # r1 set by every caller
    builder.close(helper)
    main = builder.function("main")
    main.mov("r1", 5).call("helper").ret("r0")
    builder.close(main)
    report = verify_program(builder.build())
    assert not findings_with(report, "uninit-read")


# -- seeded bug: out-of-bounds / access-mode violations ---------------------


def test_oob_store_flagged_at_location():
    def body(f):
        f.mov("r1", 1)
        f.store("buf", 100, "r1")  # resolve at 1, store at 2
        f.forward()

    report = verify_program(build(body, objects=[("buf", 64)]))
    assert not report.ok
    (finding,) = findings_with(report, "oob-store")
    assert finding.function == "test" and finding.index == 2
    assert "buf[100]" in finding.message


def test_oob_load_via_constant_propagation():
    def body(f):
        f.mov("r1", 60)
        f.add("r1", "r1", 40)  # 100, known statically
        f.load("r2", "buf", "r1")
        f.ret("r2")

    report = verify_program(build(body, objects=[("buf", 64)]))
    (finding,) = findings_with(report, "oob-load")
    assert "buf[100]" in finding.message


def test_store_to_readonly_object_flagged():
    def body(f):
        f.mov("r1", 1)
        f.store("content", 0, "r1")
        f.forward()

    report = verify_program(
        build(body, objects=[("content", 64, AccessMode.READ)])
    )
    assert findings_with(report, "readonly-store")
    assert not report.ok


def test_unknown_offset_is_warning_not_error():
    def body(f):
        f.hload("r1", "Udp", "sport")  # runtime value
        f.load("r2", "buf", "r1")
        f.ret("r2")

    report = verify_program(build(body, objects=[("buf", 64)]))
    assert report.ok  # warning-grade only
    assert findings_with(report, "unknown-offset")


def test_oob_memcpy_flagged():
    def body(f):
        f.memcpy("dst", 32, "src", 0, 64)  # 32+64 > 64
        f.forward()

    report = verify_program(
        build(body, objects=[("dst", 64), ("src", 64)])
    )
    (finding,) = findings_with(report, "oob-memcpy")
    assert finding.index == 0


# -- seeded bug: unbounded loop ---------------------------------------------


def test_unbounded_loop_rejected():
    def body(f):
        f.mov("r1", 0)
        f.label("spin")
        f.add("r1", "r1", 1)
        f.jmp("spin")

    report = verify_program(build(body))
    assert not report.ok
    (finding,) = findings_with(report, "unbounded-loop")
    assert finding.function == "test"
    assert report.wcet_cycles is None


def test_counted_loop_gets_bound_and_wcet():
    def body(f):
        f.mov("r1", 0)
        f.mov("r2", 0)
        f.label("top")
        f.add("r2", "r2", "r1")
        f.add("r1", "r1", 1)
        f.blt("r1", 10, "top")
        f.ret("r2")

    program = build(body)
    report = verify_program(program)
    assert report.ok
    assert report.wcet_cycles is not None
    (info,) = findings_with(report, "loop-bound")
    assert info.severity is Severity.INFO
    loops = find_loops(build_cfg(program.functions["test"]),
                       program=program)
    assert len(loops) == 1 and loops[0].bounded
    assert loops[0].counter == "r1"
    # 10 iterations plus the conservative +1 slack.
    assert 10 <= loops[0].bound <= 11


def test_loop_with_runtime_limit_is_unbounded():
    def body(f):
        f.hload("r3", "Udp", "len")  # runtime-dependent limit
        f.mov("r1", 0)
        f.label("top")
        f.add("r1", "r1", 1)
        f.blt("r1", "r3", "top")
        f.ret("r1")

    report = verify_program(build(body))
    assert findings_with(report, "unbounded-loop")
    assert report.wcet_cycles is None


# -- seeded bug: instruction-store overflow ---------------------------------


def test_instruction_store_overflow_rejected():
    body = [ins(Op.NOP) for _ in range(MAX_INSTRUCTIONS_PER_CORE + 1)]
    body.append(ins(Op.RET, 0))
    program = build(lambda f: f.raw(body))
    report = verify_program(program)
    assert not report.ok
    (finding,) = findings_with(report, "instr-overflow")
    assert str(MAX_INSTRUCTIONS_PER_CORE) in finding.message


# -- recursion ---------------------------------------------------------------


def test_recursion_rejected():
    builder = ProgramBuilder("main")
    main = builder.function("main")
    main.call("main")
    main.ret(0)
    builder.close(main)
    report = verify_program(builder.build())
    (finding,) = findings_with(report, "recursion")
    assert finding.severity is Severity.ERROR
    assert report.wcet_cycles is None


# -- dead stores & scratch exemption ----------------------------------------


def test_dead_store_warning_and_scratch_exemption():
    def body(f):
        f.mov("r1", 1)
        f.mov("r1", 2)  # first write never read
        f.ret("r1")

    program = build(body)
    report = verify_program(
        program, VerifyOptions(entry_exit_live=frozenset())
    )
    dead = findings_with(report, "dead-store")
    assert any(f.index == 0 for f in dead)

    # The same store through a declared scratch register is exempt.
    scratched = build(body, scratch=("r1",))
    report = verify_program(
        scratched, VerifyOptions(entry_exit_live=frozenset())
    )
    assert not findings_with(report, "dead-store")


def test_dead_stores_low_level_query():
    def body(f):
        f.mov("r5", 9)  # never read anywhere
        f.mov("r0", 1)
        f.forward()

    program = build(body)
    found = dead_stores(program, entry_exit_live=frozenset())
    assert ("test", 0, "r5") in found


def test_removable_dead_store_chain_is_found_in_one_query():
    """Writes that only feed each other inside a block are all removable
    at once; the lint reports only the last link, whose value nobody
    reads."""
    def body(f):
        f.mov("r1", 5)
        f.mov("r2", "r1")
        f.add("r3", "r2", 1)
        f.forward()

    program = build(body)
    assert sorted(dead_stores(program, entry_exit_live=frozenset(),
                              removable_only=True)) == \
        [("test", 0, "r1"), ("test", 1, "r2"), ("test", 2, "r3")]
    assert dead_stores(program, entry_exit_live=frozenset()) == \
        [("test", 2, "r3")]


# -- unreachable code --------------------------------------------------------


def test_unreachable_code_warning():
    def body(f):
        f.mov("r0", 1)
        f.ret("r0")
        f.mov("r2", 2)  # dead
        f.mov("r3", 3)  # dead

    report = verify_program(build(body))
    (finding,) = findings_with(report, "unreachable")
    assert finding.index == 2 and "2 instruction" in finding.message


def test_uncalled_function_warning():
    builder = ProgramBuilder("main")
    orphan = builder.function("orphan")
    orphan.ret(0)
    builder.close(orphan)
    main = builder.function("main")
    main.ret(0)
    builder.close(main)
    report = verify_program(builder.build())
    (finding,) = findings_with(report, "unreachable-function")
    assert finding.function == "orphan"


# -- structural validation ---------------------------------------------------


def test_invalid_program_reports_instead_of_raising():
    from repro.isa import LambdaProgram

    # Bypass the builder: it validates eagerly. The verifier must turn
    # the structural failure into a finding, not an exception.
    program = LambdaProgram(
        "bad", [Function("bad", [ins(Op.JMP, "nowhere")])]
    )
    report = verify_program(program)
    assert not report.ok
    assert findings_with(report, "invalid-program")


# -- WCET sanity -------------------------------------------------------------


def test_wcet_takes_the_longest_branch():
    def body(f):
        f.mov("r1", 0)
        f.beq("r1", 0, "cheap")
        f.mul("r2", "r1", 3)  # expensive arm: mul is 4 cycles
        f.mul("r2", "r2", 3)
        f.ret("r2")
        f.label("cheap")
        f.ret("r1")

    program = build(body)
    result = estimate_wcet(program)
    assert result.total_cycles is not None
    # mov(1) + beq(1) + mul(4) + mul(4) + ret(3) = 13
    assert result.total_cycles == 13


def test_wcet_multiplies_loop_bound():
    def loop(f, n):
        f.mov("r1", 0)
        f.label("top")
        f.add("r1", "r1", 1)
        f.blt("r1", n, "top")
        f.ret("r1")

    small = estimate_wcet(build(lambda f: loop(f, 4)))
    large = estimate_wcet(build(lambda f: loop(f, 400)))
    assert small.total_cycles is not None
    assert large.total_cycles > 50 * small.total_cycles
