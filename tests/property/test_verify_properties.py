"""Property-based tests for the static-analysis layer.

The properties the verifier's soundness rests on:

* every dataflow fixpoint terminates on arbitrary (fuzzed) CFGs —
  including irreducible flow graphs the builder would never emit;
* the interval analysis folds points exactly: on straight-line
  programs (where concrete ``mov`` seeds make every register's value
  statically known) each register is a point equal to the
  interpreter's value;
* the interval lattice is algebraically well-behaved (join is an upper
  bound, meet a lower bound, widening jumps to a fixpoint) and the
  interval analysis never excludes a value the interpreter actually
  produces — on straight-line *and* branchy programs, where the
  branch-edge refinement must only ever shave values a path cannot
  carry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Function, Interpreter, Op, ProgramBuilder, ins
from repro.isa.verify import (
    Interval,
    build_cfg,
    dead_stores,
    estimate_wcet,
    interval_states,
    uninitialized_reads,
    verify_program,
)

_REGISTERS = [f"r{i}" for i in range(4)]
_ALU = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.MIN, Op.MAX]


@st.composite
def fuzzed_function(draw):
    """An arbitrary function body: random ALU ops, branches to random
    labels (always defined), random terminators. The CFG may contain
    arbitrary cycles and unreachable islands."""
    n = draw(st.integers(min_value=1, max_value=25))
    n_labels = draw(st.integers(min_value=1, max_value=5))
    labels = [f"L{i}" for i in range(n_labels)]
    body = []
    for _ in range(n):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            body.append(ins(Op.LABEL, draw(st.sampled_from(labels))))
        elif kind == 1:
            body.append(ins(Op.JMP, draw(st.sampled_from(labels))))
        elif kind == 2:
            body.append(ins(
                draw(st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE])),
                draw(st.sampled_from(_REGISTERS)),
                draw(st.integers(0, 7)),
                draw(st.sampled_from(labels)),
            ))
        elif kind == 3:
            body.append(ins(
                draw(st.sampled_from(_ALU)),
                draw(st.sampled_from(_REGISTERS)),
                draw(st.sampled_from(_REGISTERS)),
                draw(st.one_of(st.sampled_from(_REGISTERS),
                               st.integers(0, 100))),
            ))
        elif kind == 4:
            body.append(ins(Op.MOV, draw(st.sampled_from(_REGISTERS)),
                            draw(st.integers(0, 100))))
        else:
            body.append(ins(
                draw(st.sampled_from([Op.RET, Op.FORWARD, Op.DROP])),
            ))
    # Ensure every label used exists (duplicates are fine for the CFG;
    # the decoded label map keeps the last occurrence, like the
    # interpreter).
    present = {i.args[0] for i in body if i.op is Op.LABEL}
    for label in labels:
        if label not in present:
            body.append(ins(Op.LABEL, label))
    body.append(ins(Op.RET, 0))
    return Function("fuzz", body)


@given(function=fuzzed_function())
@settings(max_examples=120, deadline=None)
def test_fixpoints_terminate_on_fuzzed_cfgs(function):
    """No analysis may diverge, whatever the control flow looks like."""
    cfg = build_cfg(function)
    # Structural invariants first.
    for block in cfg.blocks:
        for succ in block.succs:
            assert block.bid in cfg.blocks[succ].preds
    assert set(cfg.postorder()) == cfg.reachable()

    # The interval solver reaches a fixpoint (FixpointError would
    # propagate).
    states = interval_states(function)
    # Only CFG-reachable instructions have a state; branch-edge
    # refinement may prove more of them unreachable.
    reachable_indices = {
        index
        for bid in cfg.reachable()
        for index, _ in cfg.blocks[bid].instructions
    }
    assert set(states.instr_in) <= reachable_indices


@given(function=fuzzed_function())
@settings(max_examples=60, deadline=None)
def test_whole_program_analyses_terminate(function):
    from repro.isa import LambdaProgram

    program = LambdaProgram("fuzz", [function])
    uninitialized_reads(program)
    dead_stores(program)
    estimate_wcet(program)
    # The full pipeline tolerates anything the fuzzer produces; it may
    # reject the program, but it must return a report.
    report = verify_program(program)
    assert report.program == "fuzz"


@st.composite
def straight_line_program(draw):
    """mov-seeded straight-line ALU program; every value is static."""
    builder = ProgramBuilder("line")
    fn = builder.function("line")
    for reg in _REGISTERS:
        fn.mov(reg, draw(st.integers(0, 1000)))
    n = draw(st.integers(min_value=1, max_value=15))
    for _ in range(n):
        op = draw(st.sampled_from(_ALU + [Op.SHL, Op.SHR]))
        dst = draw(st.sampled_from(_REGISTERS))
        a = draw(st.sampled_from(_REGISTERS))
        if op in (Op.SHL, Op.SHR):
            b = draw(st.integers(0, 8))
        else:
            b = draw(st.one_of(st.sampled_from(_REGISTERS),
                               st.integers(0, 1000)))
        fn.emit(op, dst, a, b)
    ret_reg = draw(st.sampled_from(_REGISTERS))
    fn.ret(ret_reg)
    builder.close(fn)
    return builder.build(), ret_reg


@given(case=straight_line_program())
@settings(max_examples=120, deadline=None)
def test_constprop_agrees_with_interpreter_on_straight_line(case):
    program, ret_reg = case
    function = program.functions["line"]
    ret_index = len(function.body) - 1
    predicted = interval_states(function).range_before(ret_index, ret_reg)
    assert predicted is not None and predicted.is_constant, \
        "fully-seeded program must fold to a point"
    observed = Interpreter().run(program).return_value
    assert predicted.lo == observed


# -- interval lattice: algebra ----------------------------------------------


@st.composite
def an_interval(draw):
    lo = draw(st.one_of(st.none(), st.integers(-500, 500)))
    if lo is None:
        hi = draw(st.one_of(st.none(), st.integers(-500, 500)))
    else:
        hi = draw(st.one_of(st.none(), st.integers(lo, lo + 1000)))
    return Interval(lo, hi)


def _points_in(draw, iv):
    lo = iv.lo if iv.lo is not None else -1000
    hi = iv.hi if iv.hi is not None else 1000
    return draw(st.integers(lo, hi))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_interval_join_is_a_commutative_upper_bound(data):
    a = data.draw(an_interval())
    b = data.draw(an_interval())
    joined = a.join(b)
    assert joined == b.join(a)
    assert a.join(a) == a
    assert joined.contains(_points_in(data.draw, a))
    assert joined.contains(_points_in(data.draw, b))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_interval_meet_is_a_lower_bound(data):
    a = data.draw(an_interval())
    b = data.draw(an_interval())
    met = a.meet(b)
    assert met == b.meet(a)
    assert a.meet(a) == a
    if met is not None:
        point = _points_in(data.draw, met)
        assert a.contains(point) and b.contains(point)
    else:
        # Empty meet: no point may be in both.
        point = _points_in(data.draw, a)
        assert not b.contains(point)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_interval_widening_is_a_one_step_fixpoint(data):
    a = data.draw(an_interval())
    b = data.draw(an_interval())
    widened = a.widen(b)
    # Widening over-approximates both arguments...
    assert widened.contains(_points_in(data.draw, a))
    assert widened.contains(_points_in(data.draw, b))
    # ...is stationary on equal input (termination at a fixpoint)...
    assert a.widen(a) == a
    # ...and re-widening with anything already covered changes nothing:
    # the ascending chain stabilizes after one jump per bound.
    assert widened.widen(b) == widened
    assert widened.widen(a.join(b)) == widened


# -- interval analysis: termination and soundness ---------------------------


@given(function=fuzzed_function())
@settings(max_examples=60, deadline=None)
def test_interval_fixpoint_terminates_on_fuzzed_cfgs(function):
    """Widening + bounded narrowing must converge on any CFG shape."""
    cfg = build_cfg(function)
    states = interval_states(function)
    reachable_indices = {
        index
        for bid in cfg.reachable()
        for index, _ in cfg.blocks[bid].instructions
    }
    # Branch-edge refinement may prove syntactically-reachable blocks
    # dead (e.g. `mov r0, 0; beq r0, 0, ...` has an infeasible
    # fall-through), so the analysis covers a *subset* of the CFG's
    # reachable set — but never anything outside it.
    assert set(states.instr_in) <= reachable_indices
    if reachable_indices:
        # The entry block's first real instruction always has a state.
        assert min(reachable_indices) in states.instr_in


@given(case=straight_line_program())
@settings(max_examples=120, deadline=None)
def test_intervals_contain_interpreter_value_on_straight_line(case):
    program, ret_reg = case
    function = program.functions["line"]
    states = interval_states(function, program=program)
    ret_index = len(function.body) - 1
    predicted = states.range_before(ret_index, ret_reg)
    observed = Interpreter().run(program).return_value
    if predicted is not None:
        assert predicted.contains(observed)


@st.composite
def branchy_program(draw):
    """Seeded registers, then forward-only compare-and-skip diamonds:
    always terminates, and every branch edge exercises refinement."""
    builder = ProgramBuilder("branchy")
    fn = builder.function("branchy")
    for reg in _REGISTERS:
        fn.mov(reg, draw(st.integers(0, 50)))
    n = draw(st.integers(min_value=1, max_value=6))
    for i in range(n):
        skip = f"skip{i}"
        op = draw(st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE]))
        fn.emit(op, draw(st.sampled_from(_REGISTERS)),
                draw(st.integers(0, 50)), skip)
        fn.emit(draw(st.sampled_from(_ALU)),
                draw(st.sampled_from(_REGISTERS)),
                draw(st.sampled_from(_REGISTERS)),
                draw(st.integers(0, 50)))
        fn.label(skip)
    ret_reg = draw(st.sampled_from(_REGISTERS))
    fn.ret(ret_reg)
    builder.close(fn)
    return builder.build(), ret_reg


@given(case=branchy_program())
@settings(max_examples=120, deadline=None)
def test_intervals_contain_interpreter_value_on_branchy_programs(case):
    """Branch-edge refinement may shave only values a path cannot
    carry: whatever the interpreter returns must stay inside the
    interval the analysis proved for the merged exit state."""
    program, ret_reg = case
    function = program.functions["branchy"]
    states = interval_states(function, program=program)
    ret_index = len(function.body) - 1
    predicted = states.range_before(ret_index, ret_reg)
    observed = Interpreter().run(program).return_value
    if predicted is not None:
        assert predicted.contains(observed)
