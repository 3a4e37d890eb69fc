"""Interval-analysis deepening: offset proofs, loop bounds, tight WCET.

The interval pass upgrades three layers of the verifier:

* **memcheck** — register offsets with a proven range become
  info-grade ``proven-offset`` findings (or definite ``oob-*`` errors)
  instead of ``unknown-offset`` warnings;
* **loop bounds** — loops whose limit is a packet-header field with a
  declared wire range get a static bound where constant propagation
  alone would reject the program as unbounded;
* **WCET** — the path-sensitive collapse charges the longest *single*
  path per iteration rather than the product over all branch sides,
  and bounded memcpy lengths shrink the bulk-transfer charge.

Each test checks one upgrade. Where a test compares with the verifier
before the interval pass, the older figure is a literal measured with
that verifier (it no longer exists as an option).
"""

from repro.isa import (
    AccessMode,
    Interpreter,
    Op,
    ProgramBuilder,
)
from repro.isa.interpreter import register_intrinsic
from repro.isa.verify import (
    ANY,
    Interval,
    RangeSeeds,
    Severity,
    estimate_wcet,
    interval_states,
    verify_program,
)


def build(body_fn, objects=(), name="test"):
    builder = ProgramBuilder(name)
    for obj_name, size, *rest in objects:
        access = rest[0] if rest else AccessMode.READ_WRITE
        builder.object(obj_name, size, access=access)
    fn = builder.function(name)
    body_fn(fn)
    builder.close(fn)
    return builder.build()


def findings_with(report, code):
    return [f for f in report.findings if f.code == code]


# -- the Interval value lattice ---------------------------------------------


def test_interval_algebra_basics():
    a = Interval(2, 5)
    b = Interval(4, 9)
    assert a.contains(2) and a.contains(5) and not a.contains(6)
    assert a.join(b) == Interval(2, 9)
    assert a.meet(b) == Interval(4, 5)
    assert Interval(0, 1).meet(Interval(5, 9)) is None
    # Widening only ever opens bounds that moved.
    assert a.widen(Interval(2, 7)) == Interval(2, None)
    assert a.widen(Interval(0, 5)) == Interval(None, 5)
    assert a.widen(a) == a
    assert not Interval(0, None).is_finite
    assert Interval(3, 3).is_constant


def test_unbounded_intervals_print_as_infinities():
    assert str(Interval(None, 7)) == "[-inf, 7]"
    assert str(Interval(0, None)) == "[0, +inf]"


# -- memcheck upgrades ------------------------------------------------------


def test_masked_offset_is_proven_safe():
    """hash & 248 into a 256 B table: INFO proof, not a warning."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.hash("r2", "r1")
        fn.band("r2", "r2", 248)
        fn.load("r3", "buckets", "r2")
        fn.add("r3", "r3", 1)
        fn.store("buckets", "r2", "r3")
        fn.ret("r3")

    report = verify_program(build(body, objects=[("buckets", 256)]))
    assert report.ok
    assert not findings_with(report, "unknown-offset")
    proofs = findings_with(report, "proven-offset")
    assert len(proofs) == 2  # one for the load, one for the store
    assert all(f.severity is Severity.INFO for f in proofs)
    assert "[0, 248]" in proofs[0].message


def test_offset_proven_entirely_outside_is_an_error():
    """A dynamic offset whose whole range misses the object rejects."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.hash("r2", "r1")
        fn.band("r2", "r2", 7)
        fn.add("r2", "r2", 64)  # [64, 71] into an 8 B object
        fn.load("r3", "small", "r2")
        fn.ret("r3")

    report = verify_program(build(body, objects=[("small", 8)]))
    assert not report.ok
    errors = findings_with(report, "oob-load")
    assert len(errors) == 1
    assert "entirely outside" in errors[0].message
    # The proof replaces the unknown-offset warning the verifier gave
    # before the interval pass.
    assert not findings_with(report, "unknown-offset")


def test_straddling_range_stays_a_warning_with_its_range():
    """[0, 255] 8-byte-wide potential... the proof fails only at the
    top edge, so the finding stays a warning but names the range."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.hash("r2", "r1")
        fn.band("r2", "r2", 255)
        fn.add("r2", "r2", 64)  # [64, 319] into a 256 B object
        fn.load("r3", "buckets", "r2")
        fn.ret("r3")

    report = verify_program(build(body, objects=[("buckets", 256)]))
    assert report.ok  # warnings do not reject
    warnings = findings_with(report, "unknown-offset")
    assert len(warnings) == 1
    assert "best known range [64, 319]" in warnings[0].message


def test_memcpy_with_bounded_range_is_proven():
    def body(fn):
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.hash("r2", "r1")
        fn.band("r2", "r2", 63)   # offset in [0, 63]
        fn.hash("r3", "r1")
        fn.band("r3", "r3", 31)   # length in [0, 31]
        fn.memcpy("dst", "r2", "src", 0, "r3")
        fn.ret(0)

    report = verify_program(
        build(body, objects=[("dst", 128), ("src", 128)]))
    assert report.ok
    assert not findings_with(report, "unknown-offset")
    assert findings_with(report, "proven-offset")


# -- loop bounds from declared wire ranges ----------------------------------


def seg_loop_program():
    """Loop limited by LambdaHeader.total_segments (wire range
    [1, 65535]) with a branchy body — no constant limit, so only the
    limit's declared range bounds it."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "total_segments")
        fn.mov("r2", 0)
        fn.mov("r3", 0)
        fn.label("loop")
        fn.bge("r2", "r1", "done")
        fn.band("r4", "r2", 1)
        fn.beq("r4", 0, "even")
        fn.add("r3", "r3", 3)
        fn.jmp("next")
        fn.label("even")
        fn.add("r3", "r3", 1)
        fn.label("next")
        fn.add("r2", "r2", 1)
        fn.jmp("loop")
        fn.label("done")
        fn.ret("r3")

    return build(body, name="segs")


def test_header_limited_loop_gets_an_interval_bound():
    program = seg_loop_program()
    report = verify_program(program)
    assert report.ok
    assert not findings_with(report, "unbounded-loop")
    bounds = findings_with(report, "loop-bound")
    assert len(bounds) == 1
    assert "body <= 65535 trips" in bounds[0].message
    assert report.wcet_method["segs"] == "path-sensitive-loops"
    # Before the interval pass the program had no bound at all.
    assert report.wcet_cycles == 458752


def test_interval_bound_is_sound_against_the_interpreter():
    program = seg_loop_program()
    wcet = verify_program(program).wcet_cycles
    worst = 0
    for segments in (1, 2, 17, 65535):
        outcome = Interpreter().run(
            program,
            headers={"LambdaHeader": {"total_segments": segments}},
        )
        worst = max(worst, outcome.cycles)
    assert worst <= wcet


def test_stored_header_field_is_not_trusted_as_a_limit():
    """Writing the field anywhere unseeds it program-wide: the declared
    wire range no longer constrains what hload may return."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "total_segments")
        fn.mov("r2", 0)
        fn.label("loop")
        fn.bge("r2", "r1", "done")
        fn.add("r2", "r2", 1)
        fn.hstore("LambdaHeader", "total_segments", "r2")
        fn.jmp("loop")
        fn.label("done")
        fn.ret("r2")

    report = verify_program(build(body))
    assert not report.ok
    assert findings_with(report, "unbounded-loop")


# -- path-sensitive WCET ----------------------------------------------------


def branchy_counted_loop():
    def body(fn):
        fn.mov("r1", 0)
        fn.mov("r3", 0)
        fn.label("loop")
        fn.bge("r1", 8, "done")
        fn.band("r2", "r1", 1)
        fn.beq("r2", 0, "even")
        fn.add("r3", "r3", 3)
        fn.jmp("next")
        fn.label("even")
        fn.add("r3", "r3", 1)
        fn.label("next")
        fn.add("r1", "r1", 1)
        fn.jmp("loop")
        fn.label("done")
        fn.ret("r3")

    return build(body, name="branchy")


def test_path_sensitive_collapse_beats_the_block_product():
    program = branchy_counted_loop()
    tight = estimate_wcet(program)
    # Before the interval pass the verifier charged the block product
    # ("loop-product"): 77 cycles.
    assert tight.total_cycles == 62
    assert tight.function_method["branchy"] == "path-sensitive-loops"
    # The tightened bound is still an upper bound on the real run.
    observed = Interpreter().run(program).cycles
    assert observed <= tight.total_cycles


def test_acyclic_programs_keep_the_exact_longest_path():
    def body(fn):
        fn.mov("r1", 7)
        fn.beq("r1", 7, "yes")
        fn.mov("r2", 1)
        fn.ret("r2")
        fn.label("yes")
        fn.mov("r2", 2)
        fn.ret("r2")

    program = build(body, name="straight")
    with_iv = estimate_wcet(program)
    # The same 6 cycles as before the interval pass.
    assert with_iv.total_cycles == 6
    assert with_iv.function_method["straight"] == "longest-path"


def test_bounded_memcpy_length_tightens_wcet():
    """min-object-size fallback (4 KiB) vs proven length <= 15."""

    def body(fn):
        fn.hload("r1", "LambdaHeader", "request_id")
        fn.hash("r2", "r1")
        fn.band("r2", "r2", 15)
        fn.memcpy("dst", 0, "src", 0, "r2")
        fn.ret(0)

    program = build(body, objects=[("dst", 4096), ("src", 4096)])
    tight = estimate_wcet(program).total_cycles
    # Before the interval pass the verifier charged the object-size
    # fallback: 15375 cycles.
    assert tight == 255


# -- advisory findings and provenance ---------------------------------------


def test_intrinsic_without_wcet_model_gets_an_info_finding():
    register_intrinsic("no_model_op", lambda machine, args, val: None,
                       writes_memory=False)

    def body(fn):
        fn.emit(Op.INTRINSIC, "no_model_op")
        fn.ret(0)

    report = verify_program(build(body))
    advisories = findings_with(report, "missing-wcet-model")
    assert len(advisories) == 1
    assert advisories[0].severity is Severity.INFO
    assert "no_model_op" in advisories[0].message
    assert "register_intrinsic" in advisories[0].message
    assert report.ok  # advisory, not an error


def test_wcet_method_lands_in_the_json_report():
    report = verify_program(branchy_counted_loop())
    payload = report.to_dict()
    assert payload["wcet_method"] == {"branchy": "path-sensitive-loops"}


# -- raw interval states ----------------------------------------------------


def test_interval_states_narrow_the_loop_counter():
    program = seg_loop_program()
    function = program.functions["segs"]
    states = interval_states(function, program=program)
    # Before the backward jump the counter has been incremented at
    # least once and can never exceed the limit's top.
    jmp_loop = max(
        i for i, instruction in enumerate(function.body)
        if instruction.op is Op.JMP and instruction.args[0] == "loop"
    )
    counter = states.range_before(jmp_loop, "r2")
    assert counter is not None
    assert counter.lo >= 1
    assert counter.hi == 65535
    limit = states.range_before(jmp_loop, "r1")
    assert limit == Interval(1, 65535)


def test_untrusted_seeds_use_machine_guarantees_only():
    """The JIT runs with ``trust_declared=False``: the simulator lets
    callers plant out-of-wire-range header values, so declared field
    ranges must not be assumed — but hash's machine guarantee holds."""
    program = seg_loop_program()
    function = program.functions["segs"]
    states = interval_states(function,
                             seeds=RangeSeeds(trust_declared=False))
    # hload result: no declared wire range may be assumed.
    assert states.value_before(1, "r1") is ANY

    def hashing(fn):
        fn.mov("r1", 5)
        fn.hash("r2", "r1")
        fn.ret("r2")

    hashed = build(hashing, name="hashing")
    hashed_states = interval_states(hashed.functions["hashing"],
                                    seeds=RangeSeeds(trust_declared=False))
    assert hashed_states.range_before(2, "r2") == Interval(0, 0xFFFFFFFF)


def test_value_before_unreachable_point_is_any():
    def body(fn):
        fn.mov("r1", 1)
        fn.ret("r1")
        fn.mov("r2", 2)  # dead
        fn.ret("r2")

    program = build(body)
    states = interval_states(program.functions["test"], program=program)
    assert states.value_before(2, "r2") is ANY
