"""Lambda-IR -> native Python JIT: per-lambda source code generation.

The fast execution tier. The reference
:class:`~repro.isa.interpreter.Interpreter` is the executable
specification: it decodes every instruction on every run, a long
if/elif chain plus per-operand dispatch. This module removes that
per-instruction overhead by compiling a
:class:`~repro.isa.program.LambdaProgram` into real Python source:

* one generated Python function per lambda IR function;
* basic blocks (from the function's decoded form,
  :class:`~repro.isa.verify.DecodedFunction`) emitted in order as
  straight-line statements, each under its own ``if _b == bid:`` test:
  forward control falls through to the later tests in the same pass,
  and only a back-edge restarts the dispatch loop; registers are
  lowered to Python locals;
* the verifier's interval analysis
  (:func:`~repro.isa.verify.interval_states`) seeds the lowering:
  registers it pins to a point, and ALU results and branch directions
  that follow from points, fold into constants at codegen time;
* cycle costs and the step-limit check folded to *one* constant and
  *one* comparison per straight-line segment instead of per
  instruction, with a slow path that replays the segment through the
  interpreter's step function when an execution actually crosses the
  limit — so the raise happens at the exact instruction, after the
  exact persistent-memory side effects, with the exact message;
* the source is ``compile()``d once per program and cached (weakly
  keyed, guarded by :func:`program_signature`).

Semantics are **cycle-exact and verdict-identical** to the reference
interpreter — including error messages, region-access accounting,
persistent-memory-write tracking for the NIC's state epoch, and the step
limit — proven differentially against the interpreter
(``tests/isa/test_jit.py`` plus the hypothesis fuzz suite).

Programs the JIT cannot lower (unknown opcodes, CFGs the verifier's
fixpoint cannot settle) transparently fall back to the reference
interpreter; fallbacks are counted in :class:`CompileCacheStats` so the
tier split stays observable.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from .instructions import (
    BASE_CYCLES,
    Instruction,
    Op,
    REGION_ACCESS_CYCLES,
    WORD_ACCESS,
)
from .interpreter import (
    BULK_BURST_BYTES,
    DEFAULT_STEP_LIMIT,
    EmittedPacket,
    ExecutionError,
    ExecutionResult,
    Interpreter,
    Machine,
    _ALU_OPS,
    _BRANCH_OPS,
    call_intrinsic,
    execute_straightline,
    hash32,
)
from .program import Function, LambdaProgram
from .verify import RangeSeeds, interval_states
from .verify.cfg import BRANCH_OPS, REGISTERS, DecodedFunction, register_bit


class JitLoweringError(Exception):
    """The program uses a construct the JIT cannot lower (the engine
    falls back to the reference interpreter for such programs)."""


@dataclass
class CompileCacheStats:
    """Compile-cache counters for the JIT tier."""

    hits: int = 0       # lookups answered by a live compilation
    misses: int = 0     # compilations (first-time or staleness recompiles)
    fallbacks: int = 0  # programs the JIT could not lower

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def program_signature(program: LambdaProgram) -> Tuple:
    """Cheap structural fingerprint used to detect stale compilations.

    Catches the mutations that actually occur in this codebase —
    optimisation passes changing function bodies and memory
    stratification moving objects between regions. (In-place
    same-length instruction surgery is not detected; recompile
    explicitly after such edits.)
    """
    return (
        tuple((name, len(fn.body)) for name, fn in program.functions.items()),
        tuple((name, obj.region) for name, obj in program.objects.items()),
        program.entry,
    )


#: Block id sentinel meaning "fall off the end of the function".
_IMPLICIT = -1

#: Straight-line opcodes the generated code and the step-trip path
#: handle. Anything outside this set (plus control flow) is a lowering
#: failure, never a silent semantic change.
_STRAIGHTLINE_OPS = frozenset(_ALU_OPS) | frozenset({
    Op.MOV, Op.NOP, Op.RESOLVE, Op.LOAD, Op.LOADD, Op.STORE, Op.STORED,
    Op.MEMCPY, Op.HLOAD, Op.HSTORE, Op.MLOAD, Op.MSTORE, Op.EMIT,
    Op.HASH, Op.CRC, Op.INTRINSIC,
})

_CONTROL_OPS = frozenset(BRANCH_OPS) | frozenset({
    Op.JMP, Op.CALL, Op.RET, Op.HALT, Op.FORWARD, Op.DROP, Op.TO_HOST,
    Op.LABEL,
})

#: Python expression templates for the ALU ops; operand order matches
#: the reference lambdas exactly (TypeError messages depend on it).
_ALU_TEMPLATES = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.MUL: "({a} * {b})",
    Op.AND: "({a} & {b})",
    Op.OR: "({a} | {b})",
    Op.XOR: "({a} ^ {b})",
    Op.SHL: "({a} << {b})",
    Op.SHR: "({a} >> {b})",
    Op.MIN: "min({a}, {b})",
    Op.MAX: "max({a}, {b})",
}

_BRANCH_TEMPLATES = {
    Op.BEQ: "({a} == {b})",
    Op.BNE: "({a} != {b})",
    Op.BLT: "({a} < {b})",
    Op.BGE: "({a} >= {b})",
}

_VERDICT_OPS = {
    Op.FORWARD: "forward",
    Op.DROP: "drop",
    Op.TO_HOST: "to_host",
}


# -- runtime helpers shared by all generated modules ---------------------------


def _read_header(headers: Dict[str, Dict[str, Any]], header: str,
                 field_name: str) -> Any:
    try:
        return headers[header][field_name]
    except KeyError:
        raise ExecutionError(
            f"header field {header}.{field_name} not present"
        ) from None


def _bad_read(operand: Any) -> Any:
    raise ExecutionError(f"cannot read operand {operand!r}")


def _bad_destination(operand: Any) -> None:
    raise ExecutionError(f"destination {operand!r} is not a register")


def _step_trip(st: Machine, instructions: Tuple[Instruction, ...]) -> None:
    """Per-instruction slow path for a segment that crosses the step limit.

    The generated fast path pre-checks ``executed + N > step_limit`` per
    segment; when that fires, the generated function spills its register
    locals and hands the *whole segment* here. The segment replays
    through the reference interpreter's own step function, so the
    step-limit error raises at the exact instruction — after the exact
    side effects of its predecessors — with the exact message.

    The pre-check guarantees the raise happens at or before the last
    instruction (checks precede execution), so control-flow terminators
    that may end a segment are never actually executed here.
    """
    for instruction in instructions:
        if st.executed >= st.step_limit:
            st.step_limit_exceeded()
        st.executed += 1
        st.cycles += BASE_CYCLES[instruction.op]
        execute_straightline(st, instruction)
    raise AssertionError("step-limit trip segment did not trip")


# -- codegen -------------------------------------------------------------------


def _used_registers(decoded: DecodedFunction) -> List[str]:
    """Registers the function touches (lowered to Python locals)."""
    touched = 0
    for uses, defs in zip(decoded.uses, decoded.defs):
        touched |= uses | defs
    return [name for index, name in enumerate(REGISTERS)
            if touched >> index & 1]


class _Emitter:
    """Indented line buffer for one generated module."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _FunctionLowering:
    """Lowers one IR function to one generated Python function."""

    def __init__(self, compiler: "JitProgram", out: _Emitter, name: str,
                 function: Function) -> None:
        self.compiler = compiler
        self.name = name
        self.function = function
        self.cfg = function.decoded.cfg
        # Machine-guaranteed value ranges only (no declared seeds): the
        # simulator lets callers place out-of-wire-range values in
        # headers, so folding and elision decisions must not lean on
        # declared packet-format ranges.
        self.ranges = interval_states(
            function, seeds=RangeSeeds(trust_declared=False))
        self.used = _used_registers(function.decoded)
        self.out = out

    # -- small codegen utilities --------------------------------------------

    def const(self, value: Any) -> str:
        return self.compiler.const(value)

    def read_expr(self, index: int, operand: Any) -> str:
        """Python expression for :meth:`Machine.read` of ``operand``.

        Register reads become locals; when the interval analysis pins
        the register to a point at this body index, the constant is
        emitted instead.
        """
        if register_bit(operand):
            known = self.ranges.point_before(index, operand)
            return operand if known is None else self.const(known)
        if isinstance(operand, (int, float, str)):
            # Immediates and non-register string literals.
            return self.const(operand)
        if isinstance(operand, tuple):
            kind = operand[0]
            if kind == "hdr":
                return (f"_hdr(st.headers, {self.const(operand[1])}, "
                        f"{self.const(operand[2])})")
            if kind == "meta":
                return f"st.meta.get({self.const(operand[1])}, 0)"
        return f"_bad_read({self.const(operand)})"

    def spill_lines(self) -> List[str]:
        return [f'_reg["{reg}"] = {reg}' for reg in self.used]

    def reload_lines(self) -> List[str]:
        return [f'{reg} = _reg["{reg}"]' for reg in self.used]

    def write_dst(self, index: int, dst: Any, expr: str) -> List[str]:
        """Statements writing ``expr`` to destination operand ``dst``.

        Non-register destinations evaluate the source first, then raise
        — matching the reference's read-then-write_register order.
        """
        if register_bit(dst):
            return [f"{dst} = {expr}"]
        return [f"_t = {expr}", f"_bad_destination({self.const(dst)})"]

    # -- instruction lowering -------------------------------------------------

    def lower_straightline(self, index: int,
                           instruction: Instruction) -> Tuple[List[str], bool]:
        """(statements, always_raises) for one non-control instruction."""
        op = instruction.op
        args = instruction.args
        program = self.compiler.program

        if op in _ALU_TEMPLATES:
            a_op = args[1]
            b_op = args[2] if len(args) > 2 else None
            a_val = self.ranges.point_before(index, a_op)
            b_val = self.ranges.point_before(index, b_op) \
                if len(args) > 2 else None
            if a_val is not None and b_val is not None \
                    and register_bit(args[0]):
                # Fold the whole op when both inputs are proven
                # constants and the evaluation cannot fault.
                try:
                    folded = _ALU_OPS[op](a_val, b_val)
                except (ArithmeticError, ValueError):
                    folded = None
                if folded is not None:
                    return [f"{args[0]} = {self.const(folded)}"], False
            a = self.read_expr(index, a_op)
            b = self.read_expr(index, b_op) if len(args) > 2 else "None"
            expr = _ALU_TEMPLATES[op].format(a=a, b=b)
            return self.write_dst(index, args[0], expr), False
        if op is Op.MOV:
            return self.write_dst(
                index, args[0], self.read_expr(index, args[1])), False
        if op is Op.NOP:
            return [], False
        if op is Op.RESOLVE:
            _, obj, offset = args[1]
            expr = (f'("addr", {self.const(obj)}, '
                    f'{self.read_expr(index, offset)})')
            return self.write_dst(index, args[0], expr), False
        if op in WORD_ACCESS:
            position, is_write = WORD_ACCESS[op]
            _, obj, offset = args[position]
            lines = [f"_o = {self.read_expr(index, offset)}"]
            if obj not in program.objects:
                # The reference resolves the object's region (raising
                # for undeclared names) before charging the access.
                message = f"{program.name!r} has no object {obj!r}"
                lines.append(f"raise KeyError({message!r})")
                return lines, True
            lines += self.charge_lines(program.objects[obj].region)
            if not is_write:
                lines += self.write_dst(
                    index, args[0], f"st.load_word({self.const(obj)}, _o)")
                return lines, False
            lines.append(
                f"st.store_word({self.const(obj)}, _o, "
                f"{self.read_expr(index, args[-1])})"
            )
            lines.append("st.wrote_memory = True")
            return lines, False
        if op is Op.MEMCPY:
            return self.lower_memcpy(index, args)
        if op is Op.HLOAD:
            _, header, field_name = args[1]
            expr = (f"_hdr(st.headers, {self.const(header)}, "
                    f"{self.const(field_name)})")
            return self.write_dst(index, args[0], expr), False
        if op is Op.HSTORE:
            _, header, field_name = args[0]
            return [
                f"st.headers.setdefault({self.const(header)}, {{}})"
                f"[{self.const(field_name)}] = "
                f"{self.read_expr(index, args[1])}"
            ], False
        if op is Op.MLOAD:
            expr = f"st.meta.get({self.const(args[1][1])}, 0)"
            return self.write_dst(index, args[0], expr), False
        if op is Op.MSTORE:
            return [
                f"st.meta[{self.const(args[0][1])}] = "
                f"{self.read_expr(index, args[1])}"
            ], False
        if op is Op.EMIT:
            return [
                "st.emitted.append(EmittedPacket("
                "headers={_hk: dict(_hv) for _hk, _hv in st.headers.items()},"
                " meta=dict(st.meta), payload=st.response_payload))"
            ], False
        if op in (Op.HASH, Op.CRC):
            expr = (f"_hash32({self.const(op.value)}, "
                    f"{self.read_expr(index, args[1])})")
            return self.write_dst(index, args[0], expr), False
        if op is Op.INTRINSIC:
            return self.lower_intrinsic(args)
        raise JitLoweringError(f"cannot lower opcode {op!r}")

    def charge_lines(self, region: Any) -> List[str]:
        """Region-access bookkeeping for one statically-known access.

        The *cycles* are folded into the segment constant; only the
        access count is recorded here, in execution order so the
        region dict's insertion order matches the reference exactly.
        """
        r = self.const(region)
        return [f"_ra[{r}] = _ra.get({r}, 0) + 1"]

    def memcpy_const_bursts(self, index: int, args) -> Optional[int]:
        """DMA burst count when the copy length is a proven constant.

        Mirrors the interpreter's ``max(1, ceil(n / BULK_BURST_BYTES))``
        exactly; :meth:`static_cycles` and :meth:`lower_memcpy` must
        agree on this value so the folded region charges replace the
        runtime ones one-for-one.
        """
        program = self.compiler.program
        if args[0][1] not in program.objects \
                or args[1][1] not in program.objects:
            return None  # KeyError path: keep runtime charge order.
        n = self.ranges.point_before(index, args[2])
        if n is None:
            return None
        return max(1, math.ceil(n / BULK_BURST_BYTES))

    def memcpy_proven_in_bounds(self, index: int, args) -> bool:
        """True when the verifier proves both sides inside their objects.

        Uses machine-guaranteed intervals only, so the proof holds for
        any runtime header/metadata contents. The emitted code still
        guards on the buffers actually having their declared sizes
        (callers may pass their own memory dict), so elision can never
        change behavior — it only removes the per-copy range check from
        the common path.
        """
        program = self.compiler.program
        dst_ref, src_ref, length = args
        length_iv = self.ranges.range_before(index, length)
        if length_iv is None or length_iv.lo is None or length_iv.lo < 0 \
                or length_iv.hi is None:
            return False
        for ref in (src_ref, dst_ref):
            obj = program.objects.get(ref[1])
            if obj is None:
                return False
            offset_iv = self.ranges.range_before(index, ref[2])
            if offset_iv is None or offset_iv.lo is None \
                    or offset_iv.lo < 0 or offset_iv.hi is None:
                return False
            if offset_iv.hi + length_iv.hi > obj.size_bytes:
                return False
        return True

    def lower_memcpy(self, index: int, args) -> Tuple[List[str], bool]:
        program = self.compiler.program
        dst_ref, src_ref, length = args
        _, dst_obj, dst_off = dst_ref
        _, src_obj, src_off = src_ref
        const_bursts = self.memcpy_const_bursts(index, args)
        lines = [
            f"_n = {self.read_expr(index, length)}",
            f"_do = {self.read_expr(index, dst_off)}",
            f"_so = {self.read_expr(index, src_off)}",
        ]
        if const_bursts is None:
            lines.append(f"_bursts = max(1, _ceil(_n / {BULK_BURST_BYTES}))")
            bursts_expr = "_bursts"
        else:
            # Burst count and cycle charges fold away; the cycles are
            # part of the segment constant (see static_cycles).
            self.compiler.lowering_stats["memcpy_folded"] += 1
            bursts_expr = str(const_bursts)
        for obj, off_is_dst in ((src_obj, False), (dst_obj, True)):
            if obj not in program.objects:
                message = f"{program.name!r} has no object {obj!r}"
                lines.append(f"raise KeyError({message!r})")
                return lines, True
            region = program.objects[obj].region
            r = self.const(region)
            lines.append(f"_ra[{r}] = _ra.get({r}, 0) + {bursts_expr}")
            if const_bursts is None:
                lines.append(
                    f"st.cycles += {REGION_ACCESS_CYCLES[region]} * _bursts")
        lines += [
            f"_sb = st._object_bytes({self.const(src_obj)})",
            f"_db = st._object_bytes({self.const(dst_obj)})",
        ]
        if self.memcpy_proven_in_bounds(index, args):
            # Proven in-bounds against the declared sizes: check only
            # when a caller-supplied memory dict deviates from them.
            self.compiler.lowering_stats["memcpy_checks_elided"] += 1
            src_size = program.objects[src_obj].size_bytes
            dst_size = program.objects[dst_obj].size_bytes
            lines += [
                f"if len(_sb) != {src_size} or len(_db) != {dst_size}:",
                "    if _so + _n > len(_sb) or _do + _n > len(_db):",
                "        raise ExecutionError('memcpy out of bounds')",
            ]
        else:
            lines += [
                "if _so + _n > len(_sb) or _do + _n > len(_db):",
                "    raise ExecutionError('memcpy out of bounds')",
            ]
        lines += [
            "_db[_do:_do + _n] = _sb[_so:_so + _n]",
            "st.wrote_memory = True",
        ]
        return lines, False

    def lower_intrinsic(self, args) -> Tuple[List[str], bool]:
        # Intrinsics read registers through the machine, so locals are
        # spilled first; they cannot write registers, so nothing reloads.
        lines = self.spill_lines()
        lines.append(f"_intrinsic(st, {self.const(args[0])}, "
                     f"{self.const(tuple(args[1:]))})")
        return lines, False

    # -- block/segment structure ----------------------------------------------

    def segments(self, block) -> List[List[Tuple[int, Instruction]]]:
        """Split a block's instructions into step-accounting segments.

        A segment is a maximal run that may end with (but never
        continue past) a ``call`` — the callee's own step checks must
        observe the counts of everything up to and including the call,
        and nothing after it.
        """
        segments: List[List[Tuple[int, Instruction]]] = []
        current: List[Tuple[int, Instruction]] = []
        for index, instruction in block.instructions:
            current.append((index, instruction))
            if instruction.op is Op.CALL:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        return segments

    def static_cycles(self, segment: List[Tuple[int, Instruction]]) -> int:
        """Base cycles plus statically-known region charges, folded."""
        program = self.compiler.program
        total = 0
        for index, instruction in segment:
            op = instruction.op
            total += BASE_CYCLES[op]
            obj = None
            if op in WORD_ACCESS:
                obj = instruction.args[WORD_ACCESS[op][0]][1]
            elif op is Op.MEMCPY:
                # Constant-length copies fold their DMA burst charges
                # here; lower_memcpy drops the runtime counterpart.
                bursts = self.memcpy_const_bursts(index, instruction.args)
                if bursts is not None:
                    for ref in (instruction.args[1], instruction.args[0]):
                        region = program.objects[ref[1]].region
                        total += bursts * REGION_ACCESS_CYCLES[region]
            if obj is not None and obj in program.objects:
                total += REGION_ACCESS_CYCLES[program.objects[obj].region]
        return total

    def next_block(self, bid: int) -> int:
        return bid + 1 if bid + 1 < len(self.cfg.blocks) else _IMPLICIT

    @staticmethod
    def goto(target: int, block) -> List[str]:
        """Statements passing control from ``block`` to block ``target``.

        Blocks are emitted in order, each as its own ``if _b == bid:``,
        so a later block (or the implicit return) is reached by falling
        forward through the remaining tests; only a jump back to this
        block or an earlier one restarts the dispatch loop (``_b``
        already names this block, so a self-loop only restarts).
        """
        if target == block.bid:
            return ["continue"]
        if 0 <= target < block.bid:
            return [f"_b = {target}", "continue"]
        return [f"_b = {target}"]

    # -- control-flow lowering --------------------------------------------------

    def lower_control(self, index: int, instruction: Instruction,
                      block) -> List[str]:
        """Statements for a block-terminating control-flow instruction
        (the CFG's edges give its targets; a missing label has none)."""
        op = instruction.op
        args = instruction.args
        out: List[str] = []
        if op is Op.JMP:
            if not block.succs:
                out.append(f"raise KeyError({self.const(args[0])})")
            else:
                out += self.goto(block.succs[0], block)
            return out
        if op in _BRANCH_TEMPLATES:
            target = block.taken
            fallthrough = self.next_block(block.bid)
            a_val = self.ranges.point_before(index, args[0])
            b_val = self.ranges.point_before(index, args[1])
            if a_val is not None and b_val is not None and target is not None:
                # Statically-decided branch: both operands are proven
                # ints, so the comparison cannot fault.
                taken = _BRANCH_OPS[op](a_val, b_val)
                out += self.goto(target if taken else fallthrough, block)
                return out
            cond = _BRANCH_TEMPLATES[op].format(
                a=self.read_expr(index, args[0]),
                b=self.read_expr(index, args[1]),
            )
            if target is None:
                out.append(f"if {cond}:")
                out.append(f"    raise KeyError({self.const(args[2])})")
                out.append(f"_b = {fallthrough}")
            else:
                out.append(f"if {cond}:")
                out += ["    " + line for line in self.goto(target, block)]
                out.append("else:")
                out.append(f"    _b = {fallthrough}")
            return out
        if op is Op.CALL:
            callee = args[0]
            symbol = self.compiler.symbols.get(callee)
            if symbol is None:
                message = (f"{self.compiler.program.name!r} "
                           f"has no function {callee!r}")
                out.append(f"raise KeyError({message!r})")
                return out
            out += self.spill_lines()
            out.append(f"if {symbol}(st):")
            out.append("    return True")
            out += self.reload_lines()
            return out
        if op is Op.RET:
            if args:
                out.append(f"_t = {self.read_expr(index, args[0])}")
                out.append("r0 = _t")
                out.append("st.return_value = _t")
            out += self.spill_lines()
            out.append("return False")
            return out
        if op in _VERDICT_OPS:
            # The register file dies with the packet verdict; no spill.
            out.append(f'st.verdict = "{_VERDICT_OPS[op]}"')
            out.append("return True")
            return out
        if op is Op.HALT:
            out.append("return True")
            return out
        raise JitLoweringError(f"cannot lower control op {op!r}")

    # -- whole-function emission -------------------------------------------------

    def emit(self, symbol: str) -> None:
        out = self.out
        function = self.function
        body = function.body
        for op_check in body:
            if op_check.op not in _STRAIGHTLINE_OPS \
                    and op_check.op not in _CONTROL_OPS:
                raise JitLoweringError(
                    f"cannot lower opcode {op_check.op!r}")
        out.emit()
        out.emit()
        out.emit(f"def {symbol}(st):")
        out.indent += 1
        out.emit(f"# lambda IR function {self.name!r}: "
                 f"{len(body)} instruction(s), "
                 f"{len(self.cfg.blocks)} block(s)")
        if not body:
            # Empty body: immediate implicit return, no step check.
            out.emit("return False")
            out.indent -= 1
            return
        out.emit("_reg = st.registers")
        for line in self.reload_lines():
            out.emit(line)
        out.emit("_ra = st.region_accesses")
        # The reference checks the step limit at every body position,
        # labels included; a trailing label therefore checks once more
        # before the implicit return (and that is the *only* label
        # check not subsumed by the next segment's own pre-check).
        checked_implicit = body[-1].op is Op.LABEL
        out.emit("_b = 0")
        out.emit("while True:")
        out.indent += 1
        for block in self.cfg.blocks:
            out.emit(f"if _b == {block.bid}:  "
                     f"# body[{block.start}:{block.end}]")
            out.indent += 1
            self.emit_block(block)
            out.indent -= 1
        out.emit(f"# implicit return (fell off the end: _b == {_IMPLICIT})")
        if checked_implicit:
            out.emit("if st.executed >= st.step_limit:")
            out.emit("    st.step_limit_exceeded()")
        for line in self.spill_lines():
            out.emit(line)
        out.emit("return False")
        out.indent -= 2

    def emit_block(self, block) -> None:
        out = self.out
        emitted_any = False
        ends_with_control = False
        for segment in self.segments(block):
            emitted_any = True
            ends_with_control = self.emit_segment(segment, block)
        if not emitted_any:
            # Label-only block: free fallthrough (label step checks are
            # subsumed by the successor's segment pre-check or by the
            # checked implicit return).
            out.emit(f"_b = {self.next_block(block.bid)}")
        elif not ends_with_control:
            out.emit(f"_b = {self.next_block(block.bid)}")

    def emit_segment(self, segment: List[Tuple[int, Instruction]],
                     block) -> bool:
        """Emit one accounting segment; True if it ended in control flow."""
        out = self.out
        n = len(segment)
        instructions = tuple(instruction for _, instruction in segment)
        out.emit(f"if st.executed + {n} > st.step_limit:")
        out.indent += 1
        for line in self.spill_lines():
            out.emit(line)
        out.emit(f"_trip(st, {self.const(instructions)})")
        out.indent -= 1
        out.emit(f"st.executed += {n}")
        folded = self.static_cycles(segment)
        if folded:
            out.emit(f"st.cycles += {folded}")
        for index, instruction in segment:
            if instruction.op in _CONTROL_OPS:
                for line in self.lower_control(index, instruction, block):
                    out.emit(line)
                if instruction.op is not Op.CALL:
                    return True
            else:
                lines, raises = self.lower_straightline(index, instruction)
                for line in lines:
                    out.emit(line)
                if raises:
                    return True
        return False


class JitProgram:
    """A lambda program compiled to a generated Python module."""

    def __init__(self, program: LambdaProgram) -> None:
        self.program = program
        self.signature = program_signature(program)
        #: IR function name -> generated symbol.
        self.symbols: Dict[str, str] = {
            name: f"_f{index}"
            for index, name in enumerate(program.functions)
        }
        self._constants: Dict[str, Any] = {}
        self._const_keys: Dict[Any, str] = {}
        self.source = ""
        #: IR function name -> generated Python callable.
        self.functions: Dict[str, Callable[[Machine], bool]] = {}
        #: Verifier-assisted lowering wins (observability for tests /
        #: dumps): constant-length MEMCPYs whose burst charges were
        #: folded, and memcpy bounds checks elided via proven ranges.
        self.lowering_stats: Dict[str, int] = {
            "memcpy_folded": 0,
            "memcpy_checks_elided": 0,
        }
        self._compile()

    def const(self, value: Any) -> str:
        """Expression for a compile-time constant.

        Plain scalars are inlined as literals (keeps dumped source
        readable); everything else goes through the constants pool
        injected into the generated module's globals.
        """
        if isinstance(value, bool) or value is None:
            return repr(value)
        if not isinstance(value, Enum):
            # Enum members (Region, Op) subclass str/int but their repr
            # is not valid source — those go through the pool below.
            if isinstance(value, (int, str)):
                return repr(value)
            if isinstance(value, float) and math.isfinite(value):
                return repr(value)
        try:
            key = self._const_keys.get(value)
        except TypeError:
            key = None
            value_hashable = False
        else:
            value_hashable = True
        if key is None:
            key = f"_K{len(self._constants)}"
            self._constants[key] = value
            if value_hashable:
                self._const_keys[value] = key
        return key

    def _compile(self) -> None:
        # The emitter's line list lives only while the module is built;
        # the program keeps the joined ``source``.
        out = _Emitter()
        out.emit(f"# JIT-generated code for lambda program "
                 f"{self.program.name!r}.")
        out.emit("# One Python function per IR function; registers are"
                 " locals; cycle costs")
        out.emit("# and step checks are folded per straight-line segment."
                 " Regenerate with:")
        out.emit("#   python -m repro.isa.jit_cli --dump-source ...")
        for name, function in self.program.functions.items():
            _FunctionLowering(self, out, name, function).emit(
                self.symbols[name])
        self.source = out.source()
        namespace: Dict[str, Any] = {
            "ExecutionError": ExecutionError,
            "EmittedPacket": EmittedPacket,
            "_hdr": _read_header,
            "_bad_read": _bad_read,
            "_bad_destination": _bad_destination,
            "_trip": _step_trip,
            "_intrinsic": call_intrinsic,
            "_hash32": hash32,
            "_ceil": math.ceil,
        }
        namespace.update(self._constants)
        try:
            code = compile(self.source, f"<jit:{self.program.name}>", "exec")
        except SyntaxError as error:  # pragma: no cover - codegen bug guard
            raise JitLoweringError(f"generated source failed to compile: "
                                   f"{error}") from error
        exec(code, namespace)
        self.functions = {
            name: namespace[symbol] for name, symbol in self.symbols.items()
        }

    def entry(self, name: str) -> Callable[[Machine], bool]:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(
                f"{self.program.name!r} has no function {name!r}"
            ) from None


def compile_jit(program: LambdaProgram) -> JitProgram:
    """Compile ``program`` to generated Python source (raises
    :class:`JitLoweringError` if it cannot be lowered)."""
    return JitProgram(program)


class JitInterpreter:
    """Drop-in engine executing JIT-compiled lambda programs.

    Offers the :class:`~repro.isa.interpreter.Interpreter` ``run``
    interface plus ``execute`` (which also reports persistent-memory
    writes) over a weakly-keyed, signature-guarded compile cache.
    Programs that fail to lower fall back — permanently, until their
    structure changes — to the reference interpreter; :attr:`stats`
    counts hits/misses/fallbacks so the NIC can surface tier behaviour
    as metrics.
    """

    tier = "jit"

    def __init__(self, clock_hz: float = 633e6,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.clock_hz = clock_hz
        self.step_limit = step_limit
        self.stats = CompileCacheStats()
        #: The fallback tier for programs the JIT cannot lower.
        self.fallback = Interpreter(clock_hz=clock_hz, step_limit=step_limit)
        self._compiled: "weakref.WeakKeyDictionary[LambdaProgram, Tuple]" = (
            weakref.WeakKeyDictionary()
        )
        #: Tier that served the most recent execute() call.
        self.last_tier = "jit"

    def compiled_for(self, program: LambdaProgram) -> Optional[JitProgram]:
        """The cached compilation (None when the program fell back)."""
        entry = self._compiled.get(program)
        signature = program_signature(program)
        if entry is not None and entry[0] == signature:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        try:
            compiled: Optional[JitProgram] = JitProgram(program)
        except Exception:
            # Any lowering failure degrades to the reference interpreter
            # rather than breaking execution; the JIT test suite asserts
            # zero fallbacks on all registered workloads so codegen
            # regressions still surface in CI.
            compiled = None
            self.stats.fallbacks += 1
        self._compiled[program] = (signature, compiled)
        return compiled

    def dump_source(self, program: LambdaProgram) -> Optional[str]:
        """Generated Python source for ``program`` (None on fallback)."""
        compiled = self.compiled_for(program)
        return compiled.source if compiled is not None else None

    def execute(
        self,
        program: LambdaProgram,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, bytearray]] = None,
        entry: Optional[str] = None,
    ) -> Tuple[ExecutionResult, bool]:
        """Run to completion; returns (result, wrote_persistent_memory)."""
        return self.execute_compiled(self.compiled_for(program), program,
                                     headers, meta, memory, entry)

    def execute_compiled(
        self,
        compiled: Optional[JitProgram],
        program: LambdaProgram,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, bytearray]] = None,
        entry: Optional[str] = None,
    ) -> Tuple[ExecutionResult, bool]:
        """:meth:`execute` with the compilation already looked up: a
        caller that keeps ``compiled_for(program)`` (``None`` when the
        program fell back) while the program is unchanged skips the
        staleness guard."""
        if compiled is None:
            self.last_tier = "interpreter"
            return self.fallback.execute(program, headers, meta, memory,
                                         entry)
        self.last_tier = "jit"
        st = Machine(program, headers, meta, memory, self.step_limit)
        compiled.entry(entry or program.entry)(st)
        return st.result(), st.wrote_memory

    def run(
        self,
        program: LambdaProgram,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, bytearray]] = None,
        entry: Optional[str] = None,
    ) -> ExecutionResult:
        """Interpreter-compatible entry point."""
        result, _ = self.execute(program, headers, meta, memory, entry)
        return result
