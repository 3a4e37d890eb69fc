"""Value-range (interval) abstract interpretation over the lambda IR.

The eBPF verifier tracks per-register value ranges so it can prove
bounded memory accesses (``hash & (SIZE-1)``-style masking) instead of
rejecting or warning; this module gives the λ-NIC verifier the same
power. It runs over the generic worklist framework (:mod:`.dataflow`)
with widening (the interval lattice has infinite ascending chains) and
a short narrowing post-pass, plus branch-edge refinement so each CFG
edge carries the facts the branch condition established.

Abstract values
---------------
Every register maps to one of

* :data:`ANY` — the value may be anything :meth:`Machine.read` can
  produce (ints, floats, strings, ``resolve`` address tuples, ...);
* an :class:`Interval` — the value is certainly an ``int`` (never a
  ``bool``) within the inclusive range ``[lo, hi]`` (``None`` endpoints
  mean unbounded).

The int-only invariant is what makes branch refinement sound in Python:
``1.0 == 1`` and ``True == 1`` are both ``True``, so an ``ANY`` value
may *not* be promoted to an interval from an equality test — only
values already proven integral are refined. Transfer functions
therefore only produce intervals for operations whose every
non-faulting outcome is a plain int (shifts fault on non-ints and turn
bools into ints; ``hash``/``crc`` and word loads always produce ints;
arithmetic requires both operands proven integral; ``and``/``or``/
``xor`` of two bools is a bool, so they need one side proven). A
``bool`` immediate is ANY for the same reason.

Points
------
When every operand of an ALU op is a point interval the op is folded
with the interpreter's own ``_ALU_OPS`` (a fault gives ANY), so a point
interval is exactly the value the program computes there. That makes
this analysis the constant propagation too: the JIT substitutes point
registers, and the WCET estimator reads loop strides, copy lengths and
intrinsic arguments from points.

Seeding
-------
``hload``/``mload`` results are seeded from the packet-format
declarations
(:data:`repro.net.headers.Header.FIELD_RANGES` — the on-wire bit
widths) and caller-supplied metadata ranges. :class:`RangeSeeds` scans
the whole program first: a header field written by any ``hstore`` loses
its seed, ``mstore`` keys lose theirs, and any ``intrinsic`` (which
receives the raw machine and may mutate headers and metadata) drops all
seeds. ``trust_declared=False`` disables seeding entirely and keeps
only machine-guaranteed ranges (hash outputs, word loads, immediates) —
that is the mode the JIT uses for folding and bounds-check elision,
where a proof must hold for *any* runtime header contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..instructions import Instruction, Op
from ..interpreter import _ALU_OPS
from ..program import Function, LambdaProgram
from .analyses import ALL_REGISTERS
from .cfg import BRANCH_OPS, CFG, REGISTERS, BasicBlock, register_bit
from .dataflow import DataflowProblem, DataflowResult, FORWARD, solve

#: Word loads read up to 8 little-endian bytes -> [0, 2^64 - 1].
_WORD_MAX = 2 ** 64 - 1
#: hash()/crc results are masked with 0xFFFFFFFF by the interpreter.
_HASH_MAX = 0xFFFFFFFF
#: Shift amounts beyond this are treated as unbounded (SHL) or
#: saturated (SHR) instead of materializing astronomically wide bounds.
_SHIFT_CAP = 128
#: Narrowing rounds after the widened fixpoint. Two exact re-applications
#: recover loop-counter bounds that widening blew out to infinity.
_NARROW_ROUNDS = 2


class _AnyValue:
    """Top: the value may be any runtime object (not necessarily int)."""

    _instance: Optional["_AnyValue"] = None

    def __new__(cls) -> "_AnyValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: The unknown abstract value (any type, any value).
ANY = _AnyValue()


@dataclass(frozen=True)
class Interval:
    """An inclusive integer range; ``None`` endpoints are unbounded.

    Denotes *ints only*: a register mapped to an interval certainly
    holds a Python int at runtime, and never a bool.
    """

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- predicates ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: Any) -> bool:
        """True when a concrete runtime value lies inside the range."""
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    # -- lattice operations -------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Intersection, or None when empty."""
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: moving endpoints jump to infinity."""
        lo = self.lo if (self.lo is not None and other.lo is not None
                         and other.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and other.hi is not None
                         and other.hi <= self.hi) else None
        return Interval(lo, hi)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


#: The unconstrained-but-integral interval.
INT_TOP = Interval(None, None)


def to_interval(value: Any) -> Optional[Interval]:
    """The abstract value as an interval, or None when it is ANY."""
    return value if isinstance(value, Interval) else None


def join_values(a: Any, b: Any) -> Any:
    if a is ANY or b is ANY:
        return ANY
    return a.join(b)


def widen_values(a: Any, b: Any) -> Any:
    if a is ANY or b is ANY:
        return ANY
    return a.widen(b)


# ---------------------------------------------------------------------------
# Seeding from packet-format declarations
# ---------------------------------------------------------------------------


@dataclass
class RangeSeeds:
    """What ``hload``/``mload`` results may be assumed to be.

    Built by scanning a whole program (or a single function) for writes
    that invalidate the declared packet-format ranges.
    """

    #: Trust packet-format declarations at all (False: seed nothing —
    #: only machine-guaranteed ranges survive; the JIT's proof mode).
    trust_declared: bool = True
    #: Caller-declared metadata key ranges (trusted like FIELD_RANGES).
    meta_ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (header, field) pairs some ``hstore`` may have overwritten.
    clobbered_fields: FrozenSet[Tuple[str, str]] = frozenset()
    #: metadata keys some ``mstore`` may have overwritten.
    clobbered_meta: FrozenSet[str] = frozenset()

    @classmethod
    def for_program(
        cls,
        program: Optional[LambdaProgram],
        function: Optional[Function] = None,
        meta_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
        trust_declared: bool = True,
    ) -> "RangeSeeds":
        functions = list(program.functions.values()) if program is not None \
            else ([function] if function is not None else [])
        hstores: Set[Tuple[str, str]] = set()
        mstores: Set[str] = set()
        trust = trust_declared
        for fn in functions:
            for instruction in fn.body:
                op = instruction.op
                if op is Op.HSTORE:
                    ref = instruction.args[0]
                    hstores.add((ref[1], ref[2]))
                elif op is Op.MSTORE:
                    mstores.add(instruction.args[0][1])
                elif op is Op.INTRINSIC:
                    # Intrinsics receive the raw machine and may rewrite
                    # headers and metadata wholesale: distrust all seeds.
                    trust = False
                elif op is Op.CALL and program is None:
                    # Unknown callee (function-only scan): it may store
                    # anywhere.
                    trust = False
        return cls(
            trust_declared=trust,
            meta_ranges=dict(meta_ranges or {}),
            clobbered_fields=frozenset(hstores),
            clobbered_meta=frozenset(mstores),
        )

    def header_field(self, header: str, field_name: str) -> Any:
        if not self.trust_declared \
                or (header, field_name) in self.clobbered_fields:
            return ANY
        from ...net.headers import declared_field_range

        declared = declared_field_range(header, field_name)
        if declared is None:
            return ANY
        return Interval(declared[0], declared[1])

    def meta_key(self, key: str) -> Any:
        if not self.trust_declared or key in self.clobbered_meta:
            return ANY
        declared = self.meta_ranges.get(key)
        if declared is None:
            return ANY
        return Interval(declared[0], declared[1])


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def _interval_add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _interval_sub(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.hi is None else a.lo - b.hi
    hi = None if a.hi is None or b.lo is None else a.hi - b.lo
    return Interval(lo, hi)


def _interval_mul(a: Interval, b: Interval) -> Interval:
    if not (a.is_finite and b.is_finite):
        return INT_TOP
    corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(corners), max(corners))


def _interval_and(a: Any, b: Any) -> Any:
    # x & m lies in [0, m] for ANY int x whenever m >= 0 — the mask
    # bound holds even when the other side is unknown (a non-int other
    # side faults, so every continuing execution satisfies the bound).
    best: Optional[int] = None  # None: no nonneg mask side yet.
    bounded = False
    for side in (a, b):
        iv = to_interval(side)
        if iv is not None and iv.lo is not None and iv.lo >= 0:
            bounded = True
            if iv.hi is not None and (best is None or iv.hi < best):
                best = iv.hi
    if bounded:
        return Interval(0, best)
    return _int_if_either(a, b)


def _interval_or_xor(a: Any, b: Any) -> Any:
    ia, ib = to_interval(a), to_interval(b)
    if ia is not None and ib is not None \
            and ia.lo is not None and ia.lo >= 0 \
            and ib.lo is not None and ib.lo >= 0:
        if ia.hi is not None and ib.hi is not None:
            bits = max(ia.hi.bit_length(), ib.hi.bit_length())
            return Interval(0, (1 << bits) - 1)
        return Interval(0, None)
    return _int_if_either(a, b)


def _int_if_either(a: Any, b: Any) -> Any:
    """A bitwise op's result when nothing bounds it: an int when one
    side is a proven int, but ``True & True`` is a bool, so ANY when
    neither side is."""
    if to_interval(a) is None and to_interval(b) is None:
        return ANY
    return INT_TOP


def _interval_shl(a: Any, b: Any) -> Interval:
    ia, ib = to_interval(a), to_interval(b)
    if ia is None or ib is None or not ia.is_finite:
        return INT_TOP
    # Negative shift amounts fault; continuing executions have b >= 0.
    b_lo = max(ib.lo or 0, 0) if ib.lo is not None else 0
    if ib.hi is None or ib.hi > _SHIFT_CAP:
        if ia.lo >= 0:
            return Interval(ia.lo << b_lo, None)
        return INT_TOP
    b_hi = max(ib.hi, b_lo)
    corners = [ia.lo << b_lo, ia.lo << b_hi, ia.hi << b_lo, ia.hi << b_hi]
    return Interval(min(corners), max(corners))


def _interval_shr(a: Any, b: Any) -> Interval:
    ia, ib = to_interval(a), to_interval(b)
    if ia is None or ib is None:
        return INT_TOP
    b_lo = max(ib.lo or 0, 0) if ib.lo is not None else 0
    if not ia.is_finite:
        if ia.lo is not None and ia.lo >= 0:
            return Interval(0, None if ia.hi is None else ia.hi >> b_lo)
        return INT_TOP
    # x >> y is monotone in x (fixed y) and monotone in y (fixed x),
    # approaching 0 (x >= 0) or -1 (x < 0) as y grows.
    candidates = [ia.lo >> b_lo, ia.hi >> b_lo]
    if ib.hi is not None and ib.hi <= _SHIFT_CAP:
        b_hi = max(ib.hi, b_lo)
        candidates += [ia.lo >> b_hi, ia.hi >> b_hi]
    else:
        candidates += [0 if ia.lo >= 0 else -1, 0 if ia.hi >= 0 else -1]
    return Interval(min(candidates), max(candidates))


def _interval_min(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    if a.hi is None:
        hi = b.hi
    elif b.hi is None:
        hi = a.hi
    else:
        hi = min(a.hi, b.hi)
    return Interval(lo, hi)


def _interval_max(a: Interval, b: Interval) -> Interval:
    if a.lo is None:
        lo = b.lo
    elif b.lo is None:
        lo = a.lo
    else:
        lo = max(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return Interval(lo, hi)


#: Bitwise/shift ops: every non-faulting evaluation yields an int, so
#: these may produce intervals even from ANY operands.
_INT_ONLY_OPS = {
    Op.AND: _interval_and,
    Op.OR: _interval_or_xor,
    Op.XOR: _interval_or_xor,
    Op.SHL: _interval_shl,
    Op.SHR: _interval_shr,
}

#: Arithmetic ops: well-defined on non-ints too (float math, string
#: concatenation), so both operands must be proven integral.
_ARITH_OPS = {
    Op.ADD: _interval_add,
    Op.SUB: _interval_sub,
    Op.MUL: _interval_mul,
    Op.MIN: _interval_min,
    Op.MAX: _interval_max,
}


def _alu(op: Op, a: Any, b: Any) -> Any:
    """Abstract result of one ALU op over operand values ``a``, ``b``."""
    ia, ib = to_interval(a), to_interval(b)
    if ia is not None and ib is not None \
            and ia.is_constant and ib.is_constant:
        try:
            value = _ALU_OPS[op](ia.lo, ib.lo)
        except (ArithmeticError, ValueError):
            return ANY  # Faults at runtime (e.g. a negative shift).
        return Interval(value, value)
    if op in _INT_ONLY_OPS:
        return _INT_ONLY_OPS[op](a, b)
    if ia is None or ib is None:
        return ANY
    return _ARITH_OPS[op](ia, ib)


class IntervalLattice:
    """Operations of the per-register interval environment."""

    @staticmethod
    def entry_state() -> Dict[str, Any]:
        """All registers unknown — sound for any calling context."""
        return {reg: ANY for reg in ALL_REGISTERS}

    @staticmethod
    def meet(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
        """Confluence = join (may-analysis over value ranges)."""
        return {reg: join_values(a[reg], b[reg]) for reg in a}

    @staticmethod
    def value_of(operand: Any, state: Dict[str, Any],
                 seeds: RangeSeeds) -> Any:
        """Abstract value of an operand under ``state``."""
        if isinstance(operand, str):
            return state.get(operand, ANY)  # A register or a literal.
        if isinstance(operand, bool):
            return ANY  # Equal to 1/0, but hashes (repr) differently.
        if isinstance(operand, int):
            return Interval(operand, operand)
        if isinstance(operand, tuple):
            kind = operand[0]
            if kind == "hdr":
                return seeds.header_field(operand[1], operand[2])
            if kind == "meta":
                return seeds.meta_key(operand[1])
            return ANY  # mem refs and resolve addresses.
        return ANY  # Floats, string literals, anything else.

    @staticmethod
    def evaluate(instruction: Instruction, defs: int,
                 state: Dict[str, Any], seeds: RangeSeeds) -> Dict[str, Any]:
        """Push one instruction (its decoded ``defs``) through a state."""
        op = instruction.op
        args = instruction.args
        if op is Op.CALL:
            # The callee shares the register file and may write anything.
            return {reg: ANY for reg in state}
        if op is Op.RET and args:
            new = dict(state)
            new["r0"] = IntervalLattice.value_of(args[0], state, seeds)
            return new
        if not defs:
            return state
        dst = REGISTERS[defs.bit_length() - 1]
        new = dict(state)
        if op is Op.MOV:
            new[dst] = IntervalLattice.value_of(args[1], state, seeds)
        elif op in _ALU_OPS:
            new[dst] = _alu(op,
                            IntervalLattice.value_of(args[1], state, seeds),
                            IntervalLattice.value_of(args[2], state, seeds))
        elif op in (Op.HASH, Op.CRC):
            new[dst] = Interval(0, _HASH_MAX)
        elif op in (Op.LOAD, Op.LOADD):
            new[dst] = Interval(0, _WORD_MAX)
        elif op is Op.HLOAD:
            ref = args[1]
            new[dst] = seeds.header_field(ref[1], ref[2])
        elif op is Op.MLOAD:
            new[dst] = seeds.meta_key(args[1][1])
        else:
            # resolve (address tuples) and anything unforeseen.
            new[dst] = ANY
        return new


# ---------------------------------------------------------------------------
# Branch-edge refinement
# ---------------------------------------------------------------------------


def _refined(state: Dict[str, Any], updates: Dict[str, Interval]
             ) -> Dict[str, Any]:
    new = dict(state)
    new.update(updates)
    return new


def refine_branch(
    source: BasicBlock,
    target_bid: int,
    state: Dict[str, Any],
    seeds: RangeSeeds,
) -> Optional[Dict[str, Any]]:
    """Refine ``source``'s out-state along the edge to ``target_bid``.

    Returns None when the analysis proves the edge infeasible. Only
    operands already known integral (mapped to an :class:`Interval`)
    are ever refined: promoting an ANY value from an equality test
    would be unsound under Python's cross-type equality (``1.0 == 1``).
    """
    term = source.terminator
    if term is None or term.op not in BRANCH_OPS:
        return state
    taken, fallthrough = source.taken, source.fallthrough
    if taken == fallthrough:
        return state  # Both outcomes land here: nothing learned.
    if target_bid == taken:
        truth = True
    elif target_bid == fallthrough:
        truth = False
    else:
        return state

    a_op, b_op = term.args[0], term.args[1]
    a = IntervalLattice.value_of(a_op, state, seeds)
    b = IntervalLattice.value_of(b_op, state, seeds)
    ia, ib = to_interval(a), to_interval(b)
    op = term.op

    # Normalize to one of: eq / ne / lt (a < b) / ge (a >= b).
    if op is Op.BEQ:
        kind = "eq" if truth else "ne"
    elif op is Op.BNE:
        kind = "ne" if truth else "eq"
    elif op is Op.BLT:
        kind = "lt" if truth else "ge"
    else:  # BGE
        kind = "ge" if truth else "lt"

    updates: Dict[str, Interval] = {}

    def narrow_to(operand: Any, value: Optional[Interval], new: Optional[Interval]
                  ) -> bool:
        """Record a refinement; False when the edge became infeasible."""
        if new is None:
            return False
        if register_bit(operand) and value is not None and new != value:
            updates[operand] = new
        return True

    if kind == "eq":
        if ia is not None and ib is not None:
            both = ia.meet(ib)
            if not narrow_to(a_op, ia, both) or not narrow_to(b_op, ib, both):
                return None
    elif kind == "ne":
        if ia is not None and ib is not None and ib.is_constant:
            if not narrow_to(a_op, ia, _shave(ia, ib.lo)):
                return None
        if ib is not None and ia is not None and ia.is_constant:
            if not narrow_to(b_op, ib, _shave(ib, ia.lo)):
                return None
    elif kind == "lt":
        if ia is not None and ib is not None:
            new_a = ia.meet(Interval(None, None if ib.hi is None
                                     else ib.hi - 1))
            new_b = ib.meet(Interval(None if ia.lo is None
                                     else ia.lo + 1, None))
            if not narrow_to(a_op, ia, new_a) or not narrow_to(b_op, ib, new_b):
                return None
    else:  # ge: a >= b
        if ia is not None and ib is not None:
            new_a = ia.meet(Interval(ib.lo, None))
            new_b = ib.meet(Interval(None, ia.hi))
            if not narrow_to(a_op, ia, new_a) or not narrow_to(b_op, ib, new_b):
                return None

    return _refined(state, updates) if updates else state


def _shave(iv: Interval, c: Optional[int]) -> Optional[Interval]:
    """Exclude a single known value from an interval's endpoints."""
    if c is None:
        return iv
    lo, hi = iv.lo, iv.hi
    if lo is not None and lo == c:
        lo = lo + 1
    if hi is not None and hi == c:
        hi = hi - 1
    if lo is not None and hi is not None and lo > hi:
        return None
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# The dataflow problem and its driver
# ---------------------------------------------------------------------------


class _IntervalProblem(DataflowProblem):
    direction = FORWARD
    widen_after = 3

    def __init__(self, entry_state: Dict[str, Any], seeds: RangeSeeds,
                 defs: List[int]) -> None:
        self.entry_state = entry_state
        self.seeds = seeds
        self.defs = defs

    def boundary(self, cfg: CFG, block: BasicBlock):
        return self.entry_state if block.bid == cfg.entry else None

    def meet(self, a, b):
        return IntervalLattice.meet(a, b)

    def transfer(self, cfg: CFG, block: BasicBlock, state):
        for index, instruction in block.instructions:
            state = IntervalLattice.evaluate(instruction, self.defs[index],
                                             state, self.seeds)
        return state

    def widen(self, old, new):
        return {reg: widen_values(old[reg], new[reg]) for reg in old}

    def edge(self, cfg: CFG, source: BasicBlock, target_bid: int, state):
        return refine_branch(source, target_bid, state, self.seeds)


@dataclass
class IntervalStates:
    """Interval-analysis fixpoint for one function."""

    cfg: CFG
    result: DataflowResult
    seeds: RangeSeeds
    #: Body index -> state *before* that instruction (reachable only).
    instr_in: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def before(self, index: int) -> Optional[Dict[str, Any]]:
        return self.instr_in.get(index)

    def value_before(self, index: int, operand: Any) -> Any:
        """Abstract value of ``operand`` just before ``index`` (or ANY)."""
        state = self.instr_in.get(index)
        if state is None:
            return ANY
        return IntervalLattice.value_of(operand, state, self.seeds)

    def range_before(self, index: int, operand: Any) -> Optional[Interval]:
        """Proven interval of ``operand`` before ``index``, or None."""
        return to_interval(self.value_before(index, operand))

    def point_before(self, index: int, operand: Any) -> Optional[int]:
        """``operand``'s value before ``index`` when its interval is a
        point (exactly the interpreter's value), else None."""
        interval = self.range_before(index, operand)
        if interval is None or not interval.is_constant:
            return None
        return interval.lo


def interval_states(
    function: Function,
    entry_state: Optional[Dict[str, Any]] = None,
    program: Optional[LambdaProgram] = None,
    seeds: Optional[RangeSeeds] = None,
    meta_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
    trust_declared: bool = True,
) -> IntervalStates:
    """Interval analysis over one function.

    ``seeds`` (or ``program``, from which program-wide seeds are built)
    controls what ``hload``/``mload`` may be assumed to return; without
    either, a conservative function-local scan is used. ``entry_state``
    defaults to all-ANY, sound for any calling context.
    """
    cfg = function.decoded.cfg
    defs = cfg.defs
    if seeds is None:
        seeds = RangeSeeds.for_program(
            program, function=function, meta_ranges=meta_ranges,
            trust_declared=trust_declared,
        )
    entry = dict(entry_state) if entry_state is not None \
        else IntervalLattice.entry_state()
    problem = _IntervalProblem(entry, seeds, defs)
    result = solve(cfg, problem)

    # Narrowing: re-apply the exact (unwidened) equations a fixed number
    # of rounds in reverse postorder. Starting from a post-fixpoint this
    # stays above the least fixpoint (sound) while pulling the widened
    # infinities back to the branch-established bounds.
    blocks = cfg.blocks
    order = cfg.reverse_postorder()
    for _ in range(_NARROW_ROUNDS):
        for bid in order:
            block = blocks[bid]
            acc = problem.boundary(cfg, block)
            for src in block.preds:
                src_state = result.out_states.get(src)
                if src_state is None:
                    continue
                src_state = problem.edge(cfg, blocks[src], bid, src_state)
                if src_state is None:
                    continue
                acc = src_state if acc is None else problem.meet(acc, src_state)
            if acc is None:
                continue
            result.in_states[bid] = acc
            result.out_states[bid] = problem.transfer(cfg, block, acc)

    instr_in: Dict[int, Dict[str, Any]] = {}
    for block in blocks:
        state = result.before(block.bid)
        if state is None:
            continue
        for index, instruction in block.instructions:
            instr_in[index] = state
            state = IntervalLattice.evaluate(instruction, defs[index], state,
                                             seeds)
    return IntervalStates(cfg=cfg, result=result, seeds=seeds,
                          instr_in=instr_in)
