"""The decoded form of a function: register effects, op classes, CFG.

Validation, every analysis and the JIT read one :class:`DecodedFunction`
(``Function.decoded``) instead of decoding operands themselves.
Registers are bits of a 16-bit mask (``r0`` is bit 0). An instruction
*uses* its register operands and memory offsets, except a :data:`DEF`
op's destination, a branch's label and ``jmp``/``call``/``label`` names;
it *defines* its destination (``ret value``: ``r0``). A call's effects
come from interprocedural summaries.

A :class:`BasicBlock` covers a contiguous run of body indices. Block
boundaries (leaders) are: the function start, every branch/jump target,
and every instruction following a control transfer. ``LABEL`` pseudo
instructions belong to the block they start (or fall inside) but are
excluded from the block's instruction list — they cost nothing and
define nothing.

Edges:

* unconditional ``jmp`` — one edge to the target block;
* conditional branches (``beq``/``bne``/``blt``/``bge``) — taken edge
  plus fallthrough edge;
* terminators (``ret``, ``halt``, ``forward``, ``drop``, ``to_host``)
  — no successors (``ret`` returns to the caller; the packet ops end
  the whole execution);
* everything else — fallthrough.

``call`` is *not* a block boundary: control returns to the next
instruction, so for intraprocedural purposes it is a (summarised)
straight-line instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..instructions import Instruction, Op, is_mem_ref
from ..program import Function

#: The NPU register file, in mask-bit order.
REGISTERS: Tuple[str, ...] = tuple(f"r{i}" for i in range(16))
REGISTER_BITS: Dict[str, int] = {r: 1 << i for i, r in enumerate(REGISTERS)}
ALL_MASK = (1 << len(REGISTERS)) - 1

#: (name, bit) in name order (r0, r1, r10, ...), the order findings use.
_BITS_BY_NAME = sorted(REGISTER_BITS.items())

# Op classes, one table from opcode to what its operands mean. DEF: the
# first operand is the destination; PURE: writing it is the only effect
# (DSE may delete the op); BRANCH: conditional, label last;
# ENDS_MACHINE: halt and the packet verdicts; NAMES: operands are label
# or function names, never registers.
DEF, PURE, BRANCH, JUMP, CALL, LABEL, RETURN, ENDS_MACHINE = (
    1 << bit for bit in range(8))
NAMES = JUMP | CALL | LABEL
TERMINATOR = RETURN | ENDS_MACHINE

OP_CLASS: Dict[Op, int] = {op: 0 for op in Op}
OP_CLASS.update({Op(name): kind for kind, names in {
    DEF | PURE: "add sub mul and or xor shl shr mov min max resolve",
    DEF: "load loadd hload mload hash crc",
    BRANCH: "beq bne blt bge", JUMP: "jmp", CALL: "call", LABEL: "label",
    RETURN: "ret", ENDS_MACHINE: "halt forward drop to_host",
}.items() for name in names.split()})


def _ops(flag: int) -> frozenset:
    return frozenset(op for op, kind in OP_CLASS.items() if kind & flag)


#: Conditional branch opcodes (taken + fallthrough successors).
BRANCH_OPS = _ops(BRANCH)
#: Opcodes after which control never falls through.
TERMINATOR_OPS = _ops(TERMINATOR)
#: Terminators that end the *entire* execution (machine state dies with
#: them) as opposed to returning to a caller.
MACHINE_TERMINATOR_OPS = _ops(ENDS_MACHINE)
#: Register-writing opcodes with no side effects beyond the write — the
#: candidates dead-store elimination may delete outright.
PURE_DEF_OPS = _ops(PURE)


def register_bit(operand: Any) -> int:
    """The mask bit of a register operand; 0 for any other operand."""
    return REGISTER_BITS.get(operand, 0) if isinstance(operand, str) else 0


def operand_mask(operand: Any) -> int:
    """Registers an operand reads (a register or a memory offset)."""
    if is_mem_ref(operand):
        return operand_mask(operand[2])
    return register_bit(operand)


def register_mask(registers: Iterable[str]) -> int:
    return sum(REGISTER_BITS.get(name, 0) for name in set(registers))


def register_names(mask: int) -> List[str]:
    """The registers of ``mask`` in name order."""
    return [name for name, bit in _BITS_BY_NAME if mask & bit]


class DecodedFunction:
    """One function body, decoded once.

    ``kinds``, ``uses`` and ``defs`` are indexed by body position.
    ``references`` lists what validation checks, as ``(kind, name,
    index)`` in body order: kinds ``"call"``, ``"label"`` (a branch
    target) and ``"object"``. Those, ``kinds`` and ``labels`` are decoded
    at once; register effects, the CFG and liveness steps on first use.
    """

    def __init__(self, function: Function) -> None:
        # No back references (nor from the CFG): a dropped body is freed
        # at once, not by the cyclic collector; compiles drop thousands.
        self.name = function.name
        self.body = function.body
        self.kinds: List[int] = []
        #: Label name -> body index (a repeated label: the last one).
        self.labels: Dict[str, int] = {}
        self.references: List[Tuple[str, Any, int]] = []
        kinds, labels, references = self.kinds, self.labels, self.references
        for index, instruction in enumerate(self.body):
            args = instruction.args
            kind = OP_CLASS[instruction.op]
            kinds.append(kind)
            if kind & LABEL:
                labels[args[0]] = index
            elif kind & CALL:
                references.append(("call", args[0] if args else None, index))
            elif kind & (JUMP | BRANCH):
                references.append(("label", args[-1] if args else None,
                                   index))
            for operand in args:
                if isinstance(operand, tuple) and len(operand) == 3 \
                        and operand[0] == "mem":
                    references.append(("object", operand[1], index))

    @cached_property
    def uses(self) -> List[int]:
        return self._effects[0]

    @cached_property
    def defs(self) -> List[int]:
        return self._effects[1]

    @cached_property
    def _effects(self) -> Tuple[List[int], List[int]]:
        bits = REGISTER_BITS
        all_uses: List[int] = []
        all_defs: List[int] = []
        for instruction, kind in zip(self.body, self.kinds):
            args = instruction.args
            uses = defs = 0
            if not kind & NAMES:
                if kind & DEF and args:
                    defs = register_bit(args[0])
                    args = args[1:]
                elif kind & RETURN and args:
                    defs = 1  # r0
                for operand in args[:-1] if kind & BRANCH else args:
                    if operand.__class__ is str:
                        uses |= bits.get(operand, 0)
                    elif operand.__class__ is not int:
                        uses |= operand_mask(operand)
            all_uses.append(uses)
            all_defs.append(defs)
        return all_uses, all_defs

    @cached_property
    def cfg(self) -> "CFG":
        return _build_cfg(self)

    def callees(self) -> List[str]:
        """Call targets in body order."""
        return [name for kind, name, _ in self.references if kind == "call"]

    @cached_property
    def steps(self) -> List[List[Tuple[int, int, Optional[str]]]]:
        """Per block, backward liveness steps, last first: ``(gen, kill,
        None)`` per run of non-call instructions, ``(0, 0, callee)`` per
        call (whose effect is the callee's summary)."""
        blocks = []
        for block in self.cfg.blocks:
            steps: List[Tuple[int, int, Optional[str]]] = []
            for index, instruction in reversed(block.instructions):
                uses, defs = self.uses[index], self.defs[index]
                if self.kinds[index] & CALL:
                    steps.append((0, 0, instruction.args[0]))
                elif steps and steps[-1][2] is None:
                    gen, kill, _ = steps[-1]
                    steps[-1] = (uses | (gen & ~defs), kill | defs, None)
                else:
                    steps.append((uses, defs, None))
            blocks.append(steps)
        return blocks


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    bid: int
    #: Body-index range covered by this block: [start, end).
    start: int
    end: int
    #: ``(body_index, instruction)`` pairs, labels excluded.
    instructions: List[Tuple[int, Instruction]] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: Conditional branches only: the successor when the branch is
    #: taken and when it falls through (None where there is none).
    taken: Optional[int] = None
    fallthrough: Optional[int] = None

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's last real instruction (None for label-only blocks)."""
        return self.instructions[-1][1] if self.instructions else None

    @property
    def is_exit(self) -> bool:
        return not self.succs

    @property
    def ends_machine(self) -> bool:
        """True if the block ends the whole execution (not just a call)."""
        term = self.terminator
        return term is not None and term.op in MACHINE_TERMINATOR_OPS


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, decoded: DecodedFunction,
                 blocks: List[BasicBlock]) -> None:
        self.name = decoded.name
        #: The decoded op classes and defs, by body index.
        self.kinds, self.defs = decoded.kinds, decoded.defs
        self.blocks = blocks
        #: Body index -> id of the block covering it.
        self.block_at: Dict[int, int] = {}
        for block in blocks:
            for index in range(block.start, block.end):
                self.block_at[index] = block.bid

    @property
    def entry(self) -> int:
        return 0

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    def exit_blocks(self) -> List[BasicBlock]:
        return [block for block in self.blocks if block.is_exit]

    def reachable(self) -> Set[int]:
        """Block ids reachable from the entry."""
        if not self.blocks:
            return set()
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            stack.extend(self.blocks[bid].succs)
        return seen

    def postorder(self) -> List[int]:
        """DFS postorder over the reachable subgraph."""
        if not self.blocks:
            return []
        order: List[int] = []
        seen: Set[int] = set()
        # Iterative DFS with an explicit "children done" marker.
        stack: List[Tuple[int, bool]] = [(self.entry, False)]
        while stack:
            bid, done = stack.pop()
            if done:
                order.append(bid)
                continue
            if bid in seen:
                continue
            seen.add(bid)
            stack.append((bid, True))
            for succ in reversed(self.blocks[bid].succs):
                if succ not in seen:
                    stack.append((succ, False))
        return order

    def reverse_postorder(self) -> List[int]:
        return list(reversed(self.postorder()))

    def back_edges(self) -> List[Tuple[int, int]]:
        """``(source, target)`` edges that close a cycle (DFS ancestors).

        On the reducible CFGs the builder and compiler emit these are
        exactly the loop back edges.
        """
        edges: List[Tuple[int, int]] = []
        colour: Dict[int, int] = {}  # 0 unseen / 1 on stack / 2 done
        if not self.blocks:
            return edges
        stack: List[Tuple[int, bool]] = [(self.entry, False)]
        while stack:
            bid, done = stack.pop()
            if done:
                colour[bid] = 2
                continue
            if colour.get(bid):
                continue
            colour[bid] = 1
            stack.append((bid, True))
            for succ in self.blocks[bid].succs:
                state = colour.get(succ, 0)
                if state == 1:
                    edges.append((bid, succ))
                elif state == 0:
                    stack.append((succ, False))
        return edges

    def natural_loop(self, source: int, header: int) -> Set[int]:
        """Blocks of the natural loop for back edge ``source -> header``."""
        loop = {header, source}
        stack = [source]
        while stack:
            bid = stack.pop()
            if bid == header:
                continue
            for pred in self.blocks[bid].preds:
                if pred not in loop:
                    loop.add(pred)
                    stack.append(pred)
        return loop

    def is_acyclic(self) -> bool:
        return not self.back_edges()


def build_cfg(function: Function) -> CFG:
    """The CFG of ``function``'s current body (see :class:`DecodedFunction`)."""
    return function.decoded.cfg


def _build_cfg(decoded: DecodedFunction) -> CFG:
    """Construct the CFG of a decoded body.

    Branches to labels that do not exist get no edge (the program is
    invalid; :meth:`~repro.isa.program.LambdaProgram.validate` reports
    it — the CFG stays well-defined so the verifier can keep going).
    """
    body = decoded.body
    kinds = decoded.kinds
    labels = decoded.labels

    leaders: Set[int] = {0} if body else set()
    for index, kind in enumerate(kinds):
        if kind & (JUMP | BRANCH):
            target = labels.get(body[index].args[-1])
            if target is not None:
                leaders.add(target)
            leaders.add(index + 1)
        elif kind & TERMINATOR:
            leaders.add(index + 1)
    leaders.discard(len(body))

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    for bid, start in enumerate(ordered):
        end = ordered[bid + 1] if bid + 1 < len(ordered) else len(body)
        block = BasicBlock(bid=bid, start=start, end=end)
        block.instructions = [
            (index, body[index])
            for index in range(start, end)
            if not kinds[index] & LABEL
        ]
        blocks.append(block)

    cfg = CFG(decoded, blocks)

    for block in blocks:
        fallthrough = block.bid + 1 if block.bid + 1 < len(blocks) else None
        if not block.instructions:  # label-only (or empty) block
            if fallthrough is not None:
                block.succs.append(fallthrough)
            continue
        index, term = block.instructions[-1]
        kind = kinds[index]
        if kind & JUMP:
            target = labels.get(term.args[-1])
            if target is not None:
                block.succs.append(cfg.block_at[target])
        elif kind & BRANCH:
            target = labels.get(term.args[-1])
            if target is not None:
                block.taken = cfg.block_at[target]
                block.succs.append(block.taken)
            block.fallthrough = fallthrough
            if fallthrough is not None and fallthrough not in block.succs:
                block.succs.append(fallthrough)
        elif kind & TERMINATOR:
            pass
        elif fallthrough is not None:
            block.succs.append(fallthrough)

    for block in blocks:
        for succ in block.succs:
            blocks[succ].preds.append(block.bid)
    return cfg
