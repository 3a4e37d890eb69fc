"""Per-function control-flow graphs over the lambda IR.

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
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..instructions import Instruction, Op
from ..program import Function

#: Conditional branch opcodes (taken + fallthrough successors).
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})

#: Opcodes after which control never falls through.
TERMINATOR_OPS = frozenset({Op.RET, Op.HALT, Op.FORWARD, Op.DROP, Op.TO_HOST})

#: Terminators that end the *entire* execution (machine state dies with
#: them) as opposed to returning to a caller.
MACHINE_TERMINATOR_OPS = frozenset({Op.HALT, Op.FORWARD, Op.DROP, Op.TO_HOST})


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

    def __init__(self, function: Function, blocks: List[BasicBlock]) -> None:
        self.function = function
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


def _branch_target_indices(function: Function) -> Dict[int, str]:
    """Body index of each branch/jmp -> label name it targets."""
    targets: Dict[int, str] = {}
    for index, instruction in enumerate(function.body):
        if instruction.op is Op.JMP or instruction.op in BRANCH_OPS:
            targets[index] = instruction.args[-1]
    return targets


def build_cfg(function: Function) -> CFG:
    """Construct the CFG of ``function``.

    Branches to labels that do not exist get no edge (the program is
    invalid; :meth:`~repro.isa.program.LambdaProgram.validate` reports
    it — the CFG stays well-defined so the verifier can keep going).
    """
    body = function.body
    labels = function.labels()
    branch_sites = _branch_target_indices(function)

    leaders: Set[int] = {0} if body else set()
    for index, label in branch_sites.items():
        target = labels.get(label)
        if target is not None:
            leaders.add(target)
        leaders.add(index + 1)
    for index, instruction in enumerate(body):
        if instruction.op in TERMINATOR_OPS:
            leaders.add(index + 1)
    leaders = {index for index in leaders if index < len(body)}

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    for bid, start in enumerate(ordered):
        end = ordered[bid + 1] if bid + 1 < len(ordered) else len(body)
        block = BasicBlock(bid=bid, start=start, end=end)
        block.instructions = [
            (index, body[index])
            for index in range(start, end)
            if body[index].op is not Op.LABEL
        ]
        blocks.append(block)

    cfg = CFG(function, blocks)

    for block in blocks:
        term = block.terminator
        fallthrough = block.bid + 1 if block.bid + 1 < len(blocks) else None
        if term is None:  # label-only (or empty) block
            if fallthrough is not None:
                block.succs.append(fallthrough)
            continue
        op = term.op
        if op is Op.JMP:
            target = labels.get(term.args[-1])
            if target is not None:
                block.succs.append(cfg.block_at[target])
        elif op in BRANCH_OPS:
            target = labels.get(term.args[-1])
            if target is not None:
                block.taken = cfg.block_at[target]
                block.succs.append(block.taken)
            block.fallthrough = fallthrough
            if fallthrough is not None and fallthrough not in block.succs:
                block.succs.append(fallthrough)
        elif op in TERMINATOR_OPS:
            pass
        elif fallthrough is not None:
            block.succs.append(fallthrough)

    for block in blocks:
        for succ in block.succs:
            blocks[succ].preds.append(block.bid)
    return cfg
