"""Static analyses over lambda programs.

These feed the workload manager's optimisations (paper §5.1):

* reachability (dead-code elimination),
* duplicate-function detection (lambda coalescing),
* memory-access analysis (memory stratification),
* header usage (automatic parser generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .instructions import WORD_ACCESS, Instruction, Op
from .program import AccessMode, Function, LambdaProgram


def reachable_functions(program: LambdaProgram,
                        entry: Optional[str] = None) -> Set[str]:
    """Function names reachable via calls from ``entry`` (default: the
    program's entry)."""
    return set(call_order(program, entry))


def call_order(program: LambdaProgram,
               entry: Optional[str] = None) -> List[str]:
    """The functions reachable from ``entry``, callers before callees:
    reverse postorder of a DFS of the call graph that takes each body's
    calls in body order. The order depends on nothing but the program.
    """
    order: List[str] = []
    seen: Set[str] = set()
    # Iterative DFS with an explicit "callees done" marker.
    stack: List[Tuple[str, bool]] = [(entry or program.entry, False)]
    while stack:
        name, done = stack.pop()
        if done:
            order.append(name)
            continue
        if name in seen or name not in program.functions:
            continue
        seen.add(name)
        stack.append((name, True))
        for callee in reversed(program.functions[name].decoded.callees()):
            if callee not in seen:
                stack.append((callee, False))
    order.reverse()
    return order


def unreachable_code(function: Function) -> List[int]:
    """Indices of instructions that can never execute.

    Built on the verifier's control-flow graph: an instruction is dead
    iff its basic block is unreachable from the function entry. Unlike
    the old linear scan, a label after an unconditional control
    transfer only resurrects the code that follows when something
    actually branches to it.
    """
    cfg = function.decoded.cfg
    live_blocks = cfg.reachable()
    dead: List[int] = []
    for block in cfg.blocks:
        if block.bid in live_blocks:
            continue
        dead.extend(index for index, _ in block.instructions)
    dead.sort()
    return dead


def function_signature(function: Function) -> Tuple:
    """A structural fingerprint: identical bodies hash identically."""
    return tuple(
        (instruction.op, instruction.args)
        for instruction in function.body
        if instruction.is_real
    )


def duplicate_functions(programs: List[LambdaProgram]) -> Dict[Tuple, List[Tuple[str, str]]]:
    """Group identical function bodies across programs.

    Returns ``{signature: [(program_name, function_name), ...]}`` with
    only groups of two or more retained — these are the candidates that
    lambda coalescing hoists into a shared library.
    """
    groups: Dict[Tuple, List[Tuple[str, str]]] = {}
    for program in programs:
        for function in program.functions.values():
            if function.name == program.entry:
                continue  # Entry points are dispatch targets; never merged.
            groups.setdefault(function_signature(function), []).append(
                (program.name, function.name)
            )
    return {sig: where for sig, where in groups.items() if len(where) > 1}


@dataclass
class ObjectAccess:
    """Observed access pattern of one memory object."""

    name: str
    reads: int = 0
    writes: int = 0
    in_loop: bool = False

    @property
    def mode(self) -> AccessMode:
        if self.reads and self.writes:
            return AccessMode.READ_WRITE
        if self.writes:
            return AccessMode.WRITE
        return AccessMode.READ

    @property
    def total(self) -> int:
        return self.reads + self.writes


def memory_access_profile(program: LambdaProgram) -> Dict[str, ObjectAccess]:
    """Static access counts per object, with loop detection.

    An access between a label and a backward jump to it is "in a loop"
    and weighted as hot by the stratification pass.
    """
    profile: Dict[str, ObjectAccess] = {
        name: ObjectAccess(name) for name in program.objects
    }

    for function in program.functions.values():
        loop_ranges = _loop_ranges(function)
        for index, instruction in enumerate(function.body):
            for obj, is_write in _object_operands(instruction):
                if obj not in profile:
                    continue
                access = profile[obj]
                if is_write:
                    access.writes += 1
                else:
                    access.reads += 1
                if any(start <= index <= end for start, end in loop_ranges):
                    access.in_loop = True
    return profile


def _loop_ranges(function: Function) -> List[Tuple[int, int]]:
    """``(label, jump)`` index pairs of the backward jumps."""
    labels = function.decoded.labels
    return [(labels[name], index)
            for kind, name, index in function.decoded.references
            if kind == "label" and name in labels and labels[name] < index]


def _object_operands(instruction: Instruction):
    """Yield (object_name, is_write) pairs for memory operands."""
    op = instruction.op
    if op in WORD_ACCESS:
        position, is_write = WORD_ACCESS[op]
        ref = instruction.args[position]
        if isinstance(ref, tuple) and ref[0] == "mem":
            yield ref[1], is_write
    elif op is Op.MEMCPY:
        yield instruction.args[0][1], True
        yield instruction.args[1][1], False
    elif op is Op.INTRINSIC:
        # Intrinsics name the objects they touch in their args by
        # convention: ("mem", name, 0) operands.
        for arg in instruction.args[1:]:
            if isinstance(arg, tuple) and len(arg) == 3 and arg[0] == "mem":
                yield arg[1], True


def headers_used(program: LambdaProgram) -> Set[str]:
    """Header types referenced anywhere in the program's instructions."""
    used: Set[str] = set(program.headers_used)
    for function in program.functions.values():
        for instruction in function.body:
            for arg in instruction.args:
                if isinstance(arg, tuple) and len(arg) == 3 and arg[0] == "hdr":
                    used.add(arg[1])
    return used
