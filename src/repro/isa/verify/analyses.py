"""Concrete dataflow analyses over the lambda IR.

All analyses mirror the interpreter's exact semantics
(:mod:`repro.isa.interpreter`):

* the 16-register file is **shared across calls** (no save/restore), so
  liveness and initialization are interprocedural — callers pass
  arguments in registers and callees leak writes back;
* ``ret value`` also writes ``r0``;
* packet terminators (``forward``/``drop``/``to_host``) and ``halt``
  end the whole execution, so nothing is live after them;
* ``load``'s address-register operand is never read by the interpreter
  but is still treated as a use, so a ``resolve`` feeding it is not a
  dead store (the pair is one logical access).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..analysis import call_order
from ..program import LambdaProgram
from .cfg import (
    ALL_MASK,
    CALL,
    CFG,
    DEF,
    PURE,
    REGISTERS,
    BasicBlock,
    DecodedFunction,
    register_mask,
    register_names,
)
from .dataflow import BACKWARD, DataflowProblem, DataflowResult, FORWARD, solve

#: The NPU register file.
ALL_REGISTERS: FrozenSet[str] = frozenset(REGISTERS)


# ---------------------------------------------------------------------------
# Interprocedural liveness
# ---------------------------------------------------------------------------


class _LivenessProblem(DataflowProblem):
    """Backward may-live analysis for one function, over register masks.

    ``exit_live`` is the caller-side live set after this function
    returns; machine-terminated exit blocks contribute nothing (the
    register file dies with the packet verdict).
    """

    direction = BACKWARD

    def __init__(self, decoded: DecodedFunction, exit_live: int,
                 call_uses: Dict[str, int]) -> None:
        self.steps = decoded.steps
        self.exit_live = exit_live
        self.call_uses = call_uses

    def boundary(self, cfg: CFG, block: BasicBlock) -> Optional[int]:
        if block.succs:
            return None
        return 0 if block.ends_machine else self.exit_live

    def meet(self, a: int, b: int) -> int:
        return a | b

    def transfer(self, cfg: CFG, block: BasicBlock, live: int) -> int:
        for gen, kill, callee in self.steps[block.bid]:
            if callee is None:
                live = gen | (live & ~kill)
            else:
                # The callee may read its summary registers; it may also
                # write registers, but killing would need a must-write
                # guarantee, so be conservative and kill nothing.
                live |= self.call_uses.get(callee, ALL_MASK)
        return live


class InterproceduralLiveness:
    """Whole-program liveness over the shared register file.

    ``entry_exit_live`` is the live set assumed after the entry function
    returns. The default ``ALL_REGISTERS`` is the safe assumption for a
    program fragment that will be composed into larger firmware (its
    caller may read anything); pass ``frozenset()`` for a standalone
    whole program. Live sets are register masks.
    """

    def __init__(
        self,
        program: LambdaProgram,
        entry: Optional[str] = None,
        entry_exit_live: FrozenSet[str] = ALL_REGISTERS,
    ) -> None:
        self.program = program
        self.entry = entry or program.entry
        self.entry_exit_live = entry_exit_live
        self.decoded: Dict[str, DecodedFunction] = {
            name: function.decoded
            for name, function in program.functions.items()
        }
        #: Registers a call to each function may read before writing.
        self.uses_summary: Dict[str, int] = {}
        #: Caller-side live set after each function returns.
        self.exit_live: Dict[str, int] = {}
        self._results: Dict[str, DataflowResult] = {}
        self._compute()

    # -- fixpoints ---------------------------------------------------------

    def _solve_function(self, name: str, exit_live: int) -> DataflowResult:
        decoded = self.decoded[name]
        problem = _LivenessProblem(decoded, exit_live, self.uses_summary)
        return solve(decoded.cfg, problem)

    def _compute(self) -> None:
        names = list(self.program.functions)
        # Phase 1: may-use summaries (live-in at entry with empty exit),
        # least fixpoint from below.
        self.uses_summary = {name: 0 for name in names}
        changed = True
        while changed:
            changed = False
            for name in names:
                result = self._solve_function(name, 0)
                live_in = result.before(self.decoded[name].cfg.entry) or 0
                if live_in != self.uses_summary[name]:
                    self.uses_summary[name] = live_in
                    changed = True

        # Phase 2: exit-live sets, least fixpoint from below; the entry
        # function's comes from the caller assumption. The last pass
        # changes nothing, so its solutions are the final ones.
        self.exit_live = {name: 0 for name in names}
        self.exit_live[self.entry] = register_mask(self.entry_exit_live)
        changed = True
        while changed:
            changed = False
            for name in names:
                result = self._results[name] = self._solve_function(
                    name, self.exit_live[name])
                for callee, live_after in self._call_site_live(name, result):
                    if callee not in self.exit_live:
                        continue
                    merged = self.exit_live[callee] | live_after
                    if merged != self.exit_live[callee]:
                        self.exit_live[callee] = merged
                        changed = True

    def _call_site_live(
        self, name: str, result: DataflowResult
    ) -> Iterator[Tuple[str, int]]:
        """(callee, live-after-call) for each call site in ``name``."""
        for bid, steps in enumerate(self.decoded[name].steps):
            live = result.after(bid)
            if live is None:
                continue  # Unreachable block.
            for gen, kill, callee in steps:
                if callee is None:
                    live = gen | (live & ~kill)
                else:
                    yield callee, live
                    live |= self.uses_summary.get(callee, ALL_MASK)

    def _step(self, decoded: DecodedFunction, index: int, live: int) -> int:
        """Live set before instruction ``index`` given the set after it."""
        if decoded.kinds[index] & CALL:
            callee = decoded.body[index].args[0]
            return live | self.uses_summary.get(callee, ALL_MASK)
        return decoded.uses[index] | (live & ~decoded.defs[index])

    def dead_writes(self, name: str, exempt: int = 0,
                    removable_only: bool = False) -> List[Tuple[str, int, str]]:
        """``(name, index, register)`` for writes in ``name`` whose value
        is never read, in body order.

        Each block is walked backward from its live-out set. With
        ``removable_only`` only :data:`PURE_DEF_OPS` writes count, and a
        write found dead reads nothing from then on (it will be
        deleted), so a chain of writes that only feed each other inside
        a block goes in one elimination round instead of one per link.
        """
        decoded = self.decoded[name]
        result = self._results[name]
        wanted = PURE if removable_only else DEF
        found: List[Tuple[str, int, str]] = []
        for block in decoded.cfg.blocks:
            live = result.after(block.bid)
            if live is None:
                continue  # Unreachable; reported separately.
            dead: List[Tuple[str, int, str]] = []
            for index, _ in reversed(block.instructions):
                defs = decoded.defs[index]
                if decoded.kinds[index] & wanted and defs \
                        and not defs & (live | exempt):
                    dead.append((name, index, REGISTERS[defs.bit_length() - 1]))
                    if removable_only:
                        continue
                live = self._step(decoded, index, live)
            found.extend(reversed(dead))
        return found


def dead_stores(
    program: LambdaProgram,
    liveness: Optional[InterproceduralLiveness] = None,
    entry: Optional[str] = None,
    entry_exit_live: FrozenSet[str] = ALL_REGISTERS,
    scratch: FrozenSet[str] = frozenset(),
    removable_only: bool = False,
) -> List[Tuple[str, int, str]]:
    """``(function, index, register)`` for defs whose value is never read.

    ``scratch`` registers (declared via ``LambdaProgram.scratch_registers``)
    are exempt — they hold values the author has promised nobody reads.
    With ``removable_only`` the list is what dead-store elimination may
    delete at once (see :meth:`InterproceduralLiveness.dead_writes`);
    otherwise all register-writing ops are linted, including loads whose
    result is unused.
    """
    if liveness is None:
        liveness = InterproceduralLiveness(
            program, entry=entry, entry_exit_live=entry_exit_live
        )
    exempt = register_mask(scratch)
    return [found for name in program.functions
            for found in liveness.dead_writes(name, exempt, removable_only)]


# ---------------------------------------------------------------------------
# Definite initialization (uninitialized-read detection)
# ---------------------------------------------------------------------------


class _InitProblem(DataflowProblem):
    """Forward must-initialized analysis over register masks (meet =
    intersection). A block's writes are a union, so their order within
    the block does not matter."""

    direction = FORWARD

    def __init__(self, decoded: DecodedFunction, entry_init: int,
                 writes_summary: Dict[str, int]) -> None:
        self.steps = decoded.steps
        self.entry_init = entry_init
        self.writes_summary = writes_summary

    def boundary(self, cfg: CFG, block: BasicBlock) -> Optional[int]:
        return self.entry_init if block.bid == cfg.entry else None

    def meet(self, a: int, b: int) -> int:
        return a & b

    def transfer(self, cfg: CFG, block: BasicBlock, init: int) -> int:
        for _, kill, callee in self.steps[block.bid]:
            init |= kill if callee is None \
                else self.writes_summary.get(callee, 0)
        return init


def _must_write_summaries(
    decoded: Dict[str, DecodedFunction]
) -> Dict[str, int]:
    """Registers each function writes on *every* returning path.

    Machine-terminated paths never return to the caller, so they do not
    constrain the summary; a function that always ends the machine
    trivially "writes everything" as far as its caller's continuation
    is concerned. Greatest fixpoint, iterated downward.
    """
    summaries: Dict[str, int] = {name: ALL_MASK for name in decoded}
    changed = True
    while changed:
        changed = False
        for name, function in decoded.items():
            cfg = function.cfg
            result = solve(cfg, _InitProblem(function, 0, summaries))
            summary = ALL_MASK
            for block in cfg.exit_blocks():
                state = result.after(block.bid)
                if state is not None and not block.ends_machine:
                    summary &= state
            if summary != summaries[name]:
                summaries[name] = summary
                changed = True
    return summaries


def uninitialized_reads(
    program: LambdaProgram,
    entry: Optional[str] = None,
    scratch: FrozenSet[str] = frozenset(),
) -> List[Tuple[str, int, str]]:
    """``(function, index, register)`` reads of never-written registers.

    The simulator's :class:`~repro.isa.interpreter.Machine` zero-fills
    the register file, so these reads are deterministic at runtime — but
    relying on implicit zeros is exactly the class of bug an
    eBPF-grade verifier rejects (on the real NPU the register file holds
    whatever the previous packet left there). Helper functions inherit
    the intersection of their call sites' initialized sets.
    """
    entry = entry or program.entry
    decoded = {
        name: function.decoded for name, function in program.functions.items()
    }
    writes = _must_write_summaries(decoded)
    exempt = register_mask(scratch)

    # Interprocedural entry states: greatest fixpoint, iterated downward
    # from "everything initialized" for helpers; the program entry
    # starts cold. The last pass changes nothing: its solutions stand.
    entry_init: Dict[str, int] = {name: ALL_MASK for name in decoded}
    if entry in entry_init:
        entry_init[entry] = 0
    # Callers before callees, so one pass carries each narrowing down.
    reachable = call_order(program, entry)
    results: Dict[str, DataflowResult] = {}
    changed = True
    while changed:
        changed = False
        for name in reachable:
            function = decoded[name]
            result = results[name] = solve(
                function.cfg, _InitProblem(function, entry_init[name], writes))
            for index, init_at_call in _init_before(function, result, writes):
                if not function.kinds[index] & CALL:
                    continue
                callee = function.body[index].args[0]
                if callee not in entry_init or callee == entry:
                    continue
                narrowed = entry_init[callee] & init_at_call
                if narrowed != entry_init[callee]:
                    entry_init[callee] = narrowed
                    changed = True

    found: List[Tuple[str, int, str]] = []
    for name in sorted(reachable):
        function = decoded[name]
        for index, init in _init_before(function, results[name], writes):
            missing = function.uses[index] & ~(init | exempt)
            found.extend((name, index, reg) for reg in register_names(missing))
    return found


def _init_before(
    decoded: DecodedFunction, result: DataflowResult, writes: Dict[str, int]
) -> Iterator[Tuple[int, int]]:
    """``(index, registers initialized before it)`` for each reachable
    instruction."""
    for block in decoded.cfg.blocks:
        init = result.before(block.bid)
        if init is None:
            continue
        for index, instruction in block.instructions:
            yield index, init
            if decoded.kinds[index] & CALL:
                init |= writes.get(instruction.args[0], 0)
            else:
                init |= decoded.defs[index]


def may_write_registers(program: LambdaProgram, name: str) -> int:
    """Mask of the registers a call to ``name`` may write (transitively)."""
    written = 0
    seen: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current not in program.functions:
            return ALL_MASK  # Unknown callee: assume anything.
        if current in seen:
            continue
        seen.add(current)
        decoded = program.functions[current].decoded
        for defs in decoded.defs:
            written |= defs
        stack.extend(decoded.callees())
    return written
