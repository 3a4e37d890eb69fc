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

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..instructions import Instruction, Op, is_mem_ref, is_register
from ..program import LambdaProgram
from .cfg import BRANCH_OPS, CFG, BasicBlock, build_cfg
from .dataflow import BACKWARD, DataflowProblem, DataflowResult, FORWARD, solve

#: The NPU register file.
ALL_REGISTERS: FrozenSet[str] = frozenset(f"r{i}" for i in range(16))

#: Opcodes whose first operand is a register destination.
_DEF_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.MOV, Op.MIN, Op.MAX,
    Op.RESOLVE, Op.LOAD, Op.LOADD, Op.HLOAD, Op.MLOAD, Op.HASH, Op.CRC,
})

#: Opcodes whose operands are names (labels / functions), never registers.
_NAME_OPS = frozenset({Op.JMP, Op.CALL, Op.LABEL})

#: Register-writing opcodes with no side effects beyond the write — the
#: candidates dead-store elimination may delete outright.
PURE_DEF_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.MOV, Op.MIN, Op.MAX, Op.RESOLVE,
})


def _operand_registers(operand: Any) -> Iterator[str]:
    if is_register(operand):
        yield operand
    elif is_mem_ref(operand):
        yield from _operand_registers(operand[2])


def instruction_defs(instruction: Instruction) -> FrozenSet[str]:
    """Registers this instruction writes (CALL handled by summaries)."""
    op = instruction.op
    if op in _DEF_OPS and instruction.args and is_register(instruction.args[0]):
        return frozenset((instruction.args[0],))
    if op is Op.RET and instruction.args:
        return frozenset(("r0",))
    return frozenset()


def instruction_uses(instruction: Instruction) -> FrozenSet[str]:
    """Registers this instruction reads (CALL handled by summaries)."""
    op = instruction.op
    if op in _NAME_OPS:
        return frozenset()
    regs: List[str] = []
    for position, arg in enumerate(instruction.args):
        if position == 0 and op in _DEF_OPS:
            continue  # The destination slot.
        if op in BRANCH_OPS and position == len(instruction.args) - 1:
            continue  # The label operand.
        regs.extend(_operand_registers(arg))
    return frozenset(regs)


# ---------------------------------------------------------------------------
# Interprocedural liveness
# ---------------------------------------------------------------------------


class _LivenessProblem(DataflowProblem):
    """Backward may-live analysis for one function.

    ``exit_live`` is the caller-side live set after this function
    returns; machine-terminated exit blocks contribute nothing (the
    register file dies with the packet verdict).
    """

    direction = BACKWARD

    def __init__(self, exit_live: FrozenSet[str],
                 call_uses: Dict[str, FrozenSet[str]]) -> None:
        self.exit_live = exit_live
        self.call_uses = call_uses
        self._block_summary: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]] = {}

    def boundary(self, cfg: CFG, block: BasicBlock) -> Optional[FrozenSet[str]]:
        if not block.is_exit:
            return None
        if block.ends_machine:
            return frozenset()
        return self.exit_live

    def meet(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def _summary(self, block: BasicBlock) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        cached = self._block_summary.get(block.bid)
        if cached is not None:
            return cached
        gen: FrozenSet[str] = frozenset()
        kill: FrozenSet[str] = frozenset()
        for _, instruction in reversed(block.instructions):
            g, k = _liveness_effect(instruction, self.call_uses)
            gen = g | (gen - k)
            kill = kill | k
        self._block_summary[block.bid] = (gen, kill)
        return gen, kill

    def transfer(self, cfg: CFG, block: BasicBlock,
                 live_out: FrozenSet[str]) -> FrozenSet[str]:
        gen, kill = self._summary(block)
        return gen | (live_out - kill)


def _liveness_effect(
    instruction: Instruction, call_uses: Dict[str, FrozenSet[str]]
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(gen, kill) of one instruction for backward liveness."""
    if instruction.op is Op.CALL:
        # The callee may read its summary registers; it may also write
        # registers, but killing would need a must-write guarantee, so
        # be conservative and kill nothing.
        return call_uses.get(instruction.args[0], ALL_REGISTERS), frozenset()
    return instruction_uses(instruction), instruction_defs(instruction)


class InterproceduralLiveness:
    """Whole-program liveness over the shared register file.

    ``entry_exit_live`` is the live set assumed after the entry function
    returns. The default ``ALL_REGISTERS`` is the safe assumption for a
    program fragment that will be composed into larger firmware (its
    caller may read anything); pass ``frozenset()`` for a standalone
    whole program.
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
        self.cfgs: Dict[str, CFG] = {
            name: build_cfg(function)
            for name, function in program.functions.items()
        }
        #: Registers a call to each function may read before writing.
        self.uses_summary: Dict[str, FrozenSet[str]] = {}
        #: Caller-side live set after each function returns.
        self.exit_live: Dict[str, FrozenSet[str]] = {}
        self._results: Dict[str, DataflowResult] = {}
        self._live_maps: Dict[str, Dict[int, FrozenSet[str]]] = {}
        self._compute()

    # -- fixpoints ---------------------------------------------------------

    def _solve_function(self, name: str,
                        exit_live: FrozenSet[str]) -> DataflowResult:
        problem = _LivenessProblem(exit_live, self.uses_summary)
        return solve(self.cfgs[name], problem)

    def _compute(self) -> None:
        names = list(self.program.functions)
        # Phase 1: may-use summaries (live-in at entry with empty exit),
        # least fixpoint from below.
        self.uses_summary = {name: frozenset() for name in names}
        changed = True
        while changed:
            changed = False
            for name in names:
                result = self._solve_function(name, frozenset())
                live_in = result.before(self.cfgs[name].entry) or frozenset()
                if live_in != self.uses_summary[name]:
                    self.uses_summary[name] = live_in
                    changed = True

        # Phase 2: exit-live sets, least fixpoint from below; the entry
        # function's comes from the caller assumption.
        self.exit_live = {name: frozenset() for name in names}
        self.exit_live[self.entry] = self.entry_exit_live
        changed = True
        while changed:
            changed = False
            for name in names:
                result = self._solve_function(name, self.exit_live[name])
                for callee, live_after in self._call_site_live(name, result):
                    if callee not in self.exit_live:
                        continue
                    merged = self.exit_live[callee] | live_after
                    if merged != self.exit_live[callee]:
                        self.exit_live[callee] = merged
                        changed = True

        for name in names:
            self._results[name] = self._solve_function(
                name, self.exit_live[name]
            )

    def _call_site_live(
        self, name: str, result: DataflowResult
    ) -> Iterator[Tuple[str, FrozenSet[str]]]:
        """(callee, live-after-call) for each call site in ``name``."""
        cfg = self.cfgs[name]
        for block in cfg.blocks:
            live = result.after(block.bid)
            if live is None:
                continue  # Unreachable block.
            for index, instruction in reversed(block.instructions):
                if instruction.op is Op.CALL:
                    yield instruction.args[0], live
                gen, kill = _liveness_effect(instruction, self.uses_summary)
                live = gen | (live - kill)

    # -- queries -----------------------------------------------------------

    def result(self, name: str) -> DataflowResult:
        return self._results[name]

    def live_map(self, name: str) -> Dict[int, FrozenSet[str]]:
        """Body index -> registers live *after* that instruction.

        Indices of unreachable instructions are absent.
        """
        cached = self._live_maps.get(name)
        if cached is not None:
            return cached
        cfg = self.cfgs[name]
        result = self._results[name]
        live_after: Dict[int, FrozenSet[str]] = {}
        for block in cfg.blocks:
            live = result.after(block.bid)
            if live is None:
                continue
            for index, instruction in reversed(block.instructions):
                live_after[index] = live
                gen, kill = _liveness_effect(instruction, self.uses_summary)
                live = gen | (live - kill)
        self._live_maps[name] = live_after
        return live_after

    def live_after(self, name: str, index: int) -> FrozenSet[str]:
        return self.live_map(name).get(index, ALL_REGISTERS)


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
    delete at once (see :func:`_removable_stores`); otherwise all
    register-writing ops are linted, including loads whose result is
    unused.
    """
    if liveness is None:
        liveness = InterproceduralLiveness(
            program, entry=entry, entry_exit_live=entry_exit_live
        )
    found: List[Tuple[str, int, str]] = []
    for name, function in program.functions.items():
        if removable_only:
            found.extend(_removable_stores(liveness, name, scratch))
            continue
        live_after = liveness.live_map(name)
        for index, instruction in enumerate(function.body):
            if instruction.op not in _DEF_OPS:
                continue
            defs = instruction_defs(instruction)
            if not defs:
                continue
            live = live_after.get(index)
            if live is None:
                continue  # Unreachable; reported separately.
            for reg in sorted(defs):
                if reg not in live and reg not in scratch:
                    found.append((name, index, reg))
    return found


def _removable_stores(liveness: InterproceduralLiveness, name: str,
                      scratch: FrozenSet[str]) -> List[Tuple[str, int, str]]:
    """Dead :data:`PURE_DEF_OPS` writes in ``name``, found together.

    Each block is walked backward from its live-out set, and a write
    found dead reads nothing from then on (it will be deleted), so a
    chain of writes that only feed each other inside a block goes in
    one elimination round instead of one round per link.
    """
    cfg = liveness.cfgs[name]
    result = liveness.result(name)
    found: List[Tuple[str, int, str]] = []
    for block in cfg.blocks:
        live = result.after(block.bid)
        if live is None:
            continue  # Unreachable; reported separately.
        for index, instruction in reversed(block.instructions):
            defs = instruction_defs(instruction)
            if instruction.op in PURE_DEF_OPS and defs \
                    and not defs & (live | scratch):
                found.extend((name, index, reg) for reg in defs)
                continue
            gen, kill = _liveness_effect(instruction, liveness.uses_summary)
            live = gen | (live - kill)
    return found


# ---------------------------------------------------------------------------
# Definite initialization (uninitialized-read detection)
# ---------------------------------------------------------------------------


class _InitProblem(DataflowProblem):
    """Forward must-initialized analysis (meet = intersection)."""

    direction = FORWARD

    def __init__(self, entry_init: FrozenSet[str],
                 writes_summary: Dict[str, FrozenSet[str]]) -> None:
        self.entry_init = entry_init
        self.writes_summary = writes_summary

    def boundary(self, cfg: CFG, block: BasicBlock) -> Optional[FrozenSet[str]]:
        return self.entry_init if block.bid == cfg.entry else None

    def meet(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a & b

    def transfer(self, cfg: CFG, block: BasicBlock,
                 init: FrozenSet[str]) -> FrozenSet[str]:
        for _, instruction in block.instructions:
            init = init | _init_effect(instruction, self.writes_summary)
        return init


def _init_effect(instruction: Instruction,
                 writes_summary: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
    if instruction.op is Op.CALL:
        return writes_summary.get(instruction.args[0], frozenset())
    return instruction_defs(instruction)


def _must_write_summaries(
    program: LambdaProgram, cfgs: Dict[str, CFG]
) -> Dict[str, FrozenSet[str]]:
    """Registers each function writes on *every* returning path.

    Machine-terminated paths never return to the caller, so they do not
    constrain the summary; a function that always ends the machine
    trivially "writes everything" as far as its caller's continuation
    is concerned. Greatest fixpoint, iterated downward.
    """
    summaries: Dict[str, FrozenSet[str]] = {
        name: ALL_REGISTERS for name in program.functions
    }
    changed = True
    while changed:
        changed = False
        for name, cfg in cfgs.items():
            problem = _InitProblem(frozenset(), summaries)
            result = solve(cfg, problem)
            returning: List[FrozenSet[str]] = []
            for block in cfg.exit_blocks():
                state = result.after(block.bid)
                if state is None or block.ends_machine:
                    continue
                returning.append(state)
            summary = ALL_REGISTERS if not returning else \
                frozenset.intersection(*returning)
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
    cfgs = {
        name: build_cfg(function)
        for name, function in program.functions.items()
    }
    writes = _must_write_summaries(program, cfgs)

    # Interprocedural entry states: greatest fixpoint, iterated downward
    # from "everything initialized" for helpers; the program entry
    # starts cold.
    entry_init: Dict[str, FrozenSet[str]] = {
        name: ALL_REGISTERS for name in program.functions
    }
    if entry in entry_init:
        entry_init[entry] = frozenset()
    reachable = _reachable_from(program, entry)
    changed = True
    while changed:
        changed = False
        for name in reachable:
            cfg = cfgs.get(name)
            if cfg is None:
                continue
            problem = _InitProblem(entry_init[name], writes)
            result = solve(cfg, problem)
            for callee, init_at_call in _call_site_init(cfg, result, writes):
                if callee not in entry_init or callee == entry:
                    continue
                narrowed = entry_init[callee] & init_at_call
                if narrowed != entry_init[callee]:
                    entry_init[callee] = narrowed
                    changed = True

    found: List[Tuple[str, int, str]] = []
    for name in sorted(reachable):
        cfg = cfgs.get(name)
        if cfg is None:
            continue
        problem = _InitProblem(entry_init[name], writes)
        result = solve(cfg, problem)
        for block in cfg.blocks:
            init = result.before(block.bid)
            if init is None:
                continue
            for index, instruction in block.instructions:
                for reg in sorted(instruction_uses(instruction)):
                    if reg not in init and reg not in scratch:
                        found.append((name, index, reg))
                init = init | _init_effect(instruction, writes)
    return found


def _call_site_init(
    cfg: CFG, result: DataflowResult, writes: Dict[str, FrozenSet[str]]
) -> Iterator[Tuple[str, FrozenSet[str]]]:
    for block in cfg.blocks:
        init = result.before(block.bid)
        if init is None:
            continue
        for _, instruction in block.instructions:
            if instruction.op is Op.CALL:
                yield instruction.args[0], init
            init = init | _init_effect(instruction, writes)


def _reachable_from(program: LambdaProgram, entry: str) -> Set[str]:
    seen: Set[str] = set()
    stack = [entry]
    while stack:
        name = stack.pop()
        if name in seen or name not in program.functions:
            continue
        seen.add(name)
        stack.extend(program.functions[name].called_functions())
    return seen


def may_write_registers(program: LambdaProgram, name: str) -> FrozenSet[str]:
    """Registers a call to ``name`` may write (transitively)."""
    written: Set[str] = set()
    seen: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in seen or current not in program.functions:
            if current not in program.functions:
                return ALL_REGISTERS  # Unknown callee: assume anything.
            continue
        seen.add(current)
        function = program.functions[current]
        for instruction in function.body:
            written |= instruction_defs(instruction)
            if instruction.op is Op.CALL:
                stack.append(instruction.args[0])
    return frozenset(written)
