"""Optimisation passes of the workload manager (paper §5.1, Figure 9).

Passes operate on a :class:`~repro.compiler.unit.CompilationUnit` and
are applied in the paper's order:

1. **Lambda coalescing** — duplicate logic across lambdas (identical
   helper-function bodies) is hoisted into a shared library, with call
   sites rewritten. Includes dead-code elimination and code motion as
   enabling analyses.
2. **Match reduction** — per-lambda route tables are merged into one
   parameterised table, tables are converted to if-else sequences, and
   the parser is pruned to the headers lambdas actually use.
3. **Memory stratification** — objects are placed into LOCAL/CTM/IMEM/
   EMEM by size and access pattern, and flat-memory ``resolve``+access
   pairs collapse to direct accesses for close memories.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..isa import Function, Op, Region
from ..isa.analysis import (
    duplicate_functions,
    memory_access_profile,
    reachable_functions,
    unreachable_code,
)
from ..isa.instructions import REGION_CAPACITY_BYTES, Instruction, ins
from .unit import CompilationUnit

#: Placement thresholds (bytes). Derived from the Netronome memory
#: hierarchy: small/hot state belongs in core-local memory, per-request
#: working sets in the island's CTM, multi-packet payloads in IMEM, and
#: anything bigger (or cold) in EMEM — matching the paper's examples
#: (web results -> CTM, image buffers -> IMEM).
LOCAL_MAX_BYTES = 2048
CTM_MAX_BYTES = 128 * 1024
IMEM_MAX_BYTES = 4 * 1024 * 1024


def dead_code_elimination(unit: CompilationUnit) -> CompilationUnit:
    """Remove unreachable functions/instructions and unused objects."""
    for program in unit.lambdas.values():
        reachable = reachable_functions(program)
        for name in list(program.functions):
            if name not in reachable:
                del program.functions[name]
        for function in program.functions.values():
            dead = set(unreachable_code(function))
            if dead:
                function.body = [
                    instruction
                    for index, instruction in enumerate(function.body)
                    if index not in dead
                ]
        profile = memory_access_profile(program)
        for name in list(program.objects):
            if profile[name].total == 0:
                del program.objects[name]
    return unit


def lambda_coalescing(unit: CompilationUnit) -> CompilationUnit:
    """Hoist identical helper functions into a shared library.

    Runs dead-code elimination first (the paper folds DCE and code
    motion into this step). Only helpers that match *exactly* after
    label normalisation are merged — entry functions never are.
    """
    dead_code_elimination(unit)
    programs = list(unit.lambdas.values())
    groups = duplicate_functions(programs)
    counter = itertools.count(1)
    for signature, locations in sorted(
        groups.items(), key=lambda item: sorted(item[1])
    ):
        shared_name = f"lib.shared{next(counter)}"
        program_name, function_name = sorted(locations)[0]
        template = unit.lambdas[program_name].functions[function_name]
        unit.shared_functions[shared_name] = Function(
            shared_name, list(template.body)
        )
        for program_name, function_name in locations:
            program = unit.lambdas[program_name]
            del program.functions[function_name]
            for function in program.functions.values():
                function.body = [
                    ins(Op.CALL, shared_name)
                    if (instruction.op is Op.CALL
                        and instruction.args[0] == function_name)
                    else instruction
                    for instruction in function.body
                ]
    return unit


def match_reduction(unit: CompilationUnit) -> CompilationUnit:
    """Merge route tables, lower tables to if-else, prune the parser."""
    unit.merged_routes = True
    unit.if_else_tables = True
    unit.prune_parser = True
    return unit


def memory_stratification(
    unit: CompilationUnit,
    local_budget: int = REGION_CAPACITY_BYTES[Region.LOCAL],
    ctm_budget: int = REGION_CAPACITY_BYTES[Region.CTM],
) -> CompilationUnit:
    """Place objects into concrete memories and fold flat accesses.

    Placement policy (most- to least-preferred):

    * hot or loop-accessed objects up to ``LOCAL_MAX_BYTES`` -> LOCAL,
      while the per-core budget lasts;
    * objects up to ``CTM_MAX_BYTES`` -> CTM (island memory);
    * read-mostly objects up to ``IMEM_MAX_BYTES`` -> IMEM;
    * everything else -> EMEM.

    For LOCAL and CTM placements, the ``resolve``+``load/store`` pairs
    emitted by the flat-memory front-end collapse into single direct
    accesses (``loadd``/``stored``) — the instruction-count win in
    Figure 9 — and all placements change the per-access cycle cost.
    """
    local_left = local_budget
    ctm_left = ctm_budget
    for program in unit.lambdas.values():
        profile = memory_access_profile(program)
        ordered = sorted(
            program.objects.values(),
            key=lambda obj: (
                not (obj.hot or profile[obj.name].in_loop),
                obj.size_bytes,
            ),
        )
        direct_objects = set()
        for obj in ordered:
            hotness = obj.hot or profile[obj.name].in_loop
            if hotness and obj.size_bytes <= LOCAL_MAX_BYTES and \
                    obj.size_bytes <= local_left:
                obj.region = Region.LOCAL
                local_left -= obj.size_bytes
                direct_objects.add(obj.name)
            elif obj.size_bytes <= CTM_MAX_BYTES and obj.size_bytes <= ctm_left:
                obj.region = Region.CTM
                ctm_left -= obj.size_bytes
                direct_objects.add(obj.name)
            elif obj.size_bytes <= IMEM_MAX_BYTES and \
                    profile[obj.name].writes <= profile[obj.name].reads:
                obj.region = Region.IMEM
            else:
                obj.region = Region.EMEM
        for function in program.functions.values():
            function.body = _fold_direct_accesses(function.body, direct_objects)
    return unit


def _fold_direct_accesses(
    body: List[Instruction], direct_objects: set
) -> List[Instruction]:
    """Peephole: resolve+load -> loadd, resolve+store -> stored.

    Returns ``body`` itself when nothing folds.
    """
    folded: List[Instruction] = []
    index = 0
    while index < len(body):
        instruction = body[index]
        nxt = body[index + 1] if index + 1 < len(body) else None
        if (
            instruction.op is Op.RESOLVE
            and nxt is not None
            and isinstance(instruction.args[1], tuple)
            and instruction.args[1][1] in direct_objects
        ):
            memref = instruction.args[1]
            if nxt.op is Op.LOAD and nxt.args[-1] == memref:
                folded.append(ins(Op.LOADD, nxt.args[0], memref))
                index += 2
                continue
            if nxt.op is Op.STORE and nxt.args[-2] == memref:
                folded.append(ins(Op.STORED, memref, nxt.args[-1]))
                index += 2
                continue
        folded.append(instruction)
        index += 1
    return folded if len(folded) < len(body) else body


def dead_store_elimination(unit: CompilationUnit) -> CompilationUnit:
    """Delete register writes whose values are provably never read.

    Liveness is solved on the *composed* firmware (where every exit
    ends the machine, so nothing is live at the end) and the findings
    are mapped back into the unit's lambda and shared-function bodies.
    Only side-effect-free writes (:data:`~repro.isa.verify.PURE_DEF_OPS`)
    are deleted. A chain of dead writes inside one block goes in one
    round; removal can still expose dead stores in other blocks, so the
    pass iterates to a fixpoint. The last round's firmware and liveness
    are left in ``unit.built`` for ``compile_unit`` to verify.
    """
    from ..isa.verify import InterproceduralLiveness, dead_stores
    from .unit import SEP

    def locate(firmware_name: str):
        """Map a composed-function name back to the unit's Function."""
        if firmware_name in unit.shared_functions:
            return unit.shared_functions[firmware_name]
        if firmware_name in unit.lambdas:
            program = unit.lambdas[firmware_name]
            return program.functions[program.entry]
        lambda_name, _, inner = firmware_name.partition(SEP)
        program = unit.lambdas.get(lambda_name)
        if program is not None:
            return program.functions.get(inner)
        return None  # Generated parse/dispatch code; rebuilt every time.

    while True:
        firmware = unit.build_program()
        liveness = InterproceduralLiveness(firmware,
                                           entry_exit_live=frozenset())
        found = dead_stores(firmware, liveness=liveness, removable_only=True)
        removals: Dict[int, Tuple[Function, set]] = {}
        for name, index, _reg in found:
            function = locate(name)
            if function is not None:
                removals.setdefault(id(function), (function, set()))[1].add(index)
        if not removals:
            unit.built = (firmware, liveness)
            return unit
        for function, dead in removals.values():
            function.body = [
                instruction
                for index, instruction in enumerate(function.body)
                if index not in dead
            ]


#: The paper's pass order, as (stage label, pass callable).
STANDARD_PASSES: List[Tuple[str, object]] = [
    ("Lambda Coalescing", lambda_coalescing),
    ("Match Reduction", match_reduction),
    ("Memory Stratification", memory_stratification),
]

#: The standard pipeline plus the verifier-powered dead-store pass. This
#: is ``compile_unit``'s default; ``FIG9_EXTENDED`` in
#: ``repro.experiments.calibration`` pins its per-stage counts, and the
#: first four stages are the paper's Figure-9 series.
EXTENDED_PASSES: List[Tuple[str, object]] = STANDARD_PASSES + [
    ("Dead Store Elimination", dead_store_elimination),
]
