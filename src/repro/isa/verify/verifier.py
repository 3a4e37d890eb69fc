"""The top-level program verifier (the λ-NIC analogue of the eBPF
verifier): every analysis in this package, run over one program and
folded into a single :class:`~.report.VerifierReport`.

``verify_program`` is what the compiler's resource check, the serverless
admission layer, and the ``python -m repro.isa.verify`` lint CLI all
call. Error-grade findings make a program unloadable; warnings are
lint-grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from ..analysis import reachable_functions
from ..instructions import Op
from ..program import LambdaProgram
from .analyses import (
    ALL_REGISTERS,
    InterproceduralLiveness,
    dead_stores,
    uninitialized_reads,
)
from .intervals import IntervalStates, RangeSeeds, interval_states
from .memcheck import check_memory, region_footprint
from .report import Finding, Severity, VerifierReport
from .wcet import estimate_wcet

#: Netronome Agilio CX instruction-store limit from the paper's testbed
#: (§6.1.2): 16 K instructions per core. Canonical here; the compiler's
#: resource check imports it.
MAX_INSTRUCTIONS_PER_CORE = 16 * 1024


@dataclass
class VerifyOptions:
    """Knobs for :func:`verify_program`.

    Verification always starts at the program's declared entry, exempts
    its declared ``scratch_registers`` from the dead-store and
    uninitialized-read findings, and runs every analysis.
    """

    #: Registers assumed live after the entry function returns.
    #: ``ALL_REGISTERS`` is the safe default for a fragment that will be
    #: composed into larger firmware; a standalone whole program (whose
    #: exits all end the machine) is unaffected by this value.
    entry_exit_live: FrozenSet[str] = ALL_REGISTERS
    max_instructions: int = MAX_INSTRUCTIONS_PER_CORE


def verify_program(
    program: LambdaProgram,
    options: Optional[VerifyOptions] = None,
    liveness: Optional[InterproceduralLiveness] = None,
) -> VerifierReport:
    """Statically verify ``program`` and return the full report.

    The dead-store lint reads ``liveness`` if given: one already solved
    for this program, entry and ``entry_exit_live``.
    """
    options = options or VerifyOptions()
    entry = program.entry
    expected = (program, entry, options.entry_exit_live)
    if liveness is not None and expected != (
            liveness.program, liveness.entry, liveness.entry_exit_live):
        raise ValueError("liveness was solved for other assumptions")
    scratch = frozenset(getattr(program, "scratch_registers", ()) or ())

    report = VerifierReport(
        program=program.name,
        instruction_count=program.instruction_count,
        code_bytes=program.code_bytes,
        data_bytes=program.data_bytes,
        region_footprint=region_footprint(program),
    )
    findings = report.findings

    # 1. Structural validation (undefined calls/labels/objects; a no-op
    # for a program validated when it was built). The other analyses
    # tolerate dangling references, so verification continues.
    try:
        program.validate()
    except ValueError as exc:
        findings.append(Finding(
            severity=Severity.ERROR,
            code="invalid-program",
            message=str(exc),
        ))

    # 2. Instruction store.
    if report.instruction_count > options.max_instructions:
        findings.append(Finding(
            severity=Severity.ERROR,
            code="instr-overflow",
            message=(
                f"{report.instruction_count} instructions exceed the "
                f"core's {options.max_instructions}-instruction store"
            ),
        ))

    seeds = RangeSeeds.for_program(program)
    ranges: Dict[str, IntervalStates] = {
        name: interval_states(function, seeds=seeds)
        for name, function in program.functions.items()
    }
    has_entry = entry in program.functions

    # 3. Unreachable functions and blocks.
    reachable = reachable_functions(program, entry) if has_entry \
        else set(program.functions)
    for name, function in program.functions.items():
        if name not in reachable:
            findings.append(Finding(
                severity=Severity.WARNING,
                code="unreachable-function",
                message=f"function {name!r} is never called from "
                        f"{entry!r}",
                function=name,
            ))
            continue
        cfg = function.decoded.cfg
        live_blocks = cfg.reachable()
        for block in cfg.blocks:
            if block.bid in live_blocks or not block.instructions:
                continue
            index, instruction = block.instructions[0]
            findings.append(Finding(
                severity=Severity.WARNING,
                code="unreachable",
                message=f"{block.end - index} instruction(s) can never "
                        "execute",
                function=name,
                index=index,
                instruction=repr(instruction),
            ))

    # 4. Uninitialized register reads (error-grade: the simulator
    # zero-fills, the real NPU does not).
    if has_entry:
        for name, index, reg in uninitialized_reads(
            program, entry=entry, scratch=scratch
        ):
            findings.append(Finding(
                severity=Severity.ERROR,
                code="uninit-read",
                message=f"register {reg} may be read before it is "
                        "written",
                function=name,
                index=index,
                instruction=repr(program.functions[name].body[index]),
            ))

    # 5. Dead stores (lint-grade; the DSE pass can delete the pure ones).
    if has_entry:
        for name, index, reg in dead_stores(
            program, liveness=liveness, entry=entry,
            entry_exit_live=options.entry_exit_live, scratch=scratch,
        ):
            findings.append(Finding(
                severity=Severity.WARNING,
                code="dead-store",
                message=f"value written to {reg} is never read",
                function=name,
                index=index,
                instruction=repr(program.functions[name].body[index]),
            ))

    # 6. Memory bounds / isolation / capacity.
    findings.extend(check_memory(program, ranges))

    # 7. WCET and loop bounds.
    if has_entry:
        wcet = estimate_wcet(program, entry=entry, ranges=ranges)
        findings.extend(wcet.findings)
        report.wcet_cycles = wcet.total_cycles
        report.function_wcet = dict(wcet.function_cycles)
        report.wcet_method = dict(wcet.function_method)
        for name, loops in wcet.loops.items():
            for loop in loops:
                if loop.bound is None:
                    continue  # Reported as an unbounded-loop error.
                provenance = f"counter {loop.counter}"
                if loop.body_trips is not None:
                    provenance += f", body <= {loop.body_trips} trips"
                findings.append(Finding(
                    severity=Severity.INFO,
                    code="loop-bound",
                    message=(
                        f"loop bounded at {loop.bound} iterations "
                        f"({provenance})"
                    ),
                    function=name,
                    index=loop.exit_index,
                ))

    # 8. Intrinsics without a static cost model: advisory, for every
    # intrinsic in every function (the WCET pass's no-wcet-model
    # warning covers only what it costs from the entry).
    from ..interpreter import intrinsic_wcet

    for name, function in program.functions.items():
        for index, instruction in enumerate(function.body):
            if instruction.op is not Op.INTRINSIC:
                continue
            if intrinsic_wcet(instruction.args[0]) is None:
                findings.append(Finding(
                    severity=Severity.INFO,
                    code="missing-wcet-model",
                    message=(
                        f"intrinsic {instruction.args[0]!r} declares no "
                        "WCET model (register one with "
                        "register_intrinsic(..., wcet=...))"
                    ),
                    function=name,
                    index=index,
                    instruction=repr(instruction),
                ))

    report.sort()
    return report
