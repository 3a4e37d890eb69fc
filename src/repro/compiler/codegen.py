"""Firmware generation: resource checks and the optimisation report.

The final artifact, :class:`Firmware`, is what gets "flashed" onto the
simulated SmartNIC: the composed program, its instruction-store
footprint, and the per-region data layout. :class:`OptimizationReport`
records the instruction count after every pass — the exact series shown
in the paper's Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa import INSTRUCTION_BYTES, LambdaProgram, Region
from ..isa.verify import (
    InterproceduralLiveness,
    VerifierReport,
    VerifyOptions,
    verify_program,
)
from .passes import EXTENDED_PASSES
from .unit import CompilationUnit, CompileError

#: Netronome Agilio CX on-board RAM from the paper's testbed (§6.1.2);
#: the 16 K per-core instruction-store limit lives with the verifier
#: (:data:`repro.isa.verify.MAX_INSTRUCTIONS_PER_CORE`) and is
#: re-exported here.
NIC_MEMORY_BYTES = 2 * 1024 * 1024 * 1024

#: Fixed firmware overhead (loader tables, island config, basic NIC ops
#: kept resident — §3.1c) included in the reported binary size. Tuned so
#: the four-lambda image of Table 4 lands at ~11 MiB.
FIRMWARE_BASE_BYTES = int(10.85 * 1024 * 1024)


@dataclass
class StageCount:
    """Instruction count after one optimisation stage."""

    stage: str
    instructions: int

    def reduction_from(self, baseline: int) -> float:
        """Percent reduction relative to ``baseline`` (positive = smaller)."""
        if baseline == 0:
            return 0.0
        return 100.0 * (baseline - self.instructions) / baseline


@dataclass
class OptimizationReport:
    """Figure-9 series: unoptimised count plus per-pass counts."""

    stages: List[StageCount] = field(default_factory=list)

    @property
    def baseline(self) -> int:
        return self.stages[0].instructions if self.stages else 0

    @property
    def final(self) -> int:
        return self.stages[-1].instructions if self.stages else 0

    @property
    def total_reduction_percent(self) -> float:
        if not self.stages:
            return 0.0
        return self.stages[-1].reduction_from(self.baseline)

    def rows(self) -> List[Tuple[str, int, float]]:
        """(stage, instructions, cumulative % reduction) per stage."""
        return [
            (stage.stage, stage.instructions, stage.reduction_from(self.baseline))
            for stage in self.stages
        ]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{stage.stage}={stage.instructions}" for stage in self.stages
        )
        return f"<OptimizationReport {parts}>"


@dataclass
class Firmware:
    """A compiled, loadable SmartNIC image."""

    program: LambdaProgram
    lambda_ids: Dict[str, int]
    report: OptimizationReport
    #: Data bytes placed per memory region.
    region_layout: Dict[Region, int] = field(default_factory=dict)
    #: Static-verification result for the composed program (always
    #: error-free: compilation refuses firmware with errors).
    verifier_report: Optional[VerifierReport] = None

    @property
    def instruction_count(self) -> int:
        return self.program.instruction_count

    @property
    def code_bytes(self) -> int:
        return self.instruction_count * INSTRUCTION_BYTES

    @property
    def ro_data_bytes(self) -> int:
        """Read-only objects shipped inside the binary (content blobs)."""
        from ..isa import AccessMode

        return sum(
            obj.size_bytes for obj in self.program.objects.values()
            if obj.access is AccessMode.READ
        )

    @property
    def binary_size_bytes(self) -> int:
        """Size of the image shipped to the NIC (paper Table 4).

        Writable objects are allocated at load time, not shipped.
        """
        return FIRMWARE_BASE_BYTES + self.code_bytes + self.ro_data_bytes


def check_resources(program: LambdaProgram,
                    liveness: Optional[InterproceduralLiveness] = None
                    ) -> VerifierReport:
    """Statically verify the firmware and enforce the NIC's hard limits.

    Runs the full :mod:`repro.isa.verify` pipeline — instruction store,
    memory bounds/isolation, uninitialized reads, loop bounds, WCET —
    and returns the report. Any error-grade finding aborts compilation:
    firmware that would fault or run unbounded on the NIC is never
    flashed. Nothing is live after the firmware (every exit of its
    entry ends the machine); the lint reuses ``liveness`` if given.
    """
    report = verify_program(
        program, VerifyOptions(entry_exit_live=frozenset()), liveness)
    if program.data_bytes + FIRMWARE_BASE_BYTES > NIC_MEMORY_BYTES:
        raise CompileError(
            f"firmware data ({program.data_bytes} B) exceeds NIC memory"
        )
    if not report.ok:
        first = report.errors[0]
        raise CompileError(
            f"firmware failed verification with {len(report.errors)} "
            f"error(s); first: {first}"
        )
    return report


def region_layout(program: LambdaProgram) -> Dict[Region, int]:
    layout: Dict[Region, int] = {}
    for obj in program.objects.values():
        layout[obj.region] = layout.get(obj.region, 0) + obj.size_bytes
    return layout


def compile_unit(
    unit: CompilationUnit,
    passes: Optional[Sequence[Tuple[str, Callable]]] = None,
    optimize: bool = True,
) -> Firmware:
    """Run the optimisation pipeline and emit firmware.

    With ``optimize=False`` (or ``passes=[]``) the naive composition is
    emitted — the "Unoptimized" bar of Figure 9.
    """
    working = unit.copy()
    report = OptimizationReport()
    program, liveness = working.build_program(), None
    report.stages.append(StageCount("Unoptimized", program.instruction_count))
    if optimize:
        for stage_name, pass_fn in (passes if passes is not None else EXTENDED_PASSES):
            working = pass_fn(working)
            built, working.built = working.built, None
            program, liveness = built or (working.build_program(), None)
            report.stages.append(
                StageCount(stage_name, program.instruction_count))
    verifier_report = check_resources(program, liveness=liveness)
    return Firmware(
        program=program,
        lambda_ids=dict(working.lambda_ids),
        report=report,
        region_layout=region_layout(program),
        verifier_report=verifier_report,
    )
