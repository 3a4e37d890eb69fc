"""Figure 9: effectiveness of the target-specific optimizations (§6.4).

Compiles the paper's four-lambda set — two key-value clients, a web
server, and an image transformer — and reports the firmware
instruction count after each optimisation pass.
"""

from __future__ import annotations

from typing import Optional

from ..compiler import CompilationUnit, Firmware, compile_unit
from ..workloads import fig9_workloads
from .calibration import ExperimentConfig, PAPER_FIG9
from .harness import ExperimentReport


def build_unit() -> CompilationUnit:
    unit = CompilationUnit()
    for index, (name, spec) in enumerate(fig9_workloads().items()):
        unit.add_lambda(spec.nic_program(), wid=index + 1,
                        route_port=f"p{index}")
    return unit


def compile_fig9() -> Firmware:
    return compile_unit(build_unit())


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Figure 9 (measured vs paper per stage).

    The default pipeline runs the extended pass list, so the report
    has one extra stage past the paper's four; its row shows "—" in
    the paper columns.
    """
    firmware = compile_fig9()
    rows = []
    paper = list(PAPER_FIG9) + [(None, "—", None)] * (
        len(firmware.report.rows()) - len(PAPER_FIG9))
    for (stage, instructions, reduction), (_, p_count, p_red) in zip(
        firmware.report.rows(), paper,
    ):
        rows.append([
            stage,
            instructions,
            f"-{reduction:.2f}%",
            p_count,
            "—" if p_red is None else f"-{p_red:.2f}%",
        ])
    return ExperimentReport(
        experiment="Figure 9",
        title="optimizer effectiveness (firmware instruction count)",
        headers=["stage", "measured", "measured_cum", "paper", "paper_cum"],
        rows=rows,
        notes=["2 kv clients + web server + image transformer in one firmware",
               "stages past the paper's four are this repo's extended passes"],
    )
