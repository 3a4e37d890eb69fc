"""Footnote 3 microbenchmark: NIC-side packet reordering cost.

The paper measured that the Netronome NIC reorders four 100 B packets
in 120 instructions — about 1.3 % of the instructions used by the
benchmark lambdas. We reproduce both numbers from the model: the
reorder buffer's cost for a 4-segment message, and that cost as a
fraction of the per-lambda firmware footprint.
"""

from __future__ import annotations

from typing import Optional

from ..transport import ReorderBuffer
from .calibration import (
    ExperimentConfig,
    PAPER_REORDER_FRACTION_PCT,
    PAPER_REORDER_INSTRUCTIONS,
)
from .harness import ExperimentReport


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    buffer = ReorderBuffer()
    # Functional check: actually reorder four out-of-order 100 B packets.
    message = None
    for seq in [3, 1, 0, 2]:
        message = buffer.add("msg", seq, 4, b"x" * 100)
    assert message is not None and len(message) == 4
    instructions = buffer.instructions_for(4)

    # "1.3% of the instructions used by our benchmark lambdas": the
    # composed benchmark firmware (the unoptimized Figure-9 image).
    from ..compiler import compile_unit
    from .fig9_optimizer import build_unit

    firmware = compile_unit(build_unit(), optimize=False)
    benchmark_instructions = firmware.instruction_count
    fraction_pct = 100.0 * instructions / benchmark_instructions

    rows = [
        ["reorder 4x100B packets (instructions)", instructions,
         PAPER_REORDER_INSTRUCTIONS],
        ["benchmark-lambda firmware instructions",
         benchmark_instructions, "-"],
        ["reordering fraction (%)", f"{fraction_pct:.2f}",
         PAPER_REORDER_FRACTION_PCT],
    ]
    return ExperimentReport(
        experiment="Footnote 3",
        title="multi-packet reordering microbenchmark",
        headers=["metric", "measured", "paper"],
        rows=rows,
    )
