"""Static verification of lambda programs (eBPF-verifier style).

λ-NIC installs untrusted Micro-C lambdas onto shared NPU cores, so the
runtime must prove — *before* flashing firmware — that a lambda fits the
instruction store, respects memory isolation, and terminates within the
interactive SLO. This package provides that proof layer:

* :mod:`.cfg` — the decoded form every analysis reads: register
  effects, op classes and the control-flow graph (basic blocks, edges);
* :mod:`.dataflow` — a generic worklist fixpoint framework;
* :mod:`.analyses` — liveness, dead stores, initialized-register
  tracking (all interprocedural over the shared 16-register file);
* :mod:`.intervals` — the one value analysis: interval abstract
  interpretation with widening/narrowing, exact folding of point
  intervals, seeded from declared packet-format field ranges, proving
  e.g. ``hash & (SIZE-1)`` offsets in-bounds;
* :mod:`.memcheck` — bounds and access-mode checks against declared
  :class:`~repro.isa.program.MemoryObject` regions, upgraded by the
  interval analysis to proven-safe / definitely-out-of-bounds;
* :mod:`.wcet` — loop-bound inference and worst-case cycle estimation
  using the interpreter's own per-op/region cost model, so static
  bounds are directly comparable to dynamic cycle counts;
* :mod:`.verifier` — the :func:`verify_program` entry point producing a
  :class:`~repro.isa.verify.report.VerifierReport`.

Run ``python -m repro.isa.verify <file.asm>`` for the standalone lint
CLI (see :mod:`.__main__`).
"""

from .analyses import (
    ALL_REGISTERS,
    InterproceduralLiveness,
    dead_stores,
    may_write_registers,
    uninitialized_reads,
)
from .cfg import (
    BRANCH_OPS,
    CFG,
    MACHINE_TERMINATOR_OPS,
    PURE_DEF_OPS,
    TERMINATOR_OPS,
    BasicBlock,
    DecodedFunction,
    build_cfg,
)
from .dataflow import DataflowProblem, DataflowResult, FixpointError, solve
from .intervals import (
    ANY,
    Interval,
    IntervalLattice,
    IntervalStates,
    RangeSeeds,
    interval_states,
    refine_branch,
)
from .memcheck import check_memory, region_footprint
from .report import Finding, Severity, VerifierReport
from .verifier import (
    MAX_INSTRUCTIONS_PER_CORE,
    VerifyOptions,
    verify_program,
)
from .wcet import LoopInfo, WcetResult, estimate_wcet, find_loops

__all__ = [
    "ALL_REGISTERS",
    "ANY",
    "BRANCH_OPS",
    "BasicBlock",
    "CFG",
    "DataflowProblem",
    "DataflowResult",
    "DecodedFunction",
    "Finding",
    "FixpointError",
    "InterproceduralLiveness",
    "Interval",
    "IntervalLattice",
    "IntervalStates",
    "LoopInfo",
    "MACHINE_TERMINATOR_OPS",
    "MAX_INSTRUCTIONS_PER_CORE",
    "PURE_DEF_OPS",
    "RangeSeeds",
    "Severity",
    "TERMINATOR_OPS",
    "VerifierReport",
    "VerifyOptions",
    "WcetResult",
    "build_cfg",
    "check_memory",
    "dead_stores",
    "estimate_wcet",
    "find_loops",
    "interval_states",
    "may_write_registers",
    "refine_branch",
    "region_footprint",
    "solve",
    "uninitialized_reads",
    "verify_program",
]
