"""Figure 6: latency ECDFs, single warm lambda in isolation (§6.3.1).

For every (workload, backend) cell a fresh testbed is built, the single
workload deployed warm, and a one-at-a-time closed loop measures
gateway-observed latency. The paper's claims: λ-NIC beats containers by
~880x and bare-metal by ~30x on web/kv, 5x/3x on the image transformer,
and 5-24x at the 99th percentile vs bare-metal.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import TraceCollection
from ..workloads import standard_workloads
from .calibration import BACKENDS, DEFAULT_CONFIG, WORKLOAD_NAMES, ExperimentConfig
from .harness import Cell, ExperimentReport, closed_loop_cell


def run_cell(workload_name: str, backend: str,
             config: ExperimentConfig,
             collection: Optional[TraceCollection] = None) -> Cell:
    """Measure one (workload, backend) cell in isolation."""
    spec = standard_workloads()[workload_name]
    n_requests = (config.image_latency_requests
                  if spec.kind == "image" else config.latency_requests)
    return closed_loop_cell(spec, backend, n_requests, 1, config.seed,
                            collection, label=f"{workload_name}:{backend}")


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Figure 6 (all nine cells plus improvement factors)."""
    config = config or DEFAULT_CONFIG
    collection = TraceCollection() if config.trace else None
    cells: Dict[Tuple[str, str], Cell] = {
        (workload_name, backend): run_cell(workload_name, backend, config,
                                           collection)
        for workload_name in WORKLOAD_NAMES for backend in BACKENDS
    }

    rows = []
    for workload_name in WORKLOAD_NAMES:
        nic = cells[(workload_name, "lambda-nic")]
        for backend in BACKENDS:
            cell = cells[(workload_name, backend)]
            rows.append([
                workload_name,
                backend,
                cell.mean * 1e3,
                cell.p50 * 1e3,
                cell.p99 * 1e3,
                cell.mean / nic.mean,
                cell.p99 / nic.p99,
            ])

    return ExperimentReport(
        experiment="Figure 6",
        title="request latency, single lambda in isolation (ms)",
        headers=["workload", "backend", "mean_ms", "p50_ms", "p99_ms",
                 "mean_vs_nic", "p99_vs_nic"],
        rows=rows,
        notes=[
            "paper: container ~880x / bare-metal ~30x slower than lambda-nic "
            "(web/kv); 5x / 3x (image); 5-24x at p99 vs bare-metal",
        ],
        cells=cells,
        trace=collection,
    )


def ecdf(report: ExperimentReport, workload: str, backend: str):
    """(latency, fraction) pairs for plotting one ECDF curve."""
    cell = report.cells[(workload, backend)]
    n = len(cell.samples)
    return [(value, (index + 1) / n)
            for index, value in enumerate(cell.samples)]
