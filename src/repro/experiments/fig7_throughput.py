"""Figure 7: average throughput in isolation (§6.3.1).

Two modes, as in the paper: closed-loop with a single outstanding
request, and parallel testing with 56 outstanding requests (the
testbed CPU's hardware-thread count). λ-NIC should win by roughly one
to two orders of magnitude on web/kv and ~5-15x on the image
transformer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import TraceCollection
from ..workloads import standard_workloads
from .calibration import BACKENDS, DEFAULT_CONFIG, WORKLOAD_NAMES, ExperimentConfig
from .harness import Cell, ExperimentReport, closed_loop_cell


def run_cell(workload_name: str, backend: str, concurrency: int,
             config: ExperimentConfig,
             collection: Optional[TraceCollection] = None) -> Cell:
    spec = standard_workloads()[workload_name]
    n_requests = (config.image_throughput_requests
                  if spec.kind == "image" else config.throughput_requests)
    return closed_loop_cell(
        spec, backend, max(n_requests, concurrency * 2), concurrency,
        config.seed, collection,
        label=f"{workload_name}:{backend}:c{concurrency}",
    )


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Figure 7 (throughput at 1 and 56 threads)."""
    config = config or DEFAULT_CONFIG
    collection = TraceCollection() if config.trace else None
    cells: Dict[Tuple[str, str, int], Cell] = {
        (workload_name, backend, concurrency): run_cell(
            workload_name, backend, concurrency, config, collection)
        for workload_name in WORKLOAD_NAMES for backend in BACKENDS
        for concurrency in config.concurrencies
    }

    rows = []
    for workload_name in WORKLOAD_NAMES:
        for concurrency in config.concurrencies:
            nic = cells[(workload_name, "lambda-nic", concurrency)]
            for backend in BACKENDS:
                cell = cells[(workload_name, backend, concurrency)]
                rows.append([
                    workload_name,
                    f"{concurrency} thread" + ("s" if concurrency > 1 else ""),
                    backend,
                    cell.throughput,
                    nic.throughput / cell.throughput
                    if cell.throughput else float("inf"),
                ])

    return ExperimentReport(
        experiment="Figure 7",
        title="average throughput in isolation (req/s)",
        headers=["workload", "mode", "backend", "req_per_s", "nic_speedup"],
        rows=rows,
        notes=[
            "paper: lambda-nic 27x-736x faster for web/kv, 5x-15x for image",
        ],
        cells=cells,
        trace=collection,
    )
