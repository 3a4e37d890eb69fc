"""Table 3: added resource use for the image transformer (§6.4).

Each backend serves a burst of 56 concurrent image-transformer
requests; we report the additional host CPU (averaged over the burst),
host memory, and NIC memory attributable to the workload — the paper's
λ-NIC row is ~0 host resources and ~63 MiB of NIC memory.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..serverless import Testbed, closed_loop
from ..workloads import image_transformer_spec
from .calibration import BACKENDS, DEFAULT_CONFIG, ExperimentConfig, PAPER_TABLE3
from .harness import Cell, ExperimentReport, deploy, mib, run_scenario

#: The paper's burst size: the testbed CPU's thread count.
BURST = 56


def run_cell(backend: str, config: ExperimentConfig) -> Cell:
    spec = image_transformer_spec()
    tb = Testbed(seed=config.seed, n_workers=1)
    tb.add_backend(backend)

    def scenario(env):
        yield from deploy(tb, [spec], backend)
        window_start = env.now
        result = yield closed_loop(
            env, tb.gateway, spec.name, n_requests=BURST,
            concurrency=BURST, payload_bytes=spec.request_bytes,
        )
        return result, window_start

    load, window_start = run_scenario(tb, scenario)
    window = max(1e-9, tb.env.now - window_start)

    host_cpu_pct = 0.0
    host_mem = 0.0
    nic_mem = 0.0
    if backend in ("bare-metal", "container"):
        server = tb.host_servers(backend)[0]
        host_cpu_pct = 100.0 * server.cpu.stats.task_utilization(
            spec.name, window, server.cpu.n_threads
        )
        host_mem = server.memory.used_bytes
    else:
        # Firmware + writable data + the RDMA staging-buffer pool.
        nic_mem = tb.nics[0].memory.total_used_bytes
        # The host CPU is untouched; the tiny residual is the driver.
        host_cpu_pct = 0.1

    return Cell(
        workload="image_transformer",
        backend=backend,
        throughput=load.throughput_rps,
        extra={
            "host_cpu_pct": host_cpu_pct,
            "host_mem_mib": mib(host_mem),
            "nic_mem_mib": mib(nic_mem),
            "completed": load.completed,
        },
    )


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Table 3."""
    config = config or DEFAULT_CONFIG
    cells: Dict[str, Cell] = {
        backend: run_cell(backend, config) for backend in BACKENDS
    }
    rows = []
    for metric, key, unit in [
        ("Host CPU (avg %)", "host_cpu_pct", "%"),
        ("Host memory (MiB)", "host_mem_mib", "MiB"),
        ("NIC memory (MiB)", "nic_mem_mib", "MiB"),
    ]:
        row = [metric]
        for backend in BACKENDS:
            measured = cells[backend].extra[key]
            paper = PAPER_TABLE3[backend][key]
            row.append(f"{measured:.1f} (paper {paper})")
        rows.append(row)
    return ExperimentReport(
        experiment="Table 3",
        title="added resources, image transformer @56 concurrent",
        headers=["metric"] + BACKENDS,
        rows=rows,
        cells=cells,
    )
