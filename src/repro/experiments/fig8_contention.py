"""Figure 8 + Table 2: three web-server lambdas under contention (§6.3.2).

Three distinct web-server lambdas are deployed together and requests
are generated round-robin, forcing the backend to switch between
lambdas per request. The paper contrasts λ-NIC (no degradation) with
the bare-metal backend at 56 threads and on a single core; Table 2
reports throughput for the same setup.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..host import CpuParams, HostCPU
from ..serverless import Testbed, round_robin_closed_loop
from ..workloads import web_server_spec
from .calibration import DEFAULT_CONFIG, ExperimentConfig, PAPER_TABLE2
from .harness import Cell, ExperimentReport, deploy, load_cell, run_scenario

#: The three contention scenarios of Figure 8 / Table 2.
SCENARIOS = ["lambda-nic-56", "bare-metal-56", "bare-metal-1"]


def _make_testbed(scenario: str, config: ExperimentConfig) -> Testbed:
    tb = Testbed(seed=config.seed, n_workers=1)
    if scenario == "bare-metal-1":
        # Single-core variant: replace each worker CPU with one thread.
        tb.add_bare_metal_backend()
        for server in tb.host_servers("bare-metal"):
            server.cpu = HostCPU(
                tb.env, CpuParams(n_threads=1,
                                  context_switch_seconds=server.cpu.params
                                  .context_switch_seconds),
            )
    elif scenario == "bare-metal-56":
        tb.add_bare_metal_backend()
    elif scenario == "lambda-nic-56":
        tb.add_lambda_nic_backend()
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return tb


def run_scenario_cell(scenario: str, config: ExperimentConfig) -> Cell:
    backend = "bare-metal" if scenario.startswith("bare-metal") else "lambda-nic"
    concurrency = config.contention_concurrency \
        if scenario != "bare-metal-1" else max(2, config.contention_concurrency // 2)
    specs = [web_server_spec(f"web{index}") for index in range(3)]
    tb = _make_testbed(scenario, config)

    def body(env):
        yield from deploy(tb, specs, backend)
        return (yield round_robin_closed_loop(
            env, tb.gateway, [spec.name for spec in specs],
            n_requests=config.contention_requests, concurrency=concurrency,
        ))

    combined = run_scenario(tb, body)["__all__"]
    return load_cell("3x web_server", scenario, combined)


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Figure 8 (latency CDFs under contention)."""
    config = config or DEFAULT_CONFIG
    cells: Dict[str, Cell] = {
        scenario: run_scenario_cell(scenario, config)
        for scenario in SCENARIOS
    }
    nic = cells["lambda-nic-56"]
    rows = []
    for scenario in SCENARIOS:
        cell = cells[scenario]
        rows.append([
            scenario,
            cell.mean * 1e3,
            cell.p99 * 1e3,
            cell.mean / nic.mean,
        ])
    return ExperimentReport(
        experiment="Figure 8",
        title="latency with three concurrent web-server lambdas (ms)",
        headers=["scenario", "mean_ms", "p99_ms", "mean_vs_nic"],
        rows=rows,
        notes=[
            "paper: bare-metal 178x-330x worse than lambda-nic under "
            "contention; lambda-nic unaffected by context switching",
        ],
        cells=cells,
    )


def run_table2(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Table 2 (throughput under the Figure-8 setup)."""
    config = config or DEFAULT_CONFIG
    cells = {scenario: run_scenario_cell(scenario, config)
             for scenario in SCENARIOS}
    rows = [
        [scenario, cells[scenario].throughput, PAPER_TABLE2[scenario]]
        for scenario in SCENARIOS
    ]
    return ExperimentReport(
        experiment="Table 2",
        title="throughput with three web-server lambdas (req/s)",
        headers=["scenario", "measured_rps", "paper_rps"],
        rows=rows,
        notes=["same run configuration as Figure 8"],
        cells=cells,
    )
