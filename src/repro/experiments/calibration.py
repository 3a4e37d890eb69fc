"""Paper reference values and the shared experiment configuration.

Every experiment module compares what the simulator measures against
the numbers the paper reports; this module is the single source of
truth for the latter (transcribed from the paper's §6) and for the
experiment-scale knobs (request counts, concurrency, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Paper headline claims (§1, §6.3.1); the other factors the paper
#: reports appear in the reports' notes.
PAPER_MAX_LATENCY_IMPROVEMENT = 880.0   # container vs λ-NIC, web/kv
PAPER_BARE_METAL_LATENCY_IMPROVEMENT = 30.0

#: Table 2 — throughput with three concurrent web-server lambdas.
PAPER_TABLE2 = {
    "lambda-nic-56": 58_000.0,
    "bare-metal-56": 950.0,
    "bare-metal-1": 520.0,
}

#: Table 3 — added resources for the image transformer @56 concurrent.
PAPER_TABLE3 = {
    "lambda-nic": {"host_cpu_pct": 0.1, "host_mem_mib": 0.0, "nic_mem_mib": 63.2},
    "bare-metal": {"host_cpu_pct": 9.2, "host_mem_mib": 62.5, "nic_mem_mib": 0.0},
    "container": {"host_cpu_pct": 13.7, "host_mem_mib": 219.5, "nic_mem_mib": 0.0},
}

#: Table 4 — workload size and startup time.
PAPER_TABLE4 = {
    "lambda-nic": {"size_mib": 11.0, "startup_s": 19.8},
    "bare-metal": {"size_mib": 17.0, "startup_s": 5.0},
    "container": {"size_mib": 153.0, "startup_s": 31.7},
}

#: Figure 9 — optimizer effectiveness (instructions; cumulative %).
PAPER_FIG9 = [
    ("Unoptimized", 8902, 0.0),
    ("Lambda Coalescing", 8447, 5.11),
    ("Match Reduction", 8132, 8.65),
    ("Memory Stratification", 8050, 9.56),
]

#: Figure 9, extended pass list (the default pipeline): the pinned
#: golden series for the measured column, (stage, instructions,
#: cumulative %). The first four stages are the paper's; dead-store
#: elimination is this repo's addition, so any compiler change that
#: moves these counts must update this table deliberately.
FIG9_EXTENDED = [
    ("Unoptimized", 8854, 0.0),
    ("Lambda Coalescing", 8401, 5.12),
    ("Match Reduction", 8102, 8.49),
    ("Memory Stratification", 8004, 9.60),
    ("Dead Store Elimination", 1320, 85.09),
]

#: Footnote 3 — reordering four 100 B packets.
PAPER_REORDER_INSTRUCTIONS = 120
PAPER_REORDER_FRACTION_PCT = 1.3

#: Table 1 — qualitative SmartNIC comparison.
PAPER_TABLE1 = [
    ("Programmability", "Hard", "Limited", "Easy"),
    ("Performance", "10+ cores, low latency", "200+ cores, low latency",
     "50+ cores, high latency"),
    ("Development cost", "High", "Medium", "Low"),
]

BACKENDS = ["lambda-nic", "bare-metal", "container"]
WORKLOAD_NAMES = ["web_server", "kv_client", "image_transformer"]


@dataclass
class ExperimentConfig:
    """Scale knobs shared by the experiment drivers.

    The defaults are sized so a full table/figure regenerates in
    seconds of wall-clock; crank them up for smoother ECDFs.
    """

    seed: int = 42
    #: Requests per (workload, backend) cell in latency runs.
    latency_requests: int = 200
    #: Requests per image-transformer latency cell (heavier each).
    image_latency_requests: int = 20
    #: Requests per throughput cell.
    throughput_requests: int = 400
    image_throughput_requests: int = 30
    #: The paper's two concurrency levels (§6.3.1).
    concurrencies: Tuple[int, int] = (1, 56)
    #: Requests in the Figure-8/Table-2 contention runs.
    contention_requests: int = 600
    contention_concurrency: int = 4
    #: Sharded scale sweep (experiments/scale_sweep.py). The CLI's
    #: full run targets the ROADMAP's 10⁷-request scale; the
    #: experiment-table entry and CI use ``scale_differential_requests``
    #: so the differential check finishes in seconds.
    scale_requests: int = 10_000_000
    scale_shards: int = 4
    #: Total open-loop arrival rate (requests per second of sim time),
    #: split across shards by request-id ownership.
    scale_rate_rps: float = 2000.0
    scale_differential_requests: int = 2000
    scale_workload: str = "web_server"
    #: Run with span tracing enabled; traced experiments attach a
    #: :class:`repro.obs.TraceCollection` to their report.
    trace: bool = False


DEFAULT_CONFIG = ExperimentConfig()

#: Smaller configuration for CI / unit tests.
FAST_CONFIG = ExperimentConfig(
    latency_requests=40,
    image_latency_requests=5,
    throughput_requests=60,
    image_throughput_requests=6,
    contention_requests=120,
    contention_concurrency=4,
    scale_requests=4000,
    scale_differential_requests=800,
)
