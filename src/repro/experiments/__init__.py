"""Experiment drivers: one module per paper table and figure."""

from . import (
    fault_recovery,
    fig6_latency,
    fig7_throughput,
    fig8_contention,
    fig9_optimizer,
    micro_reorder,
    migration_storm,
    overload_storm,
    scale_sweep,
    table1_nic_types,
    table3_resources,
    table4_startup,
    verify_lambdas,
)
from .calibration import (
    BACKENDS,
    DEFAULT_CONFIG,
    ExperimentConfig,
    FAST_CONFIG,
    WORKLOAD_NAMES,
)
from .harness import Cell, ExperimentReport, mib, run_scenario

ALL_EXPERIMENTS = {
    "table1": table1_nic_types.run,
    "fig6": fig6_latency.run,
    "fig7": fig7_throughput.run,
    "fig8": fig8_contention.run,
    "table2": fig8_contention.run_table2,
    "table3": table3_resources.run,
    "table4": table4_startup.run,
    "fig9": fig9_optimizer.run,
    "reorder": micro_reorder.run,
    "fault_recovery": fault_recovery.run,
    "migration_storm": migration_storm.run,
    "overload_storm": overload_storm.run,
    "scale_sweep": scale_sweep.run,
    "verify": verify_lambdas.run,
}


__all__ = [
    "ALL_EXPERIMENTS",
    "BACKENDS",
    "Cell",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "ExperimentReport",
    "FAST_CONFIG",
    "WORKLOAD_NAMES",
    "fault_recovery",
    "fig6_latency",
    "fig7_throughput",
    "fig8_contention",
    "fig9_optimizer",
    "mib",
    "micro_reorder",
    "migration_storm",
    "overload_storm",
    "run_scenario",
    "scale_sweep",
    "table1_nic_types",
    "table3_resources",
    "table4_startup",
    "verify_lambdas",
]
