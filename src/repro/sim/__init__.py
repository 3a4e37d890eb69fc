"""Discrete-event simulation kernel used by every substrate in the repo."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    EmptySchedule,
    Environment,
    Event,
    NORMAL,
    SimulationError,
    StopSimulation,
    Timeout,
    URGENT,
)
from .process import Initialize, Process
from .resources import Server
from .rng import RngRegistry, exponential
from .shard import (
    ShardSpec,
    default_processes,
    make_shard_specs,
    owner_of,
    run_shards,
    shard_seed,
    split_arrivals,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Initialize",
    "NORMAL",
    "Process",
    "RngRegistry",
    "Server",
    "ShardSpec",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "URGENT",
    "default_processes",
    "exponential",
    "make_shard_specs",
    "owner_of",
    "run_shards",
    "shard_seed",
    "split_arrivals",
]
