"""SmartNIC hardware model: NPU cores, memory hierarchy, scheduler, NIC."""

from .memory import NicMemory, NicMemoryError
from .nic import (
    NicStats,
    PIPELINE_OVERHEAD_CYCLES,
    REORDER_CYCLES_PER_SEGMENT,
    SmartNIC,
)
from .npu import CoreStats, Island, NPUCore
from .scheduler import (
    Scheduler,
    ShortestQueueScheduler,
    UniformRandomScheduler,
)

__all__ = [
    "CoreStats",
    "Island",
    "NPUCore",
    "NicMemory",
    "NicMemoryError",
    "NicStats",
    "PIPELINE_OVERHEAD_CYCLES",
    "REORDER_CYCLES_PER_SEGMENT",
    "Scheduler",
    "ShortestQueueScheduler",
    "SmartNIC",
    "UniformRandomScheduler",
]
