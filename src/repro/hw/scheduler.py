"""Packet-to-core scheduling inside the SmartNIC.

The Netronome scheduler is work-conserving and sprays packets uniformly
across cores (paper §5); that is the default policy. A shortest-queue
policy is provided for the ablation benchmarks. Weighted fair queuing
between lambdas (paper §4.2.1-D1) is the paper's future work and is not
modelled.
"""

from __future__ import annotations

from typing import Sequence

from .npu import NPUCore


class Scheduler:
    """Base class: picks the core a request should run on."""

    def pick_core(self, cores: Sequence[NPUCore], lambda_name: str) -> NPUCore:
        raise NotImplementedError


class UniformRandomScheduler(Scheduler):
    """The hardware default: uniform random spray over all cores."""

    def __init__(self, rng) -> None:
        self.rng = rng

    def pick_core(self, cores: Sequence[NPUCore], lambda_name: str) -> NPUCore:
        return cores[self.rng.randrange(len(cores))]


class ShortestQueueScheduler(Scheduler):
    """Join-shortest-queue: idealised global knowledge (ablation)."""

    def pick_core(self, cores: Sequence[NPUCore], lambda_name: str) -> NPUCore:
        return min(cores, key=lambda core: (core.busy_threads + core.queue_depth,
                                            core.core_id))
