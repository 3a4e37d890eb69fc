"""Transport: NIC-side reordering of RDMA segments (paper D3).

Segmenting a message is :class:`repro.net.message.Message`'s job. The
weakly-consistent RPC half of D3, per-attempt timeouts and retries,
lives in the gateway (:mod:`repro.serverless.gateway`).
"""

from .reorder import (
    REORDER_INSTRUCTIONS_PER_SEGMENT,
    ReorderBuffer,
    ReorderError,
)

__all__ = [
    "REORDER_INSTRUCTIONS_PER_SEGMENT",
    "ReorderBuffer",
    "ReorderError",
]
