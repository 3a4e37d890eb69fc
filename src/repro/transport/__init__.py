"""Transport: message segmentation and NIC-side reordering (paper D3).

The weakly-consistent RPC half of D3, per-attempt timeouts and retries,
lives in the gateway (:mod:`repro.serverless.gateway`).
"""

from .reorder import (
    REORDER_INSTRUCTIONS_PER_SEGMENT,
    ReorderBuffer,
    ReorderError,
)
from .segmentation import (
    DEFAULT_SEGMENT_BYTES,
    Segment,
    reassemble,
    segment_message,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "REORDER_INSTRUCTIONS_PER_SEGMENT",
    "ReorderBuffer",
    "ReorderError",
    "Segment",
    "reassemble",
    "segment_message",
]
