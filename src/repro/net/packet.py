"""Packets: the unit of transfer on links and through switches."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from .headers import HeaderStack

#: ``Packet.meta`` key carrying a request's absolute sim-time deadline.
#: Defined here (the lowest layer every hop already imports) so the
#: NIC/host dequeue checks need no dependency on the serverless
#: package; ``repro.serverless.overload`` re-exports it.
DEADLINE_META = "deadline"

_packet_ids = itertools.count(1)


def reset_packet_ids() -> None:
    """Restart packet-id assignment at 1.

    Packet ids were drawn from one process-global counter, which made
    them depend on how many simulations had already run in the process
    — harmless while ids stayed debug-only, but a shard-isolation
    hazard: the same shard would number its packets differently inline
    vs in a fresh pool worker. :class:`~repro.net.link.Network` calls
    this on construction, so every testbed numbers its packets from 1
    regardless of process history. (Sim runs are synchronous within a
    thread, so sequentially used networks never interleave draws.)
    """
    global _packet_ids
    _packet_ids = itertools.count(1)


def reserve_packet_ids(count: int) -> int:
    """Take ``count`` consecutive packet ids; returns the first.

    An RDMA message reserves one id per segment when it is built, so a
    segment made into a :class:`Packet` later gets the id it would have
    had as a packet built at send time.
    """
    global _packet_ids
    first = next(_packet_ids)
    _packet_ids = itertools.count(first + count)
    return first


class Packet:
    """A simulated network packet.

    ``payload`` is an arbitrary Python object (bytes for realism, or a
    structured value); ``payload_bytes`` is its on-wire size and is what
    serialization delay is computed from. ``packet_id`` is drawn from
    the network's counter unless given (a reserved id).
    """

    __slots__ = (
        "packet_id",
        "src",
        "dst",
        "headers",
        "payload",
        "payload_bytes",
        "meta",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        headers: Optional[HeaderStack] = None,
        payload: Any = None,
        payload_bytes: int = 0,
        meta: Optional[Dict[str, Any]] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.packet_id = next(_packet_ids) if packet_id is None \
            else packet_id
        self.src = src
        self.dst = dst
        self.headers = headers if headers is not None else HeaderStack()
        self.payload = payload
        self.payload_bytes = int(payload_bytes)
        self.meta: Dict[str, Any] = dict(meta or {})

    @property
    def size_bytes(self) -> int:
        """Total on-wire size: headers plus payload."""
        return self.headers.size_bytes + self.payload_bytes

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    def copy(self) -> "Packet":
        """A new packet (fresh id) with copied headers and metadata."""
        clone = Packet(
            src=self.src,
            dst=self.dst,
            headers=self.headers.copy(),
            payload=self.payload,
            payload_bytes=self.payload_bytes,
            meta=dict(self.meta),
        )
        return clone

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B {self.headers!r}>"
        )
