"""RDMA messages: one object on the wire for all of a message's segments.

The gateway writes a large input as back-to-back RDMA segments (paper
D3). Every segment shares the outer headers, the source and
destination, the lambda and request ids, the queue pair, the deadline
stamp and the trace context; only its seq, its offset and its size
differ, and those follow from its index. A :class:`Message` holds the
shared part once, and a :class:`Segments` view stands for a run of its
segments wherever a train's packets go: links and the switch compute
each segment's wire size from the counts, the NIC reads the message's
key from its fields, and the reorder buffer takes a whole run at once.

A segment becomes a :class:`Segment` packet only where something needs
a packet identity (see DESIGN.md §14, *Messages*): indexing or
iterating a view builds it, once, with the packet id the message
reserved for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .headers import Header, HeaderStack, LambdaHeader, RdmaHeader
from .packet import Packet, reserve_packet_ids


class Segment(Packet):
    """One segment of a :class:`Message`, made into a packet.

    It keeps the message's key, segment count and first packet id (which
    names the message) rather than the message: the message keeps its
    made segments, and a reference back would make each message a cycle
    for the cyclic collector.
    """

    __slots__ = ("key", "total", "message_id", "seq")


class Message:
    """``total`` RDMA write segments of one request, sent back to back.

    Segment ``seq`` carries ``segment_bytes`` of payload, except the
    last, which carries ``last_bytes``. ``payload`` is a read-only view
    of the whole input, or None when the segments carry no bytes.
    """

    __slots__ = ("src", "dst", "headers", "wid", "request_id", "qp", "key",
                 "total", "segment_bytes", "last_bytes", "payload", "meta",
                 "first_id", "header_bytes", "_packets")

    def __init__(self, src: str, dst: str, headers: Sequence[Header],
                 wid: int, request_id: int, qp: int, size: int,
                 segment_bytes: int, payload: Optional[bytes] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        total = max(1, (size + segment_bytes - 1) // segment_bytes)
        self.src = src
        self.dst = dst
        #: The outer headers every segment shares (nothing edits a
        #: header in flight: a response edits a copy).
        self.headers = tuple(headers)
        self.wid = wid
        self.request_id = request_id
        self.qp = qp
        #: The receiver's reorder key for the message.
        self.key = (src, request_id)
        self.total = total
        self.segment_bytes = segment_bytes
        self.last_bytes = size - (total - 1) * segment_bytes
        self.payload = None if payload is None \
            else memoryview(bytes(payload))
        #: Written once: every segment's packet meta (deadline, trace).
        self.meta: Dict[str, Any] = {} if meta is None else meta
        self.first_id = reserve_packet_ids(total)
        self.header_bytes = (sum(header.BYTES for header in self.headers)
                             + LambdaHeader.BYTES + RdmaHeader.BYTES)
        #: seq -> the segment's packet, once made.
        self._packets: Dict[int, Segment] = {}

    def segments(self) -> "Segments":
        """The whole message as a train's packets."""
        return Segments(self, 0, self.total)

    def payload_bytes(self, seq: int) -> int:
        return self.last_bytes if seq == self.total - 1 \
            else self.segment_bytes

    def packet(self, seq: int) -> Segment:
        """Segment ``seq`` as a packet: built on first use, then kept."""
        packet = self._packets.get(seq)
        if packet is not None:
            return packet
        offset = seq * self.segment_bytes
        size = self.payload_bytes(seq)
        packet = Segment(
            self.src, self.dst,
            HeaderStack([
                *self.headers,
                LambdaHeader(wid=self.wid, request_id=self.request_id,
                             seq=seq, total_segments=self.total),
                RdmaHeader(opcode="WRITE", qp=self.qp,
                           remote_address=offset, length=size),
            ]),
            payload=(None if self.payload is None
                     else bytes(self.payload[offset:offset + size])),
            payload_bytes=size,
            meta=self.meta,
            packet_id=self.first_id + seq,
        )
        packet.key = self.key
        packet.total = self.total
        packet.message_id = self.first_id
        packet.seq = seq
        self._packets[seq] = packet
        return packet

    def __repr__(self) -> str:
        return (f"<Message #{self.first_id} {self.src}->{self.dst} "
                f"request {self.request_id}: {self.total} segments>")


class Segments:
    """Segments ``first .. first + count - 1`` of a message, in order.

    A sequence of packets to the code that indexes or iterates it, which
    makes the segments it reaches into packets. Links, the switch and
    the NIC take a view whole where they can: :meth:`sizes` gives the
    wire sizes from the counts. Only a tail can be deleted
    (``del view[index:]``), which is how a train is truncated.
    """

    __slots__ = ("message", "first", "count")

    def __init__(self, message: Message, first: int, count: int) -> None:
        self.message = message
        self.first = first
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        if index.__class__ is slice:
            start, stop, step = index.indices(self.count)
            if step != 1:
                raise ValueError("a segment view slices with step 1")
            return Segments(self.message, self.first + start,
                            max(0, stop - start))
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError("segment index out of range")
        return self.message.packet(self.first + index)

    def __delitem__(self, index: slice) -> None:
        start, stop, _ = index.indices(self.count)
        if stop != self.count:
            raise ValueError("only a view's tail can be deleted")
        self.count = min(start, self.count)

    def __iter__(self):
        packet = self.message.packet
        for seq in range(self.first, self.first + self.count):
            yield packet(seq)

    def sizes(self) -> List[int]:
        """Each segment's wire size, headers included."""
        message = self.message
        count = self.count
        if not count:
            return []
        sizes = [message.header_bytes + message.segment_bytes] * count
        if self.first + count == message.total:
            sizes[-1] = message.header_bytes + message.last_bytes
        return sizes

    def payload_bytes(self) -> int:
        """The payload the segments in view carry."""
        message = self.message
        size = self.count * message.segment_bytes
        if self.count and self.first + self.count == message.total:
            size += message.last_bytes - message.segment_bytes
        return size

    def made(self, index: int) -> Optional[Segment]:
        """Segment ``index``'s packet if it was made, else None."""
        return self.message._packets.get(self.first + index)

    def __repr__(self) -> str:
        return (f"<Segments {self.first}..{self.first + self.count - 1} "
                f"of {self.message!r}>")
