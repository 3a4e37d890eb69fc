"""The packet-per-segment RDMA path, kept as a test oracle.

``Gateway._send_rdma`` sends an RDMA message as one
:class:`~repro.net.Message`, whose segments become packets only where
something needs a packet identity. This module keeps the earlier path:
:func:`send_rdma` builds one :class:`~repro.net.Packet` per segment,
each with its own header stack, lambda and RDMA headers and meta, and
sends them as one train; :func:`lazy_key` keys such a train for the
NIC by reading every segment's headers. :func:`packet_per_segment`
installs both. Only tests import it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from repro.hw import SmartNIC
from repro.net import (
    DEADLINE_META,
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RdmaHeader,
    UDPHeader,
)
from repro.obs import Tracer
from repro.serverless.gateway import Gateway


def send_rdma(self, route, target: str, request_id: int, payload: Any,
              size: int, span=None, deadline: Optional[float] = None) -> None:
    """Segment a large payload into RDMA writes, one packet each."""
    segment = self.rdma_segment_bytes
    total = max(1, (size + segment - 1) // segment)
    blob = payload if isinstance(payload, (bytes, bytearray)) else None
    stamp = None if deadline is None else self._attempt_deadline(deadline)
    src, wid, qp = self.name, route.wid, route.rdma_qp
    ethernet = EthernetHeader()
    ip = IPv4Header(src_ip=src, dst_ip=target)
    udp = UDPHeader()
    packets = []
    for seq in range(total):
        chunk_size = min(segment, size - seq * segment)
        chunk = (bytes(blob[seq * segment: seq * segment + chunk_size])
                 if blob is not None else None)
        packet = Packet(
            src=src,
            dst=target,
            headers=HeaderStack([
                ethernet,
                ip,
                udp,
                LambdaHeader(wid=wid, request_id=request_id,
                             seq=seq, total_segments=total),
                RdmaHeader(opcode="WRITE", qp=qp,
                           remote_address=seq * segment,
                           length=chunk_size),
            ]),
            payload=chunk,
            payload_bytes=chunk_size,
        )
        if stamp is not None:
            packet.meta[DEADLINE_META] = stamp
        if span is not None:
            Tracer.stamp_packet(packet, span)
        packets.append(packet)
    self.node.send_train(packets)


def lazy_key(self, train) -> tuple:
    """``(key, total, first seq)`` read from every packet's headers if
    one timeout at the train's last arrival handles it exactly, else
    ``(None, 0, 0)``."""
    packets = train.packets
    first = packets[0]
    lam = first.headers.get("LambdaHeader")
    if lam is None:
        return None, 0, 0
    src, request_id = first.src, lam.request_id
    total, first_seq = lam.total_segments, lam.seq
    if first_seq < 0 or first_seq + len(packets) > total:
        return None, 0, 0
    for offset, packet in enumerate(packets):
        lam = rdma = None
        for header in packet.headers:
            if header.name == "LambdaHeader" and lam is None:
                lam = header
            elif header.name == "RdmaHeader":
                rdma = header
        if (lam is None or rdma is None or lam.seq != first_seq + offset
                or lam.request_id != request_id
                or lam.total_segments != total or packet.src != src):
            return None, 0, 0
    key = (src, request_id)
    if self._reorder.highest_seq(key) >= first_seq:
        return None, 0, 0
    for run in self._arriving:
        if run.key is None or (run.key == key and run.first_seq
                               + len(run.train.packets) > first_seq):
            return None, 0, 0
    return key, total, first_seq


@contextmanager
def packet_per_segment():
    """Gateways send, and NICs key, RDMA messages packet by packet."""
    saved = Gateway._send_rdma, SmartNIC._lazy_key
    Gateway._send_rdma, SmartNIC._lazy_key = send_rdma, lazy_key
    try:
        yield
    finally:
        Gateway._send_rdma, SmartNIC._lazy_key = saved
