"""Packet tracing: a tcpdump for the simulated network.

Attach a :class:`PacketTracer` to network nodes to record traffic with
timestamps, then filter/summarise it — invaluable when debugging
multi-hop flows (gateway -> NIC -> memcached -> NIC -> gateway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim import Environment
from .network import Network, Node
from .packet import Packet


@dataclass(frozen=True)
class TraceRecord:
    """One captured packet observation."""

    at: float
    node: str
    direction: str  # "rx" | "tx"
    src: str
    dst: str
    size_bytes: int
    headers: str
    wid: Optional[int] = None
    request_id: Optional[int] = None

    def format(self) -> str:
        lam = f" wid={self.wid} req={self.request_id}" \
            if self.wid is not None else ""
        return (f"{self.at * 1e6:12.2f}us {self.node:>12s} {self.direction} "
                f"{self.src}->{self.dst} {self.size_bytes:5d}B "
                f"[{self.headers}]{lam}")


class PacketTracer:
    """Captures rx/tx packets on instrumented nodes."""

    def __init__(self, env: Environment, max_records: int = 100_000) -> None:
        self.env = env
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.dropped_records = 0

    def attach_to(self, node: Node) -> None:
        """Instrument one node's rx handler and tx path.

        The node then takes trains one packet at a time, so each
        capture has its packet's own arrival instant.
        """
        inner_handler = node.handler

        def traced_rx(packet: Packet) -> None:
            self._record(node.name, "rx", packet)
            if inner_handler is not None:
                inner_handler(packet)

        node.attach(traced_rx)
        inner_send = node.send
        inner_send_train = node.send_train

        def traced_tx(packet: Packet) -> None:
            self._record(node.name, "tx", packet)
            inner_send(packet)

        def traced_tx_train(packets) -> None:
            for packet in packets:
                self._record(node.name, "tx", packet)
            inner_send_train(packets)

        node.send = traced_tx  # type: ignore[method-assign]
        node.send_train = traced_tx_train  # type: ignore[method-assign]

    def attach_to_network(self, network: Network) -> None:
        """Instrument every node currently in the network."""
        for name in network.nodes:
            self.attach_to(network.node(name))

    def _record(self, node: str, direction: str, packet: Packet) -> None:
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        lam = packet.headers.get("LambdaHeader")
        self.records.append(TraceRecord(
            at=self.env.now,
            node=node,
            direction=direction,
            src=packet.src,
            dst=packet.dst,
            size_bytes=packet.size_bytes,
            headers="/".join(header.name.replace("Header", "")
                             for header in packet.headers),
            wid=lam.wid if lam else None,
            request_id=lam.request_id if lam else None,
        ))

    # -- queries --------------------------------------------------------------

    def filter(self, node: Optional[str] = None,
               direction: Optional[str] = None,
               request_id: Optional[int] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> List[TraceRecord]:
        """Records matching all given criteria, in time order."""
        out = []
        for record in self.records:
            if node is not None and record.node != node:
                continue
            if direction is not None and record.direction != direction:
                continue
            if request_id is not None and record.request_id != request_id:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def flow(self, request_id: int) -> List[TraceRecord]:
        """The full multi-hop journey of one request id."""
        return self.filter(request_id=request_id)

    def summary(self) -> Dict[str, int]:
        """Packet counts per (node, direction)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            key = f"{record.node}:{record.direction}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def format(self, records: Optional[List[TraceRecord]] = None) -> str:
        return "\n".join(record.format()
                         for record in (records if records is not None
                                        else self.records))
