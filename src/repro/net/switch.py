"""A store-and-forward Ethernet switch (the testbed's Arista DCS-7124S).

The switch receives packets from attached links, looks up the egress
port by destination node name, charges a fixed switching latency, and
forwards out of per-port FIFO queues. Every port feeds one switching
pipeline, an analytic FIFO server: it keeps the instant the pipeline
frees up, so a packet arriving at ``now`` is switched from
``max(now, free_at)`` for the switching latency (Lindley's recursion).
One timeout carries the packet to the end of its switching, and it is
routed only then, so a partition set in the meantime still drops it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..obs import Tracer
from ..sim import Environment
from .link import Link
from .packet import Packet


class SwitchStats:
    def __init__(self) -> None:
        self.packets_forwarded = 0
        self.packets_flooded = 0
        self.packets_dropped_unknown = 0
        self.packets_dropped_partition = 0


class Switch:
    """A named switch with a destination-keyed forwarding table."""

    def __init__(
        self,
        env: Environment,
        name: str = "switch",
        switching_latency: float = 800e-9,
    ) -> None:
        self.env = env
        self.name = name
        self.switching_latency = switching_latency
        self._links: Dict[str, Link] = {}  # peer node -> link
        self._table: Dict[str, str] = {}  # dst node -> peer node (port)
        #: Node -> partition-group index; None means no active partition.
        self._partition: Optional[Dict[str, int]] = None
        #: The instant the pipeline finishes the last packet received.
        self._free_at = env.now
        self.stats = SwitchStats()

    def attach_link(self, link: Link, peer: str) -> None:
        """Attach a link whose far endpoint is node ``peer``."""
        self._links[peer] = link
        link.attach(self.name, self._receive)
        self._table[peer] = peer

    @property
    def ports(self) -> list:
        return sorted(self._links)

    # -- partitions ------------------------------------------------------

    def set_partition(self, *groups: Iterable[str]) -> None:
        """Split the fabric: packets between distinct groups are dropped.

        Each argument is an iterable of node names forming one side of
        the partition; nodes not named in any group default to the
        first group, so callers only need to enumerate the minority
        side(s).
        """
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[name] = index
        self._partition = mapping

    def heal_partition(self) -> None:
        """Remove any active partition; full connectivity resumes."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def _crosses_partition(self, src: str, dst: str) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src, 0) != self._partition.get(dst, 0)

    # -- the pipeline ----------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        """Switch ``packet`` after those already received."""
        now = self.env.now
        start = self._free_at if self._free_at > now else now
        self._free_at = end = start + self.switching_latency
        self.env.timeout(end - now, (packet, now)).callbacks.append(
            self._switched)

    def _switched(self, event) -> None:
        """Route the packet whose switching is done."""
        packet, entered_at = event.value
        peer = self._table.get(packet.dst)
        if peer is None:
            self.stats.packets_dropped_unknown += 1
            self._trace_hop(packet, entered_at, "dropped_unknown")
        elif self._crosses_partition(packet.src, peer):
            self.stats.packets_dropped_partition += 1
            self._trace_hop(packet, entered_at, "dropped_partition")
        else:
            packet.stamp(self.name, self.env.now)
            self.stats.packets_forwarded += 1
            self._trace_hop(packet, entered_at, "forwarded")
            self._links[peer].send(self.name, packet)

    def _trace_hop(self, packet: Packet, entered_at: float,
                   verdict: str) -> None:
        tracer = self.env.tracer
        if tracer is None:
            return
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return
        tracer.end(tracer.begin(
            "net.switch", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=entered_at,
            tags={"verdict": verdict, "dst": packet.dst},
        ))
