"""Topology builder: nodes connected through a single switch.

This mirrors the paper's testbed (Figure 5): a master plus worker nodes
all connected to one 10 G switch. Nodes register a receive handler; the
:class:`Network` wires links both ways and exposes a uniform ``send``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..sim import Environment
from .link import Link, PacketByPacket, Train
from .packet import Packet, reset_packet_ids
from .switch import Switch

#: Default link speed in the paper's testbed.
TEN_GBPS = 10e9


class Node:
    """A network endpoint (host NIC port or SmartNIC port)."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.handler: Optional[Callable[[Packet], None]] = None
        self._on_train: Optional[Callable[[Train], None]] = None
        self._on_retract: Optional[Callable] = None
        self._packetwise = PacketByPacket(network.env, self._deliver)
        self.rx_packets = 0
        self.tx_packets = 0

    def attach(self, handler: Callable[[Packet], None],
               on_train: Optional[Callable[[Train], None]] = None,
               on_retract: Optional[Callable] = None) -> None:
        """Set the callable invoked for every packet addressed here.

        A receiver that takes whole trains also passes ``on_train`` and
        ``on_retract`` (see :meth:`Link.attach`); otherwise each packet
        of a train reaches ``handler`` at its own arrival instant.
        """
        self.handler = handler
        self._on_train = on_train
        self._on_retract = on_retract

    def send(self, packet: Packet) -> None:
        """Transmit a packet into the network."""
        self.tx_packets += 1
        self.network.send_from(self.name, packet)

    def send_train(self, packets: Sequence[Packet]) -> None:
        """Transmit packets back to back as one train."""
        self.tx_packets += len(packets)
        self.network.send_train_from(self.name, packets)

    def _deliver(self, packet: Packet) -> None:
        if self.handler is None:
            raise RuntimeError(f"node {self.name!r} has no handler attached")
        self.handler(packet)

    def _receive(self, train: Train) -> None:
        packets = train.packets
        self.rx_packets += len(packets)
        if len(packets) == 1 and self.handler is not None:
            # Handed over at its arrival: the packet is due now.
            self.handler(packets[0])
        elif self._on_train is not None:
            self._on_train(train)
        else:
            self._packetwise.receive(train)

    def _retract(self, train: Train, removed: List[Packet]) -> None:
        self.rx_packets -= len(removed)
        if self._on_retract is not None:
            self._on_retract(train, removed)
        else:
            self._packetwise.retract(train, removed)


class Network:
    """A star topology around one switch, as in the paper's testbed."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = TEN_GBPS,
        propagation_delay: float = 500e-9,
        switching_latency: float = 800e-9,
        drop_probability: float = 0.0,
        rng=None,
    ) -> None:
        # Mirror the per-link determinism guard: a lossy fabric without
        # an explicit RNG would silently never drop (Link only rolls the
        # dice when it has an rng), breaking reproducibility contracts.
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if drop_probability > 0 and rng is None:
            raise ValueError("a drop probability requires an rng")
        self.env = env
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.drop_probability = drop_probability
        self.rng = rng
        # Shard isolation: packet numbering restarts per network so a
        # testbed's packet ids are independent of process history (the
        # same shard must look identical inline and in a pool worker).
        reset_packet_ids()
        self.switch = Switch(env, switching_latency=switching_latency)
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}

    def add_node(self, name: str) -> Node:
        """Create a node and cable it to the switch."""
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self, name)
        link = Link(
            self.env,
            a=name,
            b=self.switch.name,
            bandwidth_bps=self.bandwidth_bps,
            propagation_delay=self.propagation_delay,
            drop_probability=self.drop_probability,
            rng=self.rng,
        )
        link.attach(name, node._receive, node._retract)
        self.switch.attach_link(link, peer=name)
        self._nodes[name] = node
        self._links[name] = link
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> list:
        return sorted(self._nodes)

    def send_from(self, src: str, packet: Packet) -> None:
        """Inject ``packet`` onto ``src``'s uplink towards the switch."""
        if src not in self._links:
            raise KeyError(f"unknown node {src!r}")
        self._links[src].send(src, packet)

    def send_train_from(self, src: str, packets: Sequence[Packet]) -> None:
        """Inject a train of packets onto ``src``'s uplink."""
        if src not in self._links:
            raise KeyError(f"unknown node {src!r}")
        self._links[src].send_train(src, packets)

    def link_stats(self, name: str):
        """Uplink (node->switch) transmit stats for ``name``."""
        return self._links[name].stats(name)

    # -- fault injection hooks -------------------------------------------

    def link(self, name: str) -> Link:
        """The cable between node ``name`` and the switch."""
        try:
            return self._links[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def set_link_state(self, name: str, up: bool) -> None:
        """Cut or restore the cable between ``name`` and the switch."""
        self.link(name).set_state(up)

    def link_up(self, name: str) -> bool:
        return self.link(name).up

    def partition(self, *groups) -> None:
        """Partition the switch fabric (see :meth:`Switch.set_partition`)."""
        self.switch.set_partition(*groups)

    def heal_partition(self) -> None:
        self.switch.heal_partition()
