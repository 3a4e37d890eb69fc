"""The Store- and process-based link and switch, kept as a test oracle.

``repro.net`` models each link direction and the switch pipeline as
analytic FIFO servers that take whole packet trains, one timeout per
train per server. This module keeps an earlier implementation of the
same model, one packet at a time: a serializer process per direction
pulling packets from a :class:`Store` (the bounded FIFO channel below),
one propagation process per packet, and a forwarder process behind a
``Store`` in the switch. A train is simply its packets sent back to back. Ports,
routes, partitions and counters are inherited from ``repro.net``.
``tests/net/test_hop_oracle.py`` drives both with the same random
traffic and requires identical results wherever no two stages share
an instant. Only tests import it.
"""

from __future__ import annotations

from typing import Any, List

from repro import net
from repro.net import LinkStats, Packet
from repro.obs import Tracer
from repro.sim import Environment, Event


class StorePut(Event):
    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the wait queue."""
        waiters = getattr(self, "_waiters", None)
        if waiters is not None and self in waiters:
            waiters.remove(self)


class Store:
    """FIFO item queue with bounded capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the next item; fires once one exists."""
        event = StoreGet(self)
        event._waiters = self._get_waiters
        return event

    # -- internal ----------------------------------------------------------

    def _do_put(self, put: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(put.item)
            put.succeed()
            return True
        return False

    def _do_get(self, get: StoreGet) -> bool:
        if self.items:
            get.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.pop(0)
                progressed = True
            if self._get_waiters and self._do_get(self._get_waiters[0]):
                self._get_waiters.pop(0)
                progressed = True


class _Direction:
    """One direction of a full-duplex link, served by a process."""

    def __init__(self, env, name, bandwidth_bps, propagation_delay,
                 drop_probability, rng) -> None:
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.drop_probability = drop_probability
        self.rng = rng
        self.up = True
        self.stats = LinkStats()
        self.deliver = None
        self.queue: Store = Store(env)
        #: Enqueue timestamps for traced packets only, so the hop span
        #: covers queueing + serialization + propagation.
        self._enqueue_ts = {}
        env.process(self._serializer())

    def send(self, packets, sent=None) -> None:
        for packet in packets:
            if self.env.tracer is not None and Tracer.context(packet)[0]:
                self._enqueue_ts[id(packet)] = self.env.now
            self.queue.put(packet)

    def set_up(self, up: bool) -> None:
        self.up = up

    def _serializer(self):
        while True:
            packet = yield self.queue.get()
            enqueued_at = (self._enqueue_ts.pop(id(packet), None)
                           if self._enqueue_ts else None)
            if not self.up:
                self.stats.packets_dropped += 1
                self.stats.packets_dropped_down += 1
                self._trace_hop(packet, enqueued_at, dropped="link_down")
                continue
            if self.drop_probability > 0 and self.rng is not None:
                if self.rng.random() < self.drop_probability:
                    self.stats.packets_dropped += 1
                    self._trace_hop(packet, enqueued_at, dropped="loss")
                    continue
            yield self.env.timeout(packet.size_bits / self.bandwidth_bps)
            self.stats.packets_sent += 1
            self.stats.bytes_sent += packet.size_bytes
            # Propagation happens "in flight": schedule delivery without
            # blocking the serializer for the next packet.
            self.env.process(self._propagate(packet, enqueued_at))

    def _propagate(self, packet: Packet, enqueued_at):
        yield self.env.timeout(self.propagation_delay)
        self._trace_hop(packet, enqueued_at)
        self.deliver(packet)

    def _trace_hop(self, packet, sent_at, dropped=None) -> None:
        tracer = self.env.tracer
        if tracer is None:
            return
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return
        tags = {"bytes": packet.size_bytes}
        if dropped is not None:
            tags["dropped"] = dropped
        tracer.end(tracer.begin(
            "net.link", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=sent_at, tags=tags,
        ))


class Link(net.Link):
    """A full-duplex link whose directions are serializer processes."""

    def __init__(self, env, a: str, b: str, bandwidth_bps: float = 10e9,
                 propagation_delay: float = 500e-9,
                 drop_probability: float = 0.0, rng=None) -> None:
        super().__init__(env, a, b, bandwidth_bps, propagation_delay,
                         drop_probability, rng)
        self._ab = _Direction(env, f"{a}->{b}", bandwidth_bps,
                              propagation_delay, drop_probability, rng)
        self._ba = _Direction(env, f"{b}->{a}", bandwidth_bps,
                              propagation_delay, drop_probability, rng)

    def attach(self, endpoint: str, deliver, retract=None) -> None:
        """Every receiver takes one packet at a time here."""
        self._towards(endpoint).deliver = deliver


class Switch(net.Switch):
    """A switch whose pipeline is a forwarder process behind a Store."""

    def __init__(self, env, name: str = "switch",
                 switching_latency: float = 800e-9) -> None:
        super().__init__(env, name, switching_latency)
        self._pipeline: Store = Store(env)
        #: Pipeline-entry timestamps for traced packets only.
        self._entry_ts = {}
        env.process(self._forwarder())

    def attach_link(self, link, peer: str) -> None:
        self._links[peer] = link
        link.attach(self.name, self._receive_packet)
        self._table[peer] = peer

    def _reroute(self) -> None:
        """The partition check happens as each packet leaves."""

    def _receive_packet(self, packet: Packet) -> None:
        if self.env.tracer is not None and Tracer.context(packet)[0]:
            self._entry_ts[id(packet)] = self.env.now
        self._pipeline.put(packet)

    def _forwarder(self):
        while True:
            packet = yield self._pipeline.get()
            entered_at = (self._entry_ts.pop(id(packet), None)
                          if self._entry_ts else None)
            yield self.env.timeout(self.switching_latency)
            peer = self._table.get(packet.dst)
            if peer is None:
                self.stats.packets_dropped_unknown += 1
                verdict = "dropped_unknown"
            elif self._crosses_partition(packet.src, peer):
                self.stats.packets_dropped_partition += 1
                verdict = "dropped_partition"
            else:
                self.stats.packets_forwarded += 1
                verdict = "forwarded"
            self._trace_hop(packet, entered_at, self.env.now, verdict)
            if verdict == "forwarded":
                self._links[peer].send(self.name, packet)
