"""Point-to-point links with bandwidth, propagation delay, and loss.

A :class:`Link` joins two endpoints. Each direction is a FIFO transmit
server, so the link models both serialization delay
(``size_bits / bandwidth``) and propagation delay, plus optional random
drop for failure-injection tests. The server is analytic: it keeps the
instant its serializer frees up (``free_at``) and, on each send,
computes when the packet starts and ends serialization by Lindley's
recursion. The packet then rides one timeout to its delivery, so it
crosses a link in one kernel event. A cut link drops the packets the
serializer reaches while it is down, through one check event per cut.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..obs import Tracer
from ..sim import Environment, Timeout
from .packet import Packet


class LinkStats:
    """Per-direction counters."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.packets_dropped_down = 0

    def __repr__(self) -> str:
        return (
            f"<LinkStats sent={self.packets_sent} bytes={self.bytes_sent} "
            f"dropped={self.packets_dropped} "
            f"dropped_down={self.packets_dropped_down}>"
        )


class _Direction:
    """One direction of a full-duplex link: an analytic FIFO server.

    A packet sent at ``now`` starts serialization at ``max(now,
    free_at)`` and frees the serializer again ``size_bits / bandwidth``
    later. One timeout carries it to its delivery, propagation delay
    after that; its value is the packet with the instant it was sent,
    where its hop span starts. Undelivered packets wait in ``_pending``
    with their start instants, in FIFO order, so a cut can find the
    packets the serializer has not reached. The loss dice are rolled
    when a packet is sent, and a lost packet takes no serialization
    time. ``LinkStats`` count a packet as sent when it is delivered.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        propagation_delay: float,
        deliver: Callable[[Packet], None],
        drop_probability: float,
        rng,
    ) -> None:
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.deliver = deliver
        self.drop_probability = drop_probability
        self.rng = rng
        self.up = True
        self.stats = LinkStats()
        #: The instant the serializer finishes the last packet sent.
        self.free_at = env.now
        #: Undelivered packets: (start of serialization, delivery
        #: timeout), in the order they were sent.
        self._pending: Deque[Tuple[float, Timeout]] = deque()

    def send(self, packet: Packet) -> None:
        """Serialize ``packet`` after those already sent, or lose it."""
        now = self.env.now
        if (self.drop_probability > 0 and self.rng is not None
                and self.rng.random() < self.drop_probability):
            self.stats.packets_dropped += 1
            self._trace_hop(packet, now, dropped="loss")
            return
        size_bytes = packet.size_bytes
        start = self.free_at if self.free_at > now else now
        self.free_at = end = start + size_bytes * 8 / self.bandwidth_bps
        timeout = self.env.timeout(end + self.propagation_delay - now,
                                   (packet, now, size_bytes))
        timeout.callbacks.append(self._delivered)
        self._pending.append((start, timeout))
        if not self.up:
            self._arm_check(start, timeout)

    def set_up(self, up: bool) -> None:
        """Bring this direction up or down.

        A cut arms one check at the start of the first packet the
        serializer has not yet reached; the packet on the wire, if
        any, finishes.
        """
        if self.up and not up:
            now = self.env.now
            for start, timeout in self._pending:
                if start >= now:
                    self._arm_check(start, timeout)
                    break
        self.up = up

    def _arm_check(self, start: float, timeout: Timeout) -> None:
        self.env.timeout(start - self.env.now, timeout).callbacks.append(
            self._check)

    def _check(self, event) -> None:
        """At a packet's start: if the link is still down, drop it and
        every packet sent after it, and free the serializer now."""
        first = event.value
        if self.up or first.cancelled:
            return
        now = self.env.now
        pending = self._pending
        dropped = []
        while True:
            _, timeout = pending.pop()
            timeout.cancel()
            dropped.append(timeout.value)
            if timeout is first:
                break
        self.free_at = now
        stats = self.stats
        stats.packets_dropped += len(dropped)
        stats.packets_dropped_down += len(dropped)
        for packet, sent_at, _ in reversed(dropped):
            self._trace_hop(packet, sent_at, dropped="link_down")

    def _delivered(self, event) -> None:
        packet, sent_at, size_bytes = event.value
        self._pending.popleft()
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size_bytes
        packet.stamp(self.name, self.env.now)
        self._trace_hop(packet, sent_at)
        self.deliver(packet)

    def _trace_hop(self, packet: Packet, sent_at: float,
                   dropped: Optional[str] = None) -> None:
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


class Link:
    """A full-duplex link between endpoints ``a`` and ``b``.

    ``deliver_a`` / ``deliver_b`` are callables invoked when a packet
    arrives at the respective endpoint.
    """

    def __init__(
        self,
        env: Environment,
        a: str,
        b: str,
        bandwidth_bps: float = 10e9,
        propagation_delay: float = 500e-9,
        drop_probability: float = 0.0,
        rng=None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if drop_probability > 0 and rng is None:
            raise ValueError("a drop probability requires an rng")
        self.env = env
        self.a = a
        self.b = b
        self._deliver_a: Optional[Callable[[Packet], None]] = None
        self._deliver_b: Optional[Callable[[Packet], None]] = None
        self._ab = _Direction(
            env, f"{a}->{b}", bandwidth_bps, propagation_delay,
            self._to_b, drop_probability, rng,
        )
        self._ba = _Direction(
            env, f"{b}->{a}", bandwidth_bps, propagation_delay,
            self._to_a, drop_probability, rng,
        )

    @property
    def up(self) -> bool:
        """True when both directions carry traffic."""
        return self._ab.up and self._ba.up

    def set_state(self, up: bool) -> None:
        """Bring the whole link up or down (both directions).

        A packet is dropped if the link is down at the instant its
        serializer reaches it. A cut arms, per direction, one check at
        the start of the first packet not yet on the wire; if the link
        is still down when it fires, that packet and every packet
        queued behind it are dropped there. A send while down arms a
        check at that packet's own start. The packet on the wire and
        packets already propagating are delivered, so a cut shorter
        than one serialization drops nothing.
        """
        self._ab.set_up(up)
        self._ba.set_up(up)

    def attach(self, endpoint: str, deliver: Callable[[Packet], None]) -> None:
        """Register the receive callback for one endpoint."""
        if endpoint == self.a:
            self._deliver_a = deliver
        elif endpoint == self.b:
            self._deliver_b = deliver
        else:
            raise ValueError(f"{endpoint!r} is not an endpoint of this link")

    def send(self, from_endpoint: str, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission from ``from_endpoint``."""
        if from_endpoint == self.a:
            self._ab.send(packet)
        elif from_endpoint == self.b:
            self._ba.send(packet)
        else:
            raise ValueError(f"{from_endpoint!r} is not an endpoint of this link")

    def stats(self, from_endpoint: str) -> LinkStats:
        """Transmit-direction counters for ``from_endpoint``."""
        if from_endpoint == self.a:
            return self._ab.stats
        if from_endpoint == self.b:
            return self._ba.stats
        raise ValueError(f"{from_endpoint!r} is not an endpoint of this link")

    def _to_a(self, packet: Packet) -> None:
        if self._deliver_a is None:
            raise RuntimeError(f"no receiver attached at {self.a!r}")
        self._deliver_a(packet)

    def _to_b(self, packet: Packet) -> None:
        if self._deliver_b is None:
            raise RuntimeError(f"no receiver attached at {self.b!r}")
        self._deliver_b(packet)
