"""Point-to-point links with bandwidth, propagation delay, and loss.

A :class:`Link` joins two endpoints. Each direction is a FIFO transmit
server, so the link models both serialization delay
(``size_bits / bandwidth``) and propagation delay, plus optional random
drop for failure-injection tests. The server is a queue and a busy flag
driven by timeout callbacks: taking a packet up is one zero-delay
timeout, serializing it a second, and propagating it a third that runs
while the server serializes the next packet, so a packet crosses a link
in three kernel events.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..obs import Tracer
from ..sim import Environment
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
    """One direction of a full-duplex link: a FIFO transmit server.

    The server takes packets up one at a time, each in the callback of
    a zero-delay timeout. :meth:`send` schedules one when the server is
    idle; the end of a serialization or a drop schedules one when
    packets wait, each queued with the instant it was enqueued, where
    its hop span starts. Taking a packet up, the server drops it if the
    link is down or the loss dice say so, and otherwise serializes it.
    When serialization ends it counts the packet, schedules the next
    take-up and starts the packet's propagation. A packet being taken
    up, serialized or propagated rides as its timeout's value.
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
        self._waiting: Deque[Tuple[Packet, float]] = deque()
        self._busy = False

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission."""
        if self._busy:
            self._waiting.append((packet, self.env.now))
        else:
            self._busy = True
            self.env.timeout(0, (packet, self.env.now)).callbacks.append(
                self._take)

    def _take_next(self) -> None:
        if self._waiting:
            self.env.timeout(0, self._waiting.popleft()).callbacks.append(
                self._take)
        else:
            self._busy = False

    def _take(self, event) -> None:
        """Serialize the packet taken up, or drop it and move on."""
        packet, enqueued_at = event.value
        stats = self.stats
        if not self.up:
            stats.packets_dropped += 1
            stats.packets_dropped_down += 1
            self._trace_hop(packet, enqueued_at, dropped="link_down")
            self._take_next()
        elif (self.drop_probability > 0 and self.rng is not None
              and self.rng.random() < self.drop_probability):
            stats.packets_dropped += 1
            self._trace_hop(packet, enqueued_at, dropped="loss")
            self._take_next()
        else:
            size_bytes = packet.size_bytes
            self.env.timeout(size_bytes * 8 / self.bandwidth_bps,
                             (packet, enqueued_at, size_bytes)
                             ).callbacks.append(self._serialized)

    def _serialized(self, event) -> None:
        hop = event.value
        self.stats.packets_sent += 1
        self.stats.bytes_sent += hop[2]
        # Take-up first: with zero propagation delay both events fall in
        # this instant, and the next packet must be reached before this
        # one is delivered (DESIGN.md §14).
        self._take_next()
        self.env.timeout(self.propagation_delay, hop).callbacks.append(
            self._propagated)

    def _propagated(self, event) -> None:
        packet, enqueued_at, _ = event.value
        packet.stamp(self.name, self.env.now)
        self._trace_hop(packet, enqueued_at)
        self.deliver(packet)

    def _trace_hop(self, packet: Packet, enqueued_at: float,
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
            node=self.name, start=enqueued_at, tags=tags,
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

        While down, queued and newly enqueued packets are dropped the
        instant the server reaches them; no traffic crosses in either
        direction until the link is brought back up.
        """
        self._ab.up = up
        self._ba.up = up

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
