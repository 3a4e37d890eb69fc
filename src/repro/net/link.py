"""Point-to-point links with bandwidth, propagation delay, and loss.

A :class:`Link` joins two endpoints. Each direction is a FIFO transmit
server, so the link models both serialization delay
(``size_bits / bandwidth``) and propagation delay, plus optional random
drop for failure-injection tests. The server is analytic: it keeps the
instant its serializer frees up (``free_at``) and computes when each
packet starts and ends serialization by Lindley's recursion.

Packets travel in **trains**: the packets one sender hands a direction
in one call, each with the instant it reaches the link. A node sends
its packets at ``now`` (an RDMA message is one train of segments); the
switch forwards a train with each packet's end-of-switching instant,
which may lie ahead. The direction runs the recursion over the whole
train in one pass and one timeout hands the train to the receiver at
its first arrival, with the vector of arrival instants
(:class:`Train`). A lone packet is a train of one.

A receiver may thus hold packets that arrive later. If one of them
will not arrive after all, because a cut drops it or the sender takes
it back (:meth:`_Direction.take_back`), the direction truncates the
train and calls the receiver's ``retract``. A cut drops the packets the
serializer reaches while it is down, through one check event per cut,
at packet granularity inside a train.

An RDMA message's train holds a view of its segments
(:class:`~repro.net.message.Segments`), not packets: the recursion runs
over wire sizes computed from the message's counts, with the float
operations a packet train uses. A segment is made into a packet only
where a packet identity is needed: a segment a lossy link loses (and,
if one is lost, the rest of the train), a cut, a hop span, a receiver
that takes one packet at a time. A take-back finds the segments the
switch made into packets when it took them back.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..obs import Tracer
from ..sim import Environment
from .message import Segments
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


class Train:
    """Packets in FIFO order, each with the instant it reaches the receiver.

    ``times`` is nondecreasing, and the train is handed over at
    ``times[0]``. Receivers read ``packets`` and ``times`` and leave
    them alone; the sending direction truncates both, before calling
    the receiver's ``retract``, when packets will not arrive after all.
    The other fields are the sender's: ``sent`` holds the instants
    each packet reached the link.
    """

    __slots__ = ("packets", "times", "sent", "free_before", "size_bytes",
                 "timeout", "spans")

    def __init__(self, packets: List[Packet], times: List[float],
                 sent: List[float], free_before: float,
                 size_bytes: int = 0) -> None:
        self.packets = packets
        self.times = times
        self.sent = sent
        #: The serializer's ``free_at`` before the first packet; the
        #: starts of serialization are replayed from it when needed.
        self.free_before = free_before
        #: The packets' total wire size.
        self.size_bytes = size_bytes
        #: The hand-over timeout; None once the receiver holds the train.
        self.timeout = None
        #: Hop spans written at hand-over (tracing only).
        self.spans: Optional[list] = None

    def __repr__(self) -> str:
        return f"<Train {len(self.packets)} packets>"


class PacketByPacket:
    """Hands each packet of a train to ``deliver(packet)`` at its instant.

    The adapter for receivers that take one packet at a time: packets
    due now are delivered at once, and one timeout at a time waits for
    the next. ``retract`` cancels the wait for packets taken back.
    """

    def __init__(self, env: Environment,
                 deliver: Callable[[Packet], None]) -> None:
        self.env = env
        self.deliver = deliver
        #: id(train) -> the timeout waiting for its next packet.
        self._waits: Dict[int, object] = {}

    def receive(self, train: Train) -> None:
        self._run(train, 0)

    def _resume(self, event) -> None:
        train, index = event.value
        del self._waits[id(train)]
        self._run(train, index)

    def _run(self, train: Train, index: int) -> None:
        now = self.env.now
        packets, times, deliver = train.packets, train.times, self.deliver
        # A delivery may truncate the train (a receiver cutting its own
        # link), so the length is read again each time round.
        while index < len(packets) and times[index] <= now:
            index += 1
            deliver(packets[index - 1])
        if index < len(packets):
            wait = self.env.timeout_at(times[index], (train, index),
                                       self._resume)
            self._waits[id(train)] = wait

    def retract(self, train: Train, removed: List[Packet]) -> None:
        wait = self._waits.get(id(train))
        if wait is not None and wait.value[1] >= len(train.packets):
            wait.cancel()
            del self._waits[id(train)]


def _sizes(packets: Sequence[Packet]) -> List[int]:
    """Each packet's wire size; a message's segments' from its counts."""
    if packets.__class__ is Segments:
        return packets.sizes()
    return [packet.size_bytes for packet in packets]


def _no_receiver(name: str):
    def missing(*args) -> None:
        raise RuntimeError(f"no receiver attached at {name!r}")
    return missing


class _Direction:
    """One direction of a full-duplex link: an analytic FIFO server.

    A packet reaching the link at ``t`` starts serialization at
    ``max(t, free_at)`` and frees the serializer ``size_bits /
    bandwidth`` later; it reaches the receiver propagation delay after
    that. Each instant is computed with the float operations the
    per-packet server used (the kernel's ``t + (target - t)``), so a
    packet's instants do not depend on the train it rode in.

    Trains not yet fully delivered wait in ``_trains`` in FIFO order,
    so a cut can find the packets the serializer has not reached and
    the sender can take back packets whose send instant lies ahead.
    The loss dice are rolled when a train is accepted, and a lost
    packet takes no serialization time. ``LinkStats`` count a packet as
    sent when its train is handed over.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        propagation_delay: float,
        drop_probability: float,
        rng,
    ) -> None:
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.drop_probability = drop_probability
        self.rng = rng
        self.up = True
        self.stats = LinkStats()
        #: The receiver: ``deliver(train)`` at hand-over and
        #: ``retract(train, removed)`` (set by :meth:`Link.attach`).
        self.deliver: Callable[[Train], None] = _no_receiver(name)
        self.retract: Callable[[Train, List[Packet]], None] = \
            _no_receiver(name)
        #: The instant the serializer finishes the last packet sent.
        self.free_at = env.now
        #: Trains not yet fully delivered, in the order they were sent.
        self._trains: Deque[Train] = deque()
        #: Lost packets whose send instant is still ahead, so the
        #: sender may take them back: (sent at, packet, hop span).
        self._lost: Deque[tuple] = deque()

    def send(self, packets: Sequence[Packet],
             sent: Optional[Sequence[float]] = None,
             roll: bool = True) -> None:
        """Serialize ``packets`` in order after those already sent.

        ``sent[i]`` is the instant packet ``i`` reaches the link (all
        ``now`` when None); it is nondecreasing and not before the
        last send. ``roll=False`` re-sends packets that have already
        had their loss draw.
        """
        env = self.env
        bps = self.bandwidth_bps
        prop = self.propagation_delay
        free = free_before = self.free_at
        if len(packets) == 1 and not (roll and self.drop_probability > 0):
            # The lone-packet case of the loop below, unrolled.
            packet = packets[0]
            at = env.now if sent is None else sent[0]
            start = free if free > at else at
            size = packet.size_bytes
            free = start + size * 8 / bps
            train = Train([packet], [at + (free + prop - at)], [at],
                          free_before, size)
        else:
            lossy = roll and self.drop_probability > 0 \
                and self.rng is not None
            train, free = self._train(packets, sent, free, lossy)
            if train is None:
                return
        self.free_at = free
        timeout = env.timeout_at(train.times[0], train, self._handed)
        train.timeout = timeout
        self._trains.append(train)
        if not self.up:
            starts, _ = self._replay(train)
            self._arm_check(train, 0, starts[0])

    def _train(self, packets: Sequence[Packet],
               sent: Optional[Sequence[float]], free: float,
               lossy: bool) -> tuple:
        """``(train, free_at after it)``: :meth:`send`'s recursion over
        ``packets``, less those lost (``(None, free)`` if all are).

        A message's view gives its sizes from its counts, and only a
        segment the link loses is made into a packet; a view that loses
        none stays a view.
        """
        now = self.env.now
        bps = self.bandwidth_bps
        prop = self.propagation_delay
        free_before = free
        sizes = _sizes(packets)
        kept: List[int] = []
        times: List[float] = []
        offered: List[float] = []
        total = 0
        for index, size in enumerate(sizes):
            at = now if sent is None else sent[index]
            if lossy and self.rng.random() < self.drop_probability:
                packet = packets[index]
                self.stats.packets_dropped += 1
                span = self._trace_hop(packet, at, at, dropped="loss")
                if at > now:
                    self._lost.append((at, packet, span))
                continue
            start = free if free > at else at
            total += size
            free = start + size * 8 / bps
            kept.append(index)
            offered.append(at)
            times.append(at + (free + prop - at))
        if not kept:
            return None, free
        if len(kept) == len(sizes):
            # A train owns its packets: a cut truncates them in place.
            packets = packets[:] if packets.__class__ is Segments \
                else list(packets)
        else:
            packets = [packets[index] for index in kept]
        return Train(packets, times, offered, free_before, total), free

    def set_up(self, up: bool) -> None:
        """Bring this direction up or down.

        A cut arms one check at the start of the first packet the
        serializer has not yet reached; the packet on the wire, if
        any, finishes.
        """
        if self.up and not up:
            now = self.env.now
            for train in self._trains:
                starts, _ = self._replay(train)
                if starts and starts[-1] >= now:
                    index = bisect_left(starts, now)
                    self._arm_check(train, index, starts[index])
                    break
        self.up = up

    def _replay(self, train: Train) -> tuple:
        """``(starts, free)``: each packet's start of serialization and
        the serializer's ``free_at`` after the last, by the recursion
        of :meth:`send` (same float operations) from ``free_before``."""
        free = train.free_before
        bps = self.bandwidth_bps
        starts = []
        for size, at in zip(_sizes(train.packets), train.sent):
            start = free if free > at else at
            starts.append(start)
            free = start + size * 8 / bps
        return starts, free

    def _arm_check(self, train: Train, index: int, start: float) -> None:
        self.env.timeout(start - self.env.now,
                         (train, index)).callbacks.append(self._check)

    def _check(self, event) -> None:
        """At a packet's start: if the link is still down, drop it and
        every packet sent after it by now, and free the serializer now.

        Packets whose send instant is still ahead are not queued yet:
        they are sent again from the freed serializer, which arms the
        next check if the link is still down then.
        """
        train, index = event.value
        if self.up or len(train.packets) <= index:
            return  # back up, or the packet already went
        now = self.env.now
        trains = self._trains
        try:
            position = trains.index(train)
        except ValueError:
            return  # delivered in this very instant (a zero-time hop)
        victims = [trains[i] for i in range(position, len(trains))]
        dropped = []
        stale = []
        later_packets: List[Packet] = []
        later_sent: List[float] = []
        for number, victim in enumerate(victims):
            first = index if number == 0 else 0
            sent = victim.sent
            # Only a handed-over train has spans; a dropped packet's
            # span is rewritten as a drop below, a later one's goes.
            spans = victim.spans
            for i in range(first, len(victim.packets)):
                span = spans[i] if spans else None
                if sent[i] <= now:
                    dropped.append((victim.packets[i], sent[i], span))
                else:
                    later_packets.append(victim.packets[i])
                    later_sent.append(sent[i])
                    stale.append(span)
            if spans:
                del spans[first:]
            self._cut(victim, first)
        for _ in range(len(victims) - (1 if index else 0)):
            trains.pop()
        self.free_at = now
        stats = self.stats
        stats.packets_dropped += len(dropped)
        stats.packets_dropped_down += len(dropped)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.discard(stale)
            for packet, sent_at, span in dropped:
                if span is not None:
                    span.end = now
                    span.tags["dropped"] = "link_down"
                else:
                    self._trace_hop(packet, sent_at, now,
                                    dropped="link_down")
        if later_packets:
            self.send(later_packets, later_sent, roll=False)

    def _cut(self, train: Train, index: int) -> None:
        """Packets ``index..`` of ``train`` will not be delivered.

        Un-counts and retracts them if the train was handed over,
        cancels the hand-over if the whole train goes.
        """
        packets = train.packets
        removed = packets[index:]
        if not removed:
            return
        handed = train.timeout is None
        del packets[index:]
        del train.times[index:]
        del train.sent[index:]
        removed_bytes = sum(_sizes(removed))
        train.size_bytes -= removed_bytes
        if handed:
            stats = self.stats
            stats.packets_sent -= len(removed)
            stats.bytes_sent -= removed_bytes
            if train.spans:
                self.env.tracer.discard(train.spans[index:])
                del train.spans[index:]
            self.retract(train, removed)
        elif index == 0:
            train.timeout.cancel()

    def take_back(self, taken) -> None:
        """Withdraw the packets in the set ``taken``, which the sender
        sent here with send instants still ahead: the last ones it
        sent. The serializer is freed back to before the first."""
        trains = self._trains
        while trains:
            train = trains[-1]
            packets = train.packets
            index = len(packets)
            if packets.__class__ is Segments:
                # Taken segments were made into packets by the switch;
                # a segment that never was cannot be in ``taken``.
                while index and packets.made(index - 1) in taken:
                    index -= 1
            else:
                while index and packets[index - 1] in taken:
                    index -= 1
            if index == len(packets):
                break
            self._cut(train, index)
            _, self.free_at = self._replay(train)
            if index:
                break
            trains.pop()
        lost = self._lost
        while lost and lost[-1][1] in taken:
            _, _, span = lost.pop()
            self.stats.packets_dropped -= 1
            if span is not None:
                self.env.tracer.discard([span])

    def _handed(self, event) -> None:
        """Hand a train to the receiver at its first arrival."""
        train = event.value
        train.timeout = None
        packets = train.packets
        stats = self.stats
        stats.packets_sent += len(packets)
        stats.bytes_sent += train.size_bytes
        if self.env.tracer is not None:
            train.spans = [
                self._trace_hop(packet, sent_at, at)
                for packet, sent_at, at in zip(packets, train.sent,
                                               train.times)]
        now = self.env.now
        trains = self._trains
        while trains and trains[0].timeout is None \
                and trains[0].times[-1] <= now:
            trains.popleft()
        lost = self._lost
        while lost and lost[0][0] <= now:
            lost.popleft()
        self.deliver(train)

    def _trace_hop(self, packet: Packet, sent_at: float, at: float,
                   dropped: Optional[str] = None):
        tracer = self.env.tracer
        if tracer is None:
            return None
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return None
        tags = {"bytes": packet.size_bytes}
        if dropped is not None:
            tags["dropped"] = dropped
        span = tracer.begin(
            "net.link", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=sent_at, tags=tags,
        )
        if span is not None:
            span.end = at
        return span


class Link:
    """A full-duplex link between endpoints ``a`` and ``b``.

    Each endpoint attaches a receiver with :meth:`attach`.
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
        self._ab = _Direction(env, f"{a}->{b}", bandwidth_bps,
                              propagation_delay, drop_probability, rng)
        self._ba = _Direction(env, f"{b}->{a}", bandwidth_bps,
                              propagation_delay, drop_probability, rng)

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

    def attach(self, endpoint: str, deliver: Callable,
               retract: Optional[Callable] = None) -> None:
        """Register the receiver for one endpoint.

        Without ``retract``, ``deliver(packet)`` is called once per
        packet, at its arrival. With it, ``deliver(train)`` receives
        each :class:`Train` at its first arrival, and ``retract(train,
        removed)`` is called after packets of a delivered train are
        taken out of it because they will not arrive.
        """
        direction = self._towards(endpoint)
        if retract is None:
            adapter = PacketByPacket(self.env, deliver)
            deliver, retract = adapter.receive, adapter.retract
        direction.deliver = deliver
        direction.retract = retract

    def send(self, from_endpoint: str, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission from ``from_endpoint``."""
        if from_endpoint == self.a:
            self._ab.send((packet,))
        else:
            self.direction(from_endpoint).send((packet,))

    def send_train(self, from_endpoint: str, packets: Sequence[Packet],
                   sent: Optional[Sequence[float]] = None) -> None:
        """Enqueue a train: ``packets`` back to back, in order."""
        self.direction(from_endpoint).send(packets, sent)

    def stats(self, from_endpoint: str) -> LinkStats:
        """Transmit-direction counters for ``from_endpoint``."""
        return self.direction(from_endpoint).stats

    def direction(self, from_endpoint: str) -> _Direction:
        """The transmit direction of ``from_endpoint``."""
        if from_endpoint == self.a:
            return self._ab
        if from_endpoint == self.b:
            return self._ba
        raise ValueError(f"{from_endpoint!r} is not an endpoint of this link")

    def _towards(self, endpoint: str) -> _Direction:
        if endpoint == self.a:
            return self._ba
        if endpoint == self.b:
            return self._ab
        raise ValueError(f"{endpoint!r} is not an endpoint of this link")
