"""A store-and-forward Ethernet switch (the testbed's Arista DCS-7124S).

The switch receives packets from attached links, looks up the egress
port by destination node name, charges a fixed switching latency, and
forwards out of per-port FIFO queues. Every port feeds one switching
pipeline, an analytic FIFO server: it keeps the instant the pipeline
frees up, so a packet arriving at ``t`` is switched from
``max(t, free_at)`` for the switching latency (Lindley's recursion).

The switch takes each link's trains whole (see :mod:`repro.net.link`):
one pass of the recursion over a train's arrival vector makes a
*batch*, and one timeout at the batch's first end of switching routes
it, each packet to its egress link as part of one train per link. A
lone packet is a batch of one.

A batch may hold packets that have not arrived yet. Three things undo
part of that work, each at the instant it happens:

- another train arrives: every packet arriving after that instant is
  taken back and switched again behind it, merged by arrival (a
  *split*);
- a link takes back packets that will not arrive (a cut upstream):
  they are removed and the later packets are switched again;
- a partition is set or healed: packets whose switching ends after
  that instant are routed again under the new partition, so the
  partition check still happens at each packet's end of switching.

A batch of an RDMA message's segments holds the message's view (see
:mod:`repro.net.message`). Its segments share a route, so an untraced
batch is routed with one verdict and handed on as one view. A split
makes the segments it takes back into packets and merges them with
the other train; a lone packet that has arrived is never held, since
nothing can split or rewind it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from ..obs import Tracer
from ..sim import Environment
from .link import Link, Train, _Direction
from .message import Segments
from .packet import Packet

#: A packet's routing verdict when it is not forwarded.
_UNKNOWN = "dropped_unknown"
_PARTITION = "dropped_partition"


class SwitchStats:
    def __init__(self) -> None:
        self.packets_forwarded = 0
        self.packets_flooded = 0
        self.packets_dropped_unknown = 0
        self.packets_dropped_partition = 0


class _Batch:
    """Packets switched back to back, with their instants."""

    __slots__ = ("packets", "arrivals", "outs", "free_before", "timeout",
                 "routes", "spans")

    def __init__(self, packets: List[Packet], arrivals: List[float],
                 outs: List[float], free_before: float) -> None:
        self.packets = packets
        self.arrivals = arrivals
        #: Each packet's end of switching, as the kernel reaches it.
        self.outs = outs
        #: The pipeline's ``free_at`` before the first packet.
        self.free_before = free_before
        self.timeout = None
        #: Per packet once routed: its egress direction, or a drop
        #: verdict string. None until the batch's timeout fires.
        self.routes: Optional[list] = None
        self.spans: Optional[list] = None


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
        self._egress: Dict[str, _Direction] = {}  # peer node -> direction
        self._table: Dict[str, str] = {}  # dst node -> peer node (port)
        #: Node -> partition-group index; None means no active partition.
        self._partition: Optional[Dict[str, int]] = None
        #: The instant the pipeline finishes the last packet received.
        self._free_at = env.now
        #: Batches with work still ahead, in service order.
        self._batches: Deque[_Batch] = deque()
        self.stats = SwitchStats()

    def attach_link(self, link: Link, peer: str) -> None:
        """Attach a link whose far endpoint is node ``peer``."""
        self._links[peer] = link
        self._egress[peer] = link.direction(self.name)
        link.attach(self.name, self._receive, self._retract)
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
        self._reroute()

    def heal_partition(self) -> None:
        """Remove any active partition; full connectivity resumes."""
        self._partition = None
        self._reroute()

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def _crosses_partition(self, src: str, dst: str) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src, 0) != self._partition.get(dst, 0)

    # -- the pipeline ----------------------------------------------------

    def _receive(self, train: Train) -> None:
        """Switch a train after the packets that arrived before it."""
        now = self.env.now
        batches = self._batches
        if batches and batches[-1].arrivals[-1] > now:
            # A split: packets still arriving queue behind this train
            # from their arrival on; same-instant arrivals keep the
            # older train first.
            old_packets, old_arrivals = self._rewind(now)
            self._accept(*_merge(old_packets, old_arrivals,
                                 train.packets, train.times))
        else:
            # A lone packet arrives now, behind everything accepted:
            # nothing can split or rewind it, so it is not held.
            self._accept(train.packets[:], train.times[:],
                         len(train.packets) > 1)

    def _retract(self, train: Train, removed: List[Packet]) -> None:
        """An upstream link took back ``removed``, which has not
        arrived: switch the packets after it again without it."""
        taken = set(removed)
        packets, arrivals = self._rewind(self.env.now)
        kept = [index for index, packet in enumerate(packets)
                if packet not in taken]
        if kept:
            self._accept([packets[index] for index in kept],
                         [arrivals[index] for index in kept])

    def _accept(self, packets: List[Packet], arrivals: List[float],
                held: bool = True) -> None:
        """Switch ``packets``, which arrive at ``arrivals``, as a batch
        after every packet accepted so far. A batch not ``held`` stays
        out of ``_batches``: it can never be undone."""
        free = free_before = self._free_at
        latency = self.switching_latency
        outs = []
        for at in arrivals:
            start = free if free > at else at
            free = start + latency
            outs.append(at + (free - at))
        self._free_at = free
        batch = _Batch(packets, arrivals, outs, free_before)
        timeout = self.env.timeout_at(outs[0], batch, self._switched)
        batch.timeout = timeout
        if held:
            self._batches.append(batch)

    def _free_after(self, batch: _Batch, count: int) -> float:
        """The pipeline's ``free_at`` after the first ``count`` packets
        of ``batch``: the recursion of :meth:`_accept`, with its float
        operations, replayed from ``free_before``."""
        free = batch.free_before
        latency = self.switching_latency
        for at in batch.arrivals[:count]:
            start = free if free > at else at
            free = start + latency
        return free

    def _rewind(self, after: float):
        """Take back every packet arriving after ``after``.

        Returns them with their arrival instants, in service order, and
        frees the pipeline back to before the first of them.
        """
        batches = self._batches
        position = len(batches)
        index = 0
        while position:
            arrivals = batches[position - 1].arrivals
            if arrivals[0] > after:
                position -= 1
                continue
            index = bisect_right(arrivals, after)
            if index == len(arrivals):
                index = 0  # all arrived: start at the next batch
            else:
                position -= 1
            break
        if position == len(batches):
            return [], []
        self._free_at = self._free_after(batches[position], index)
        packets, arrivals = self._unswitch(position, index)
        for _ in range(len(batches) - position - (1 if index else 0)):
            batches.pop()
        return packets, arrivals

    def _unswitch(self, position: int, index: int):
        """Undo the work of batches ``position..`` from packet ``index``
        of the first: routing, counters, spans and switch timeouts.
        Truncates the batches and returns the packets and arrivals."""
        packets: List[Packet] = []
        arrivals: List[float] = []
        taken: List[Packet] = []
        egress: Dict[_Direction, None] = {}  # ordered, for determinism
        batches = self._batches
        for number in range(position, len(batches)):
            batch = batches[number]
            first = index if number == position else 0
            packets.extend(batch.packets[first:])
            arrivals.extend(batch.arrivals[first:])
            if batch.routes is not None:
                self._unroute(batch, first, taken, egress)
            elif first == 0:
                batch.timeout.cancel()
            del batch.packets[first:]
            del batch.arrivals[first:]
            del batch.outs[first:]
        if egress:
            taken_set = set(taken)
            for direction in egress:
                direction.take_back(taken_set)
        return packets, arrivals

    def _unroute(self, batch: _Batch, first: int, taken: list,
                 egress: dict) -> None:
        """Undo the routing of ``batch`` from packet ``first``: counters
        and spans here; ``taken`` and ``egress`` collect what the
        egress links must take back."""
        stats = self.stats
        for packet, route in zip(batch.packets[first:], batch.routes[first:]):
            if route is _UNKNOWN:
                stats.packets_dropped_unknown -= 1
            elif route is _PARTITION:
                stats.packets_dropped_partition -= 1
            else:
                stats.packets_forwarded -= 1
                taken.append(packet)
                egress[route] = None
        del batch.routes[first:]
        if batch.spans:
            self.env.tracer.discard(batch.spans[first:])
            del batch.spans[first:]

    def _switched(self, event) -> None:
        """Route a batch whose first packet's switching is done."""
        batch = event.value
        batch.timeout = None
        packets = batch.packets
        if len(packets) == 1 and self.env.tracer is None:
            # The lone-packet case of _route, unrolled.
            packet = packets[0]
            peer = self._table.get(packet.dst)
            if peer is None:
                self.stats.packets_dropped_unknown += 1
                batch.routes = [_UNKNOWN]
            elif self._partition is not None \
                    and self._crosses_partition(packet.src, peer):
                self.stats.packets_dropped_partition += 1
                batch.routes = [_PARTITION]
            else:
                self.stats.packets_forwarded += 1
                direction = self._egress[peer]
                batch.routes = [direction]
                direction.send(packets, batch.outs)
        else:
            batch.routes = []
            self._route(batch, 0)
        now = self.env.now
        batches = self._batches
        while batches and batches[0].timeout is None \
                and batches[0].outs[-1] <= now:
            batches.popleft()

    def _route(self, batch: _Batch, first: int) -> None:
        """Route packets ``first..`` of a batch under the current
        table and partition: one train per egress link."""
        stats = self.stats
        table = self._table
        routes = batch.routes
        packets, outs = batch.packets, batch.outs
        if packets.__class__ is Segments and self.env.tracer is None:
            # A message's segments share their route: one verdict.
            message = packets.message
            count = len(packets) - first
            peer = table.get(message.dst)
            if peer is None:
                stats.packets_dropped_unknown += count
                routes.extend([_UNKNOWN] * count)
            elif self._partition is not None \
                    and self._crosses_partition(message.src, peer):
                stats.packets_dropped_partition += count
                routes.extend([_PARTITION] * count)
            else:
                stats.packets_forwarded += count
                direction = self._egress[peer]
                routes.extend([direction] * count)
                direction.send(packets[first:], outs[first:])
            return
        trains: Dict[_Direction, tuple] = {}
        for index in range(first, len(packets)):
            packet = packets[index]
            peer = table.get(packet.dst)
            if peer is None:
                stats.packets_dropped_unknown += 1
                routes.append(_UNKNOWN)
            elif self._partition is not None \
                    and self._crosses_partition(packet.src, peer):
                stats.packets_dropped_partition += 1
                routes.append(_PARTITION)
            else:
                stats.packets_forwarded += 1
                direction = self._egress[peer]
                routes.append(direction)
                train = trains.get(direction)
                if train is None:
                    trains[direction] = ([packet], [outs[index]])
                else:
                    train[0].append(packet)
                    train[1].append(outs[index])
        if self.env.tracer is not None:
            spans = batch.spans
            if spans is None:
                spans = batch.spans = []
            for index in range(first, len(packets)):
                route = routes[index]
                spans.append(self._trace_hop(
                    packets[index], batch.arrivals[index], outs[index],
                    route if route.__class__ is str else "forwarded"))
        for direction, (train_packets, sent) in trains.items():
            direction.send(train_packets, sent)

    def _reroute(self) -> None:
        """Route again, under the partition set now, every routed packet
        whose switching ends after now."""
        now = self.env.now
        marks = []
        for batch in self._batches:
            if batch.routes is None:
                break
            outs = batch.outs
            if outs and outs[-1] > now:
                marks.append((batch, bisect_right(outs, now)))
        if not marks:
            return
        taken: List[Packet] = []
        egress: Dict[_Direction, None] = {}  # ordered, for determinism
        for batch, first in marks:
            self._unroute(batch, first, taken, egress)
        taken_set = set(taken)
        for direction in egress:
            direction.take_back(taken_set)
        for batch, first in marks:
            self._route(batch, first)

    def _trace_hop(self, packet: Packet, entered_at: float, at: float,
                   verdict: str):
        tracer = self.env.tracer
        if tracer is None:
            return None
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return None
        span = tracer.begin(
            "net.switch", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=entered_at,
            tags={"verdict": verdict, "dst": packet.dst},
        )
        if span is not None:
            span.end = at
        return span


def _merge(first_packets, first_arrivals, second_packets, second_arrivals):
    """Merge two trains by arrival; ties keep ``first``'s packet first.

    The result is a list of packets: a message's segments are made into
    packets here.
    """
    packets: List[Packet] = []
    arrivals: List[float] = []
    i = j = 0
    while i < len(first_packets) and j < len(second_packets):
        if second_arrivals[j] < first_arrivals[i]:
            packets.append(second_packets[j])
            arrivals.append(second_arrivals[j])
            j += 1
        else:
            packets.append(first_packets[i])
            arrivals.append(first_arrivals[i])
            i += 1
    packets.extend(first_packets[i:])
    packets.extend(second_packets[j:])
    arrivals += first_arrivals[i:] + second_arrivals[j:]
    return packets, arrivals
