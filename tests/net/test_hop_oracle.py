"""Differential oracle and invariants for the link and switch servers.

``repro.net`` runs every link direction and the switch pipeline as an
analytic FIFO server that takes whole packet trains (Lindley's
recursion over the train, one timeout per train per server);
``tests/net/legacy_hops.py`` keeps the Store- and process-based
implementation of the same model, one packet at a time. Both run
random traffic through a three-node star around one switch: single
packets mixed with trains of 1 to 40 packets, with link flaps and
partitions at random instants, so cuts and partitions often fall
inside a train.

On schedules without same-instant ties they must agree exactly on:

- every delivery: its instant, node and packet, in delivery order at
  each node;
- every hop span, which records each drop, its cause and its instant;
- every ``LinkStats`` and ``SwitchStats`` counter.

A byte takes one tick on the wire, and propagation and switching take
a whole number of ticks (zero included). Each send falls at its own
sub-tick offset, ``(i + 1) / 256`` of a tick for the ``i``-th action,
and flaps and partitions fall on half-ticks, so no fault shares an
instant with a packet's stage, and two packets' stages meet only when
one queued behind the other. An answer leaves at its own offset,
``k / 65536`` of a tick after the delivery for the ``k``-th answer,
since a delivery instant carries the offset of whatever the packet
queued behind. Loss is off, and a receiver either ignores a packet or
answers a single packet.

Where instants tie, DESIGN.md §14 declares some orders incidental: the
order of same-instant arrivals at the switch from different links, of
deliveries within one instant, of a receiver cutting its own link in
the instant of the next take-up, and of loss draws on a shared rng.
There the servers need not match the oracle, but every schedule,
ties, loss and receivers flipping their own link included, must keep:

- each packet is delivered at most once, or dropped with exactly one
  cause;
- each link direction delivers in the order packets were sent to it;
- per direction, packets sent plus packets dropped equals packets
  offered.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    HeaderStack,
    Link,
    Message,
    Packet,
    Segment,
    Segments,
    Switch,
    Train,
    UDPHeader,
)
from repro.obs import Tracer
from repro.sim import Environment, RngRegistry
from tests.net import legacy_hops

NODES = ("a", "b", "c")
TICK = 2.0 ** -20
BANDWIDTH_BPS = 8 / TICK
#: Partition groups to set (None heals the fabric).
GROUPINGS = (None, (("a",), ("b", "c")), (("c",), ("a", "b")),
             (("a", "c"), ("b",)))

ticks = st.integers(min_value=0, max_value=300)
hops = st.integers(min_value=0, max_value=2)
#: Zero-delay stages put the most events in one instant: half the draws.
stage_ticks = st.just(0) | st.integers(min_value=1, max_value=40)
send = st.tuples(st.just("send"), ticks, hops, st.sampled_from(NODES),
                 st.sampled_from(NODES + ("ghost",)),
                 st.integers(min_value=0, max_value=24))
train = st.tuples(st.just("train"), ticks, hops, st.sampled_from(NODES),
                  st.sampled_from(NODES + ("ghost",)),
                  st.integers(min_value=0, max_value=24),
                  st.integers(min_value=1, max_value=40))
#: An RDMA message: segment size, segment count, and how much shorter
#: than full the last segment is.
message = st.tuples(st.just("message"), ticks, hops, st.sampled_from(NODES),
                    st.sampled_from(NODES + ("ghost",)),
                    st.integers(min_value=1, max_value=24),
                    st.integers(min_value=1, max_value=40),
                    st.integers(min_value=0, max_value=23))
flap = st.tuples(st.just("flap"), ticks, hops, st.sampled_from(NODES),
                 st.booleans())
partition = st.tuples(st.just("partition"), ticks, hops,
                      st.sampled_from(GROUPINGS))
actions = st.lists(st.one_of(send, train, message, flap, partition),
                   max_size=30)

#: Any schedule: actions on whole ticks, behind zero to two further
#: zero-delay timeouts, so stages and faults often share an instant.
scenarios = st.fixed_dictionaries({
    "actions": actions,
    "offsets": st.just(False),
    "propagation_ticks": stage_ticks,
    "switching_ticks": stage_ticks,
    "reaction": st.sampled_from([None, "echo", "flap"]),
    "drop_probability": st.sampled_from([0.0, 0.3, 0.6]),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})

#: Tie-free schedules: sends at distinct sub-tick offsets, faults on
#: half-ticks, no loss, and no receiver touching its own link.
tie_free_scenarios = st.fixed_dictionaries({
    "actions": actions,
    "offsets": st.just(True),
    "propagation_ticks": stage_ticks,
    "switching_ticks": stage_ticks,
    "reaction": st.sampled_from([None, "echo"]),
    "drop_probability": st.just(0.0),
    "seed": st.just(0),
})


def packet(src, dst, payload, payload_bytes, trace_id) -> Packet:
    return Packet(src, dst, HeaderStack([UDPHeader()]), payload=payload,
                  payload_bytes=payload_bytes,
                  meta={"trace": (trace_id, None)})


def rdma_message(src, dst, segment_bytes, count, short, request_id,
                 trace_id) -> Message:
    size = count * segment_bytes - min(short, segment_bytes - 1)
    return Message(src, dst, (UDPHeader(),), wid=1, request_id=request_id,
                   qp=1, size=size, segment_bytes=segment_bytes,
                   meta={"trace": (trace_id, None)})


def ident(sent: Packet):
    """A packet's trace id; ``(request id, seq)`` for a segment."""
    if isinstance(sent, Segment):
        return sent.key[1], sent.seq
    return sent.meta["trace"][0]


def idents(packets) -> list:
    """``ident`` of each packet; a message's view is not iterated, so
    its segments are not made into packets."""
    if isinstance(packets, Segments):
        request_id = packets.message.request_id
        return [(request_id, seq) for seq in
                range(packets.first, packets.first + len(packets))]
    return [ident(packet) for packet in packets]


def run(link_class, switch_class, scenario, traced=True) -> dict:
    """Run ``scenario`` on the given servers; returns what they did.

    Besides the compared results, ``"offered"`` and ``"arrived"`` list,
    per link direction, the idents of the packets handed to it and of
    those that reached its receiver, each in order. A node's arrivals
    are the packets its receive callback got. The switch's are the
    packets of each train handed to it, less those the link took back
    before they arrived. ``"traces"`` maps a message's request id to
    its trace id. Untraced, the run records no hop spans, and the
    servers take a message's view whole where they can.
    """
    env = Environment()
    tracer = Tracer(env)
    if traced:
        env.set_tracer(tracer)
    rng = RngRegistry(seed=scenario["seed"]).stream("fabric")
    switch = switch_class(env,
                          switching_latency=scenario["switching_ticks"] * TICK)
    links, deliveries = {}, []
    offered, arrived = defaultdict(list), defaultdict(list)
    taken_back = Counter()

    echoes = []

    def receive(name, received):
        arrived[f"switch->{name}"].append(ident(received))
        deliveries.append((env.now, name, ident(received)
                           if isinstance(received, Segment)
                           else received.payload))
        reaction = scenario["reaction"]
        if reaction == "echo" and isinstance(received.payload, int):
            echo = packet(name, received.src, ("echo", received.payload), 4,
                          -ident(received))
            echoes.append(echo)
            if scenario["offsets"]:
                # A delivery instant carries the offset of whatever the
                # packet queued behind, a train's segments included;
                # the echo leaves at its own offset, off that grid.
                env.timeout(len(echoes) / 65536 * TICK).callbacks.append(
                    lambda event: links[name].send(name, echo))
            else:
                links[name].send(name, echo)
        elif reaction == "flap":
            links[name].set_state(not links[name].up)

    def withdrawn(log, taken) -> None:
        """Remove ``taken`` from ``log``: they must be its last entries."""
        kept = [entry for entry in log if entry not in taken]
        assert log[:len(kept)] == kept, (log, taken)
        log[:] = kept

    def recording_sends(direction) -> None:
        """Log the packets handed to ``direction``, by a node or by the
        switch. Packets the switch takes back leave the log; it sends
        them again, or drops them, later."""
        log = offered[direction.name]
        send = direction.send

        def sent(packets, at=None, **kwargs):
            if kwargs.get("roll", True):  # not the re-send after a cut
                log.extend(idents(packets))
            send(packets, at, **kwargs)
        direction.send = sent
        take_back = getattr(direction, "take_back", None)
        if take_back is not None:
            def taking_back(taken, name=direction.name):
                taken_back[name] += len(taken)
                withdrawn(log, set(idents(taken)))
                take_back(taken)
            direction.take_back = taking_back

    def recording_arrivals(direction) -> None:
        """Log the packets ``direction`` hands to the switch, a train's
        or one at a time, less those it takes back from a train."""
        log = arrived[direction.name]
        deliver = direction.deliver

        def delivered(item):
            log.extend(idents(item.packets if isinstance(item, Train)
                              else (item,)))
            deliver(item)
        direction.deliver = delivered
        retract = getattr(direction, "retract", None)
        if retract is not None:
            def retracted(train, removed):
                withdrawn(log, set(idents(removed)))
                retract(train, removed)
            direction.retract = retracted

    for name in NODES:
        link = link_class(
            env, name, switch.name, bandwidth_bps=BANDWIDTH_BPS,
            propagation_delay=scenario["propagation_ticks"] * TICK,
            drop_probability=scenario["drop_probability"], rng=rng)
        switch.attach_link(link, peer=name)
        link.attach(name, lambda received, name=name: receive(name, received))
        for end in (name, switch.name):
            recording_sends(link.direction(end))
        recording_arrivals(link.direction(name))
        links[name] = link

    def after(hops, action):
        if hops:
            env.timeout(0).callbacks.append(
                lambda event: after(hops - 1, action))
        else:
            action()

    def sending(src, packets):
        if len(packets) == 1:
            return lambda: links[src].send(src, packets[0])
        return lambda: links[src].send_train(src, packets)

    trace_ids = iter(range(1, 10 ** 6))
    traces = {}
    for index, (kind, tick, hops, *args) in enumerate(scenario["actions"]):
        if kind == "send":
            src, dst, payload_bytes = args
            action = sending(src, [packet(src, dst, index, payload_bytes,
                                          next(trace_ids))])
        elif kind == "train":
            src, dst, payload_bytes, length = args
            action = sending(src, [
                packet(src, dst, ("train", index, k), payload_bytes,
                       next(trace_ids)) for k in range(length)])
        elif kind == "message":
            src, dst, *shape = args
            traces[index] = next(trace_ids)
            sent = rdma_message(src, dst, *shape, index, traces[index])
            action = (lambda src=src, sent=sent:
                      links[src].send_train(src, sent.segments()))
        elif kind == "flap":
            name, up = args
            action = lambda name=name, up=up: links[name].set_state(up)
        elif args[0] is None:
            action = switch.heal_partition
        else:
            action = lambda groups=args[0]: switch.set_partition(*groups)
        if scenario["offsets"]:
            at = tick + ((index + 1) / 256
                         if kind in ("send", "train", "message") else 0.5)
            hops = 0
        else:
            at = tick
        env.timeout(at * TICK).callbacks.append(
            lambda event, hops=hops, action=action: after(hops, action))
    env.run()
    return {
        "deliveries": deliveries,
        "hops": sorted((span.trace_id, span.name, span.node, span.start,
                        span.end, sorted(span.tags.items()))
                       for span in tracer.spans),
        "links": {f"{src}->{dst}": vars(links[name].stats(src))
                  for name in NODES
                  for src, dst in ((name, switch.name), (switch.name, name))},
        "switch": vars(switch.stats),
        "offered": dict(offered),
        "arrived": dict(arrived),
        "traces": traces,
        "taken_back": dict(taken_back),
    }


def compared(result: dict) -> dict:
    """The results that must match. Packets that queued behind the same
    packet can reach two nodes in one instant, in either order, so
    deliveries are compared by instant and node (one node never takes
    two packets in one instant)."""
    compared = {key: result[key] for key in ("hops", "links", "switch")}
    compared["deliveries"] = sorted(result["deliveries"],
                                    key=lambda delivery: delivery[:2])
    return compared


def untraced(result: dict) -> dict:
    """``result`` as an untraced run of the same schedule must end: the
    same deliveries and counters, and no hop spans."""
    return {**result, "hops": []}


@settings(max_examples=1000, deadline=None)
@given(scenario=tie_free_scenarios)
def test_callback_servers_match_the_store_and_process_oracle(scenario):
    """The analytic train servers match the per-packet oracle exactly
    on tie-free schedules (the name is from the callback servers the
    analytic ones replaced), traced and untraced: untraced, they take
    a message's view whole and make no segment into a packet for a
    hop span."""
    expected = compared(run(legacy_hops.Link, legacy_hops.Switch, scenario))
    assert compared(run(Link, Switch, scenario)) == expected
    assert compared(run(Link, Switch, scenario, traced=False)) \
        == untraced(expected)


def assert_fifo_and_counted(result: dict) -> None:
    """Each direction delivers in the order packets were sent to it,
    nothing twice, and counts each packet offered as sent or dropped."""
    for direction, ids in result["offered"].items():
        arrived = result["arrived"].get(direction, [])
        # FIFO per direction: arrivals keep the order of sends, and
        # nothing arrives twice.
        kept = set(arrived)
        assert arrived == [trace_id for trace_id in ids
                           if trace_id in kept], direction
        # Offered = sent + dropped, per direction.
        stats = result["links"][direction]
        assert stats["packets_sent"] == len(arrived)
        assert stats["packets_sent"] + stats["packets_dropped"] == len(ids)


@settings(max_examples=1000, deadline=None)
@given(scenario=scenarios)
def test_every_schedule_keeps_the_hop_invariants(scenario):
    """Every schedule keeps the invariants traced; untraced, it keeps
    those that need no hop span, and ends as the traced run did."""
    result = run(Link, Switch, scenario)
    # Each packet ends exactly once: delivered to a node, or dropped
    # with one cause on one hop. A message's segments share its trace
    # id, so the count per trace id is its segments'.
    traces = result["traces"]

    def trace_of(ident):
        return traces[ident[0]] if isinstance(ident, tuple) else ident

    delivered = Counter(trace_of(ident)
                        for direction, ids in result["arrived"].items()
                        if direction.startswith("switch->")
                        for ident in ids)
    dropped = Counter(trace_id
                      for trace_id, _, _, _, _, tags in result["hops"]
                      for key, value in tags
                      if key == "dropped" or key == "verdict"
                      and value.startswith("dropped"))
    offered = Counter(trace_of(ident) for ident in {
        ident for ids in result["offered"].values() for ident in ids})
    for trace_id, count in offered.items():
        assert delivered[trace_id] + dropped[trace_id] == count, trace_id
    assert_fifo_and_counted(result)
    quiet = run(Link, Switch, scenario, traced=False)
    assert_fifo_and_counted(quiet)
    assert quiet == untraced(result)


def test_receiver_cutting_its_link_at_the_next_take_up_drops_that_packet():
    """c's first delivery and its downlink's next take-up share an
    instant. c cuts its link from the receive callback; the cut's check
    runs at that instant, after the cut, so the next packet and the one
    queued behind it are dropped there."""
    scenario = {
        "actions": [("send", 0, 0, "a", "c", 0), ("send", 0, 0, "b", "c", 0),
                    ("send", 0, 0, "a", "c", 0)],
        "offsets": False, "propagation_ticks": 0, "switching_ticks": 0,
        "reaction": "flap", "drop_probability": 0.0, "seed": 0}
    result = run(Link, Switch, scenario)
    # 8-byte packets: each takes 8 ticks on every link.
    assert result["deliveries"] == [(16 * TICK, "c", 0)]
    drops = [(trace_id, start / TICK, end / TICK, dict(tags)["dropped"])
             for trace_id, name, node, start, end, tags in result["hops"]
             if node == "switch->c" and "dropped" in dict(tags)]
    assert drops == [(2, 8, 16, "link_down"), (3, 16, 16, "link_down")]
    assert result["links"]["switch->c"]["packets_dropped_down"] == 2


def test_a_train_crosses_each_server_in_one_event():
    """A 40-packet train from a to c: one hand-over per link and one
    switching batch for a receiver that takes whole trains, and each
    packet's instants equal the oracle's."""
    scenario = {
        "actions": [("train", 0, 0, "a", "c", 8, 40)],
        "offsets": False, "propagation_ticks": 3, "switching_ticks": 2,
        "reaction": None, "drop_probability": 0.0, "seed": 0}
    expected = run(legacy_hops.Link, legacy_hops.Switch, scenario)
    assert compared(run(Link, Switch, scenario)) == compared(expected)
    env = Environment()
    switch = Switch(env, switching_latency=2 * TICK)
    links, trains = {}, []
    for name in ("a", "c"):
        links[name] = Link(env, name, "switch", bandwidth_bps=BANDWIDTH_BPS,
                           propagation_delay=3 * TICK)
        switch.attach_link(links[name], peer=name)
        links[name].attach(name, trains.append, lambda train, removed: None)
    links["a"].send_train("a", [packet("a", "c", k, 8, k + 1)
                                for k in range(40)])
    env.run()
    assert env._eid == 3
    [train] = trains
    assert train.times == [at for at, _, _ in expected["deliveries"]]


def test_other_traffic_splits_a_train_at_the_switch():
    """b's packet reaches the switch while a's train is still arriving:
    it is switched between the segments that arrived before it and the
    rest, exactly as one packet at a time, and the train's tail is
    handed on again."""
    scenario = {
        "actions": [("train", 0, 0, "a", "c", 8, 10),
                    ("send", 30, 0, "b", "c", 8)],
        "offsets": True, "propagation_ticks": 1, "switching_ticks": 12,
        "reaction": None, "drop_probability": 0.0, "seed": 0}
    expected = run(legacy_hops.Link, legacy_hops.Switch, scenario)
    assert compared(run(Link, Switch, scenario)) == compared(expected)
    order = [payload for _, node, payload in expected["deliveries"]]
    assert order.index(1) not in (0, len(order) - 1)


def message_scenario(actions, **stages) -> dict:
    scenario = {"actions": actions, "offsets": True, "propagation_ticks": 1,
                "switching_ticks": 12, "reaction": None,
                "drop_probability": 0.0, "seed": 0}
    scenario.update(stages)
    return scenario


def test_a_message_crosses_each_server_as_one_object():
    """A 40-segment message from a to c: one hand-over per link and one
    switching batch, each segment's instants equal the oracle's, and
    no segment is made into a packet on the way to a receiver that
    takes whole trains."""
    scenario = message_scenario([("message", 0, 0, "a", "c", 8, 40, 3)],
                                offsets=False, propagation_ticks=3,
                                switching_ticks=2)
    expected = run(legacy_hops.Link, legacy_hops.Switch, scenario)
    assert compared(run(Link, Switch, scenario, traced=False)) \
        == untraced(compared(expected))
    env = Environment()
    switch = Switch(env, switching_latency=2 * TICK)
    links, trains = {}, []
    for name in ("a", "c"):
        links[name] = Link(env, name, "switch", bandwidth_bps=BANDWIDTH_BPS,
                           propagation_delay=3 * TICK)
        switch.attach_link(links[name], peer=name)
        links[name].attach(name, trains.append, lambda train, removed: None)
    sent = rdma_message("a", "c", 8, 40, 3, 0, 1)
    links["a"].send_train("a", sent.segments())
    env.run()
    assert env._eid == 3
    [train] = trains
    assert isinstance(train.packets, Segments) and not sent._packets
    assert train.times == [at for at, _, _ in expected["deliveries"]]
    assert vars(links["c"].stats("switch")) == expected["links"]["switch->c"]


@pytest.mark.parametrize("traced", [False, True])
def test_other_traffic_splits_a_message_at_the_switch(traced):
    """b's packet reaches the switch after a's message was routed on
    but before its last segments arrive: the switch takes back the
    later segments from c's link and switches them again behind the
    packet, as one packet at a time would."""
    scenario = message_scenario([("message", 0, 0, "a", "c", 8, 10, 0),
                                 ("send", 300, 0, "b", "c", 8)])
    expected = compared(run(legacy_hops.Link, legacy_hops.Switch, scenario))
    result = run(Link, Switch, scenario, traced)
    assert compared(result) == (expected if traced else untraced(expected))
    order = [payload for _, node, payload in expected["deliveries"]]
    assert order.index(1) not in (0, len(order) - 1)
    assert result["taken_back"]["switch->c"] == 10 - order.index(1)


@pytest.mark.parametrize("traced", [False, True])
def test_a_cut_inside_a_message_drops_the_segments_it_reaches(traced):
    """c's link goes down while a's message is crossing it and comes
    back before the message ends: the segments the serializer reaches
    while it is down are dropped there, the later ones delivered."""
    scenario = message_scenario([("message", 0, 0, "a", "c", 8, 10, 0),
                                 ("flap", 200, 0, "c", False),
                                 ("flap", 400, 0, "c", True)])
    expected = compared(run(legacy_hops.Link, legacy_hops.Switch, scenario))
    result = run(Link, Switch, scenario, traced)
    assert compared(result) == (expected if traced else untraced(expected))
    stats = result["links"]["switch->c"]
    assert stats["packets_dropped_down"] and stats["packets_sent"]
