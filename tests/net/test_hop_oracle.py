"""Differential oracle and invariants for the link and switch servers.

``repro.net`` runs every link direction and the switch pipeline as an
analytic FIFO server (Lindley's recursion, one timeout per packet per
server); ``tests/net/legacy_hops.py`` keeps the Store- and
process-based implementation of the same model. Both run random
traffic through a three-node star around one switch, with link flaps
and partitions at random instants.

On schedules without same-instant ties they must agree exactly on:

- every delivery: its instant, node and packet, in delivery order;
- every hop span, which records each drop, its cause and its instant;
- every ``LinkStats`` and ``SwitchStats`` counter.

A byte takes one tick on the wire, and propagation and switching take
a whole number of ticks (zero included). Each send falls at its own
sub-tick offset, ``(i + 1) / 256`` of a tick for the ``i``-th action,
and flaps and partitions fall on half-ticks, so no fault shares an
instant with a packet's stage, and two packets' stages meet only when
one queued behind the other. Loss is off, and a receiver either
ignores a packet or answers it.

Where instants tie, DESIGN.md §14 declares some orders incidental: the
order of same-instant arrivals at the switch from different links, of
deliveries within one instant, of a receiver cutting its own link in
the instant of the next take-up, and of loss draws on a shared rng.
There the servers need not match the oracle, but every schedule,
ties, loss and receivers flipping their own link included, must keep:

- each packet is delivered at most once, or dropped with exactly one
  cause;
- each link direction delivers in the order it was sent;
- per direction, packets sent plus packets dropped equals packets
  offered.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import HeaderStack, Link, Packet, Switch, UDPHeader
from repro.obs import Tracer
from repro.sim import Environment, RngRegistry
from tests.net import legacy_hops

NODES = ("a", "b", "c")
TICK = 2.0 ** -20
BANDWIDTH_BPS = 8 / TICK
#: Partition groups to set (None heals the fabric).
GROUPINGS = (None, (("a",), ("b", "c")), (("c",), ("a", "b")),
             (("a", "c"), ("b",)))

ticks = st.integers(min_value=0, max_value=80)
hops = st.integers(min_value=0, max_value=2)
#: Zero-delay stages put the most events in one instant: half the draws.
stage_ticks = st.just(0) | st.integers(min_value=1, max_value=40)
send = st.tuples(st.just("send"), ticks, hops, st.sampled_from(NODES),
                 st.sampled_from(NODES + ("ghost",)),
                 st.integers(min_value=0, max_value=24))
flap = st.tuples(st.just("flap"), ticks, hops, st.sampled_from(NODES),
                 st.booleans())
partition = st.tuples(st.just("partition"), ticks, hops,
                      st.sampled_from(GROUPINGS))

#: Any schedule: actions on whole ticks, behind zero to two further
#: zero-delay timeouts, so stages and faults often share an instant.
scenarios = st.fixed_dictionaries({
    "actions": st.lists(st.one_of(send, flap, partition), max_size=40),
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
    "actions": st.lists(st.one_of(send, flap, partition), max_size=40),
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


def run(link_class, switch_class, scenario) -> dict:
    """Run ``scenario`` on the given servers; returns what they did.

    Besides the compared results, ``"offered"`` and ``"delivered"``
    list, per link direction, the trace ids of the packets handed to it
    and of those it delivered, each in order.
    """
    env = Environment()
    tracer = Tracer(env)
    env.set_tracer(tracer)
    rng = RngRegistry(seed=scenario["seed"]).stream("fabric")
    switch = switch_class(env,
                          switching_latency=scenario["switching_ticks"] * TICK)
    links, deliveries = {}, []
    offered, delivered = defaultdict(list), defaultdict(list)

    def receive(name, received):
        delivered[f"switch->{name}"].append(received.meta["trace"][0])
        deliveries.append((env.now, name, received.payload))
        reaction = scenario["reaction"]
        if reaction == "echo" and isinstance(received.payload, int):
            links[name].send(name, packet(
                name, received.src, ("echo", received.payload), 4,
                -received.meta["trace"][0]))
        elif reaction == "flap":
            links[name].set_state(not links[name].up)

    def recording(link, send):
        def recorded(from_endpoint, sent):
            to = link.b if from_endpoint == link.a else link.a
            offered[f"{from_endpoint}->{to}"].append(sent.meta["trace"][0])
            send(from_endpoint, sent)
        return recorded

    def switch_receive(name, receive_at_switch):
        def received(arrived):
            delivered[f"{name}->switch"].append(arrived.meta["trace"][0])
            receive_at_switch(arrived)
        return received

    for name in NODES:
        link = link_class(
            env, name, switch.name, bandwidth_bps=BANDWIDTH_BPS,
            propagation_delay=scenario["propagation_ticks"] * TICK,
            drop_probability=scenario["drop_probability"], rng=rng)
        link.send = recording(link, link.send)
        switch.attach_link(link, peer=name)
        link.attach(switch.name, switch_receive(name, switch._receive))
        link.attach(name, lambda received, name=name: receive(name, received))
        links[name] = link

    def after(hops, action):
        if hops:
            env.timeout(0).callbacks.append(
                lambda event: after(hops - 1, action))
        else:
            action()

    for index, (kind, tick, hops, *args) in enumerate(scenario["actions"]):
        if kind == "send":
            src, dst, payload_bytes = args
            action = (lambda src=src, sent=packet(
                src, dst, index, payload_bytes, index + 1):
                links[src].send(src, sent))
        elif kind == "flap":
            name, up = args
            action = lambda name=name, up=up: links[name].set_state(up)
        elif args[0] is None:
            action = switch.heal_partition
        else:
            action = lambda groups=args[0]: switch.set_partition(*groups)
        if scenario["offsets"]:
            at = tick + ((index + 1) / 256 if kind == "send" else 0.5)
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
        "delivered": dict(delivered),
    }


def compared(result: dict) -> dict:
    return {key: result[key]
            for key in ("deliveries", "hops", "links", "switch")}


@settings(max_examples=1000, deadline=None)
@given(scenario=tie_free_scenarios)
def test_callback_servers_match_the_store_and_process_oracle(scenario):
    """The analytic servers match the oracle exactly on tie-free
    schedules (the name is from the callback servers they replaced)."""
    expected = run(legacy_hops.Link, legacy_hops.Switch, scenario)
    assert compared(run(Link, Switch, scenario)) == compared(expected)


@settings(max_examples=1000, deadline=None)
@given(scenario=scenarios)
def test_every_schedule_keeps_the_hop_invariants(scenario):
    result = run(Link, Switch, scenario)
    # Each packet ends exactly once: delivered to a node, or dropped
    # with one cause on one hop.
    delivered = Counter(trace_id
                        for direction, ids in result["delivered"].items()
                        if direction.startswith("switch->")
                        for trace_id in ids)
    dropped = Counter(trace_id
                      for trace_id, _, _, _, _, tags in result["hops"]
                      for key, value in tags
                      if key == "dropped"
                      or key == "verdict" and value.startswith("dropped"))
    for trace_id in {trace_id for ids in result["offered"].values()
                     for trace_id in ids}:
        assert delivered[trace_id] + dropped[trace_id] == 1, trace_id
    for direction, ids in result["offered"].items():
        arrived = result["delivered"].get(direction, [])
        # FIFO per direction: deliveries keep the order of sends.
        kept = set(arrived)
        assert arrived == [trace_id for trace_id in ids
                           if trace_id in kept], direction
        # Offered = sent + dropped, per direction.
        stats = result["links"][direction]
        assert stats["packets_sent"] == len(arrived)
        assert stats["packets_sent"] + stats["packets_dropped"] == len(ids)


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
