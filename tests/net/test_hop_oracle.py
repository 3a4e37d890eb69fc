"""Differential oracle for the link and switch servers.

``repro.net`` runs every link direction and the switch pipeline as a
FIFO server driven by timeout callbacks; ``tests/net/legacy_hops.py``
keeps the Store- and process-based implementation of the same model.
Both run the same random traffic through a three-node star around one
switch, on a fabric whose links share one seeded loss rng, with link
flaps and partitions at random instants. They must agree exactly on:

- every delivery: its instant, node and packet, in delivery order;
- every hop span, which records each drop and its cause;
- every ``LinkStats`` and ``SwitchStats`` counter;
- the loss rng's draws, each with its instant.

A byte takes one tick on the wire, propagation and switching take a
whole number of ticks (zero included), and every send, flap and
partition falls on a whole tick, so stages of any kind often end in
the same instant. Sends and faults are scheduled in random order, each
behind zero to two further zero-delay timeouts, so a fault can follow
a send in the same instant, and a send can come after the servers'
own zero-delay events. A node that receives a packet may also react
inside its receive callback: with ``echo`` it answers the packet, with
``flap`` it flips the state of its own link.
"""

from hypothesis import example, given, settings
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
scenarios = st.fixed_dictionaries({
    "actions": st.lists(st.one_of(
        st.tuples(st.just("send"), ticks, hops, st.sampled_from(NODES),
                  st.sampled_from(NODES + ("ghost",)),
                  st.integers(min_value=0, max_value=24)),
        st.tuples(st.just("flap"), ticks, hops, st.sampled_from(NODES),
                  st.booleans()),
        st.tuples(st.just("partition"), ticks, hops,
                  st.sampled_from(GROUPINGS)),
    ), max_size=40),
    "propagation_ticks": stage_ticks,
    "switching_ticks": stage_ticks,
    "reaction": st.sampled_from([None, "echo", "flap"]),
    "drop_probability": st.sampled_from([0.0, 0.3, 0.6]),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})


class RecordingRng:
    """The fabric's shared loss rng, recording each draw and its instant."""

    def __init__(self, env: Environment, seed: int) -> None:
        self.env = env
        self.rng = RngRegistry(seed=seed).stream("fabric")
        self.draws = []

    def random(self) -> float:
        value = self.rng.random()
        self.draws.append((self.env.now, value))
        return value


def packet(src, dst, payload, payload_bytes, trace_id) -> Packet:
    return Packet(src, dst, HeaderStack([UDPHeader()]), payload=payload,
                  payload_bytes=payload_bytes,
                  meta={"trace": (trace_id, None)})


def run(link_class, switch_class, scenario) -> dict:
    env = Environment()
    tracer = Tracer(env)
    env.set_tracer(tracer)
    rng = RecordingRng(env, scenario["seed"])
    switch = switch_class(env,
                          switching_latency=scenario["switching_ticks"] * TICK)
    links, deliveries = {}, []

    def receive(name, received):
        deliveries.append((env.now, name, received.payload))
        reaction = scenario["reaction"]
        if reaction == "echo" and isinstance(received.payload, int):
            links[name].send(name, packet(
                name, received.src, ("echo", received.payload), 4,
                -received.meta["trace"][0]))
        elif reaction == "flap":
            links[name].set_state(not links[name].up)

    for name in NODES:
        link = link_class(
            env, name, switch.name, bandwidth_bps=BANDWIDTH_BPS,
            propagation_delay=scenario["propagation_ticks"] * TICK,
            drop_probability=scenario["drop_probability"], rng=rng)
        link.attach(name, lambda received, name=name: receive(name, received))
        switch.attach_link(link, peer=name)
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
        env.timeout(tick * TICK).callbacks.append(
            lambda event, hops=hops, action=action: after(hops, action))
    env.run()
    return {
        "deliveries": deliveries,
        "hops": sorted((span.trace_id, span.name, span.node, span.start,
                        span.end, sorted(span.tags.items()))
                       for span in tracer.spans),
        "links": [vars(links[name].stats(end))
                  for name in NODES for end in (name, switch.name)],
        "switch": vars(switch.stats),
        "draws": rng.draws,
    }


@settings(max_examples=1000, deadline=None)
@given(scenario=scenarios)
# A receiver cuts its own link in the instant its downlink, with
# packets waiting, ends a serialization: the next packet is taken up
# before the cut, so it still goes out.
@example(scenario={
    "actions": [("send", 0, 0, "a", "c", 0), ("send", 0, 0, "b", "c", 0),
                ("send", 0, 0, "a", "c", 0)],
    "propagation_ticks": 0, "switching_ticks": 0, "reaction": "flap",
    "drop_probability": 0.0, "seed": 0})
def test_callback_servers_match_the_store_and_process_oracle(scenario):
    expected = run(legacy_hops.Link, legacy_hops.Switch, scenario)
    assert run(Link, Switch, scenario) == expected
