"""Tests for links, the switch, and the network topology builder."""

import pytest

from repro.net import HeaderStack, Link, Network, Packet, Switch, UDPHeader
from repro.obs import Tracer
from repro.sim import Environment, RngRegistry


def make_packet(src, dst, payload_bytes=100):
    return Packet(src, dst, HeaderStack([UDPHeader()]), payload_bytes=payload_bytes)


def test_link_serialization_plus_propagation():
    env = Environment()
    received = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=1e-6)
    link.attach("a", lambda p: None)
    link.attach("b", lambda p: received.append((p, env.now)))

    packet = make_packet("a", "b", payload_bytes=992)  # 1000 B total
    link.send("a", packet)
    env.run()
    # 1000 B at 1 Gb/s = 8 us serialization + 1 us propagation.
    assert received[0][1] == pytest.approx(9e-6)


def test_link_back_to_back_packets_queue():
    env = Environment()
    times = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("b", lambda p: times.append(env.now))
    for _ in range(3):
        link.send("a", make_packet("a", "b", payload_bytes=992))
    env.run()
    assert times == pytest.approx([8e-6, 16e-6, 24e-6])


def test_link_is_full_duplex():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("a", lambda p: arrivals.append(("a", env.now)))
    link.attach("b", lambda p: arrivals.append(("b", env.now)))
    link.send("a", make_packet("a", "b", payload_bytes=992))
    link.send("b", make_packet("b", "a", payload_bytes=992))
    env.run()
    # Both directions complete at the same time: no shared serializer.
    assert arrivals[0][1] == arrivals[1][1] == pytest.approx(8e-6)


def test_link_drop_probability():
    env = Environment()
    rng = RngRegistry(seed=1).stream("link")
    received = []
    link = Link(
        env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0,
        drop_probability=0.5, rng=rng,
    )
    link.attach("b", lambda p: received.append(p))
    for _ in range(200):
        link.send("a", make_packet("a", "b"))
    env.run()
    assert 60 < len(received) < 140
    assert link.stats("a").packets_dropped == 200 - len(received)


def test_link_argument_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, "a", "b", bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(env, "a", "b", propagation_delay=-1)
    with pytest.raises(ValueError):
        Link(env, "a", "b", drop_probability=0.5)  # rng required
    link = Link(env, "a", "b")
    with pytest.raises(ValueError):
        link.send("c", make_packet("c", "b"))
    with pytest.raises(ValueError):
        link.attach("c", lambda p: None)


def test_network_end_to_end_delivery():
    env = Environment()
    network = Network(env)
    received = []
    a = network.add_node("m1")
    b = network.add_node("m2")
    a.attach(lambda p: None)
    b.attach(lambda p: received.append((p.payload, env.now)))

    a.send(Packet("m1", "m2", HeaderStack([UDPHeader()]), payload="hello",
                  payload_bytes=50))
    env.run()
    assert len(received) == 1
    assert received[0][0] == "hello"
    assert received[0][1] > 0


def test_network_latency_components():
    env = Environment()
    network = Network(
        env, bandwidth_bps=10e9, propagation_delay=1e-6, switching_latency=2e-6
    )
    arrival = []
    a = network.add_node("m1")
    b = network.add_node("m2")
    b.attach(lambda p: arrival.append(env.now))
    packet = Packet("m1", "m2", HeaderStack([UDPHeader()]), payload_bytes=1242)
    # 1250 B at 10 Gb/s = 1 us serialization per hop; two hops; two
    # propagations of 1 us; one switching latency of 2 us.
    a.send(packet)
    env.run()
    assert arrival[0] == pytest.approx(1e-6 + 1e-6 + 2e-6 + 1e-6 + 1e-6)


def hop_instants(tracer, trace_id):
    """``{hop: instant the packet left it}`` from the packet's hop spans."""
    return {span.node: span.end for span in tracer.spans
            if span.trace_id == trace_id}


def test_switch_serves_simultaneous_arrivals_in_arrival_order():
    env = Environment()
    tracer = Tracer(env)
    env.set_tracer(tracer)
    network = Network(env, switching_latency=2e-6)
    received = []
    for name in ("a", "b", "c"):
        network.add_node(name).attach(received.append)
    first, second = make_packet("a", "c"), make_packet("b", "c")
    first.meta["trace"], second.meta["trace"] = (1, None), (2, None)
    network.send_from("a", first)
    network.send_from("b", second)
    env.run()
    # Equal sizes over identical uplinks: both reach the switch at once,
    # and its one pipeline switches them one after the other.
    hops_first, hops_second = hop_instants(tracer, 1), hop_instants(tracer, 2)
    assert hops_first["a->switch"] == hops_second["b->switch"]
    assert hops_second["switch"] - hops_first["switch"] == \
        pytest.approx(2e-6)
    assert received == [first, second]


def test_one_way_packet_costs_three_kernel_events():
    env = Environment()
    network = Network(env)
    network.add_node("m1")
    network.add_node("m2").attach(lambda p: None)
    assert env._eid == 0  # building the network schedules nothing
    network.send_from("m1", make_packet("m1", "m2"))
    env.run()
    # One per server: delivery over each of the two links, and the end
    # of switching.
    assert env._eid == 3


def test_cut_shorter_than_one_serialization_drops_nothing():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("b", lambda p: arrivals.append(env.now))
    for _ in range(2):  # 1000 B each: 8 us of serialization
        link.send("a", make_packet("a", "b", payload_bytes=992))
    env.timeout(2e-6).callbacks.append(lambda e: link.set_state(False))
    env.timeout(6e-6).callbacks.append(lambda e: link.set_state(True))
    env.run()
    # The cut falls inside the first serialization; the link is back up
    # when the serializer reaches the second packet at 8 us.
    assert arrivals == pytest.approx([8e-6, 16e-6])
    assert link.stats("a").packets_dropped == 0


def test_cut_arms_exactly_one_check_event():
    env = Environment()
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("a", lambda p: None)
    link.attach("b", lambda p: None)
    for _ in range(3):
        link.send("a", make_packet("a", "b", payload_bytes=992))
    link.send("b", make_packet("b", "a", payload_bytes=992))
    env.run(until=4e-6)
    scheduled = env._eid  # four deliveries, one stop event
    link.set_state(False)
    # One check, at the start of the next packet from a; b's one packet
    # is already on the wire, so that direction arms none.
    assert env._eid == scheduled + 1
    env.run()
    assert link.stats("a").packets_dropped_down == 2
    assert link.stats("b").packets_dropped_down == 0


def test_send_while_down_restored_later_in_the_instant_is_delivered():
    def run(restore_in_a_later_event):
        env = Environment()
        arrivals = []
        link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
        link.attach("b", lambda p: arrivals.append(env.now))
        link.set_state(False)

        def send_then_restore(event):
            # The send arms a check for this instant.
            link.send("a", make_packet("a", "b", payload_bytes=992))
            if restore_in_a_later_event:
                env.timeout(0).callbacks.append(
                    lambda e: link.set_state(True))
            else:
                link.set_state(True)

        env.timeout(5e-6).callbacks.append(send_then_restore)
        env.run()
        return arrivals, link.stats("a").packets_dropped_down

    assert run(False) == ([pytest.approx(13e-6)], 0)
    # A restore scheduled after the check, even in the same instant,
    # comes too late: the check runs first and drops the packet.
    assert run(True) == ([], 1)


class CountingRng:
    """A loss rng that counts its draws."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.values.pop(0)


def test_lost_packet_takes_no_serialization_time():
    env = Environment()
    arrivals = []
    rng = CountingRng([0.9, 0.1, 0.9])  # the second packet is lost
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0,
                drop_probability=0.5, rng=rng)
    link.attach("b", lambda p: arrivals.append((p.payload, env.now)))
    for index in range(3):
        link.send("a", Packet("a", "b", HeaderStack([UDPHeader()]),
                              payload=index, payload_bytes=992))
    env.run()
    # The third packet follows the first straight onto the wire.
    assert arrivals == [(0, pytest.approx(8e-6)), (2, pytest.approx(16e-6))]
    assert rng.draws == 3  # one draw per packet, none when delivered
    stats = link.stats("a")
    assert (stats.packets_sent, stats.packets_dropped) == (2, 1)


def test_network_duplicate_node_rejected():
    env = Environment()
    network = Network(env)
    network.add_node("m1")
    with pytest.raises(ValueError):
        network.add_node("m1")


def test_network_unknown_destination_dropped():
    env = Environment()
    network = Network(env)
    a = network.add_node("m1")
    a.attach(lambda p: None)
    a.send(make_packet("m1", "ghost"))
    env.run()
    assert network.switch.stats.packets_dropped_unknown == 1


def test_packet_trace_stamps():
    """A traced packet's hop spans name every hop it crossed, in order."""
    env = Environment()
    tracer = Tracer(env)
    env.set_tracer(tracer)
    network = Network(env)
    a = network.add_node("m1")
    b = network.add_node("m2")
    b.attach(lambda p: None)
    packet = make_packet("m1", "m2")
    packet.meta["trace"] = (1, None)
    a.send(packet)
    env.run()
    hops = sorted(tracer.spans, key=lambda span: span.end)
    assert [span.node for span in hops] == ["m1->switch", "switch",
                                            "switch->m2"]
    assert hops[0].start == 0.0
    assert hops[-1].end == env.now


def test_packet_size_accounting():
    packet = make_packet("a", "b", payload_bytes=100)
    assert packet.size_bytes == 108
    assert packet.size_bits == 864
    with pytest.raises(ValueError):
        Packet("a", "b", payload_bytes=-1)


def test_packet_copy_fresh_id():
    packet = make_packet("a", "b")
    clone = packet.copy()
    assert clone.packet_id != packet.packet_id
    assert clone.size_bytes == packet.size_bytes


def test_node_counters():
    env = Environment()
    network = Network(env)
    a = network.add_node("m1")
    b = network.add_node("m2")
    b.attach(lambda p: None)
    a.send(make_packet("m1", "m2"))
    env.run()
    assert a.tx_packets == 1
    assert b.rx_packets == 1


def test_packet_meeting_a_held_train_segment_at_the_switch_queues_behind_it():
    """b's packet reaches the switch in the instant segment 2 of a's
    train does. The switch already holds that train, so the segment is
    switched first and the packet goes before segment 3."""
    tick = 2.0 ** -20
    env = Environment()
    tracer = Tracer(env)
    env.set_tracer(tracer)
    switch = Switch(env, switching_latency=4 * tick)
    links = {}
    for name in ("a", "b", "c"):
        links[name] = Link(env, name, "switch", bandwidth_bps=8 / tick,
                           propagation_delay=0.0)
        switch.attach_link(links[name], peer=name)
        links[name].attach(name, lambda p: None)
    train = [make_packet("a", "c", payload_bytes=0) for _ in range(4)]
    for trace_id, segment in enumerate(train, start=1):
        segment.meta["trace"] = (trace_id, None)
    lone = make_packet("b", "c", payload_bytes=0)
    lone.meta["trace"] = (9, None)
    links["a"].send_train("a", train)
    env.timeout(16 * tick).callbacks.append(
        lambda event: links["b"].send("b", lone))
    env.run()
    switched = {span.trace_id: (span.start / tick, span.end / tick)
                for span in tracer.spans if span.node == "switch"}
    # 8-byte packets take 8 ticks a hop: a's reach the switch at 8, 16,
    # 24 and 32 ticks, b's at 24.
    assert switched == {1: (8, 12), 2: (16, 20), 3: (24, 28), 9: (24, 32),
                        4: (32, 36)}
