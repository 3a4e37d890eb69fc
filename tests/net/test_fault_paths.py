"""Network-layer fault paths: dead links, partitions, lossy-fabric guard."""

import pytest

from repro.net import HeaderStack, Link, Network, Packet, UDPHeader
from repro.sim import Environment, RngRegistry


def make_packet(src, dst, payload_bytes=100):
    return Packet(src, dst, HeaderStack([UDPHeader()]),
                  payload_bytes=payload_bytes)


def make_network(env, **kwargs):
    network = Network(env, **kwargs)
    received = []
    for name in ["a", "b", "c"]:
        node = network.add_node(name)
        node.attach(lambda p, name=name: received.append((name, p)))
    return network, received


def test_lossy_network_requires_rng():
    env = Environment()
    with pytest.raises(ValueError):
        Network(env, drop_probability=0.05)
    with pytest.raises(ValueError):
        Network(env, drop_probability=1.5,
                rng=RngRegistry(seed=0).stream("n"))
    # Explicit rng makes a lossy fabric legal.
    Network(env, drop_probability=0.05, rng=RngRegistry(seed=0).stream("n"))


def test_lossy_network_propagates_to_new_links():
    env = Environment()
    rng = RngRegistry(seed=2).stream("loss")
    network = Network(env, drop_probability=0.5, rng=rng)
    received = []
    network.add_node("a").attach(lambda p: received.append(p))
    network.add_node("b").attach(lambda p: received.append(p))
    for _ in range(100):
        network.send_from("a", make_packet("a", "b"))
    env.run()
    assert 0 < len(received) < 100  # drops on uplink and downlink


def test_dead_link_drops_and_counts():
    env = Environment()
    network, received = make_network(env)
    network.set_link_state("b", up=False)
    assert not network.link_up("b")

    network.send_from("a", make_packet("a", "b"))
    network.send_from("a", make_packet("a", "c"))
    env.run()
    # b is unreachable, c unaffected.
    assert [name for name, _ in received] == ["c"]
    down_drops = network.link("b").stats("switch").packets_dropped_down
    assert down_drops == 1

    network.set_link_state("b", up=True)
    network.send_from("a", make_packet("a", "b"))
    env.run()
    assert [name for name, _ in received] == ["c", "b"]


def test_dead_uplink_drops_outbound_packets():
    env = Environment()
    network, received = make_network(env)
    network.set_link_state("a", up=False)
    network.send_from("a", make_packet("a", "b"))
    env.run()
    assert received == []
    assert network.link_stats("a").packets_dropped_down == 1


def test_partition_blocks_cross_group_traffic():
    env = Environment()
    network, received = make_network(env)
    network.partition(["a", "b"], ["c"])
    assert network.switch.partitioned

    network.send_from("a", make_packet("a", "b"))  # same group: flows
    network.send_from("a", make_packet("a", "c"))  # crosses: dropped
    env.run()
    assert [name for name, _ in received] == ["b"]
    assert network.switch.stats.packets_dropped_partition == 1

    network.heal_partition()
    assert not network.switch.partitioned
    network.send_from("a", make_packet("a", "c"))
    env.run()
    assert [name for name, _ in received] == ["b", "c"]


def test_partition_unlisted_nodes_default_to_group_zero():
    env = Environment()
    network, received = make_network(env)
    # 'a' is not listed: it lands in group 0 alongside its peers there.
    network.partition(["b"], ["c"])
    network.send_from("a", make_packet("a", "b"))
    network.send_from("c", make_packet("c", "b"))
    env.run()
    assert [name for name, _ in received] == ["b"]


def test_partition_requires_two_groups():
    env = Environment()
    network, _ = make_network(env)
    with pytest.raises(ValueError):
        network.partition(["a", "b"])


def at(env, when, action):
    """Run ``action()`` at simulated time ``when``."""
    def body(env):
        yield env.timeout(when)
        action()
    env.process(body(env))


def test_link_down_mid_burst_finishes_the_packet_on_the_wire():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("b", lambda p: arrivals.append((p.payload, env.now)))
    for index in range(3):  # 1000 B each: 8 us of serialization
        link.send("a", Packet("a", "b", HeaderStack([UDPHeader()]),
                              payload=index, payload_bytes=992))
    at(env, 4e-6, lambda: link.set_state(False))

    env.run(until=7.5e-6)
    # The queued packets are only dropped once the serializer reaches
    # them, when the packet on the wire is done.
    assert link.stats("a").packets_dropped_down == 0
    env.run()
    assert arrivals == [(0, pytest.approx(8e-6))]
    stats = link.stats("a")
    assert stats.packets_sent == 1
    assert stats.packets_dropped_down == stats.packets_dropped == 2


def test_packet_in_flight_survives_link_down():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=10e-6)
    link.attach("b", lambda p: arrivals.append(env.now))
    link.send("a", make_packet("a", "b", payload_bytes=992))
    at(env, 12e-6, lambda: link.set_state(False))  # serialized at 8 us
    env.run()
    assert arrivals == [pytest.approx(18e-6)]
    assert link.stats("a").packets_dropped == 0


def test_link_cut_in_the_instant_of_a_send_drops_the_packet():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b")
    link.attach("b", arrivals.append)
    link.send("a", make_packet("a", "b"))
    link.set_state(False)
    env.run()
    # The server reaches the packet after the cut, later in the instant.
    assert arrivals == []
    assert link.stats("a").packets_dropped_down == 1


def test_link_restored_in_the_instant_of_a_send_delivers_the_packet():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b")
    link.attach("b", arrivals.append)
    link.set_state(False)
    link.send("a", make_packet("a", "b"))
    link.set_state(True)
    env.run()
    assert len(arrivals) == 1
    assert link.stats("a").packets_dropped_down == 0


def test_partition_drops_packet_inside_the_switch_pipeline():
    env = Environment()
    network, received = make_network(
        env, bandwidth_bps=10e9, propagation_delay=1e-6,
        switching_latency=2e-6)
    # 1250 B: 1 us serialization + 1 us propagation, so the packet
    # enters the switch at 2 us and leaves it at 4 us.
    network.send_from("a", make_packet("a", "c", payload_bytes=1242))
    at(env, 3e-6, lambda: network.partition(["a", "b"], ["c"]))
    env.run()
    assert received == []
    assert network.switch.stats.packets_dropped_partition == 1
    assert network.switch.stats.packets_forwarded == 0


def test_link_set_state_both_directions():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("a", lambda p: arrivals.append("a"))
    link.attach("b", lambda p: arrivals.append("b"))
    link.set_state(False)
    assert not link.up
    link.send("a", make_packet("a", "b", payload_bytes=992))
    link.send("b", make_packet("b", "a", payload_bytes=992))
    env.run()
    assert arrivals == []
    assert link.stats("a").packets_dropped_down == 1
    assert link.stats("b").packets_dropped_down == 1
    link.set_state(True)
    assert link.up
    link.send("a", make_packet("a", "b", payload_bytes=992))
    env.run()
    assert arrivals == ["b"]


def test_check_of_a_dropped_packet_spares_packets_sent_after_a_restore():
    env = Environment()
    arrivals = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=0.0)
    link.attach("b", lambda p: arrivals.append((p.payload, env.now)))

    def send(*payloads):  # 1000 B each: 8 us of serialization
        for payload in payloads:
            link.send("a", Packet("a", "b", HeaderStack([UDPHeader()]),
                                  payload=payload, payload_bytes=992))

    send(0, 1)
    at(env, 1e-6, lambda: link.set_state(False))  # check at 8 us
    at(env, 2e-6, lambda: send(2))  # sent while down: check at 16 us
    at(env, 9e-6, lambda: link.set_state(True))
    at(env, 10e-6, lambda: send(3, 4))  # 4 starts at 18 us
    at(env, 15e-6, lambda: link.set_state(False))
    at(env, 17e-6, lambda: link.set_state(True))
    env.run()
    # At 8 us the link is down: 1 and 2 drop there. Packet 2's own check
    # at 16 us finds it gone and does nothing, although the link is down
    # again then; at 18 us it is back up, so 4 goes out.
    assert arrivals == [(0, pytest.approx(8e-6)), (3, pytest.approx(18e-6)),
                        (4, pytest.approx(26e-6))]
    assert link.stats("a").packets_dropped_down == 2
