"""Per-hop tracing of the simulated network through ``repro.obs`` spans.

Every link a stamped packet crosses records a ``net.link`` span from
its send instant to its arrival instant, and the switch records a
``net.switch`` span from ingress to egress, all under the packet's
trace context.
"""

import pytest

from repro.net import HeaderStack, LambdaHeader, Network, Packet, UDPHeader
from repro.obs import Tracer, check_invariants, roots, spans_by_trace
from repro.serverless import Testbed, closed_loop
from repro.sim import Environment
from repro.workloads import kv_client_spec


def traced_pair(max_spans=2_000_000):
    env = Environment()
    env.tracer = Tracer(env, max_spans=max_spans)
    network = Network(env)
    a = network.add_node("a")
    b = network.add_node("b")
    a.attach(lambda p: None)
    return env, network, a, b


def stamped(tracer, payload_bytes, node="a"):
    root = tracer.begin("root", "test", trace_id=tracer.new_trace(),
                        node=node)
    packet = Packet("a", "b", HeaderStack([
        UDPHeader(), LambdaHeader(wid=3, request_id=9)]),
        payload_bytes=payload_bytes)
    Tracer.stamp_packet(packet, root)
    return root, packet


def test_tracer_records_rx_and_tx():
    env, network, a, b = traced_pair()
    arrivals = []
    b.attach(lambda p: arrivals.append(env.now))
    root, packet = stamped(env.tracer, 50)
    env.timeout_at(1e-6, packet, lambda event: a.send(event._value))
    env.run()

    hops = [span for span in env.tracer.spans if span is not root]
    assert [(s.name, s.node) for s in hops] == [
        ("net.link", "a->switch"),
        ("net.switch", "switch"),
        ("net.link", "switch->b"),
    ]
    assert all(s.parent_id == root.span_id and s.trace_id == root.trace_id
               for s in hops)
    uplink, switch, downlink = hops
    # Sent at 1 µs; each link takes serialisation plus propagation.
    wire = packet.size_bytes * 8 / network.bandwidth_bps \
        + network.propagation_delay
    assert uplink.start == pytest.approx(1e-6)
    assert uplink.duration == pytest.approx(wire)
    assert uplink.tags == {"bytes": packet.size_bytes}
    assert switch.start == uplink.end
    assert switch.tags == {"verdict": "forwarded", "dst": "b"}
    assert downlink.start == switch.end
    assert downlink.duration == pytest.approx(wire)
    # The last hop ends at the instant the receiver took the packet.
    assert arrivals == [downlink.end]


def test_tracer_flow_follows_request_through_testbed():
    """Trace a kv request: gateway -> NIC -> memcached -> NIC -> gateway."""
    tb = Testbed(seed=51, n_workers=1, with_tracing=True)
    tb.add_lambda_nic_backend()
    tracer = tb.env.tracer

    def scenario(env):
        yield tb.manager.deploy(kv_client_spec(), "lambda-nic")
        first = len(tracer.spans)
        yield closed_loop(tb.env, tb.gateway, "kv_client", n_requests=1)
        return first

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)

    spans = tracer.spans[process.value:]
    assert check_invariants(spans) == []
    [root] = roots(spans)
    assert root.name == "gateway.request" and root.node == "m1"
    # The whole flow shares the gateway's trace end to end.
    flow = spans_by_trace(spans)[root.trace_id]
    assert len(flow) == len(spans)
    nic = tb.nics[0].name
    links = sorted((s for s in flow if s.name == "net.link"),
                   key=lambda s: s.start)
    assert [s.node for s in links] == [
        "m1->switch", f"switch->{nic}",
        f"{nic}->switch", "switch->memcached",
        "memcached->switch", f"switch->{nic}",
        f"{nic}->switch", "switch->m1",
    ]
    for earlier, later in zip(links, links[1:]):
        assert earlier.end <= later.start
    assert root.start <= links[0].start and links[-1].end <= root.end
    # The NIC served the request and the resumed call; memcached served
    # the lookup in between.
    served = [s.node for s in sorted(flow, key=lambda s: s.start)
              if s.name in ("nic.serve", "kv.serve")]
    assert served == [nic, "memcached", nic]


def test_tracer_bounded():
    env, network, a, b = traced_pair(max_spans=3)
    arrivals = []
    b.attach(lambda p: arrivals.append(p))
    root, _ = stamped(env.tracer, 8)
    for index in range(10):
        packet = Packet("a", "b", HeaderStack([UDPHeader()]),
                        payload_bytes=8)
        Tracer.stamp_packet(packet, root)
        a.send(packet)
    env.run()
    # The root and two hops fit; the other 28 hops are counted, not
    # recorded, and tracing never holds a packet back.
    assert len(env.tracer.spans) == 3
    assert env.tracer.dropped_spans == 28
    assert len(arrivals) == 10


def test_tracer_filter_predicate():
    env, network, a, b = traced_pair()
    b.attach(lambda p: None)
    small_root, small = stamped(env.tracer, 10)
    big_root, big = stamped(env.tracer, 2000)
    a.send(small)
    a.send(big)
    env.run()
    by_trace = spans_by_trace(env.tracer.spans)
    assert set(by_trace) == {small_root.trace_id, big_root.trace_id}
    big_links = [s for s in by_trace[big_root.trace_id]
                 if s.name == "net.link"]
    assert len(big_links) == 2
    assert all(s.tags["bytes"] == big.size_bytes > 1000 for s in big_links)
    assert all(s.tags["bytes"] < 1000
               for s in by_trace[small_root.trace_id]
               if s.name == "net.link")
