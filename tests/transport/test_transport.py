"""Tests for segmentation (:class:`repro.net.Message`), reordering, and
the gateway's weakly-consistent RPC: per-attempt timeouts, retries and
late-response accounting (D3)."""

import pytest

from repro.net import (
    HeaderStack,
    LambdaHeader,
    Message,
    Network,
    Packet,
    RpcHeader,
    UDPHeader,
)
from repro.net.message import RDMA_SEGMENT_BYTES
from repro.serverless import Gateway, GatewayTimeout, MetricsRegistry
from repro.sim import Environment, RngRegistry
from repro.transport import (
    REORDER_INSTRUCTIONS_PER_SEGMENT,
    ReorderBuffer,
    ReorderError,
)


def message(size, segment_bytes=RDMA_SEGMENT_BYTES, payload=None):
    return Message("gw", "nic", [UDPHeader()], wid=1, request_id=9, qp=3,
                   size=size, segment_bytes=segment_bytes, payload=payload)


def rdma_fields(packet):
    return packet.headers.require("RdmaHeader")


def test_segment_message_sizes():
    segments = message(10_000).segments()
    assert [rdma_fields(s).length for s in segments] == [4096, 4096, 1808]
    assert [rdma_fields(s).remote_address for s in segments] == \
        [0, 4096, 8192]
    assert [s.seq for s in segments] == [0, 1, 2]
    assert all(s.total == 3 for s in segments)
    header_bytes = segments.message.header_bytes
    assert segments.sizes() == [header_bytes + 4096, header_bytes + 4096,
                                header_bytes + 1808]
    assert segments.payload_bytes() == 10_000


def test_segment_single_packet():
    segments = message(100).segments()
    assert len(segments) == 1
    assert rdma_fields(segments[0]).length == 100
    assert segments[0].headers.require("LambdaHeader").total_segments == 1


def test_segment_zero_bytes():
    segments = message(0).segments()
    assert len(segments) == 1
    assert rdma_fields(segments[0]).length == 0
    assert segments.payload_bytes() == 0


def test_segment_with_payload_roundtrip():
    blob = bytes(range(256)) * 40  # 10240 bytes
    segments = message(len(blob), payload=blob).segments()
    assert b"".join(s.payload for s in segments) == blob
    # Any run of the message carries its slice of the bytes, in order.
    tail = segments[1:]
    assert b"".join(s.payload for s in tail) == blob[4096:]
    # A segment is made once: every view reaches the same packet.
    assert tail[0] is segments[1]


def test_segment_validation():
    """A segment view indexes in range, slices with step 1 and loses
    only its tail."""
    segments = message(10_000).segments()
    with pytest.raises(IndexError):
        segments[3]
    with pytest.raises(ValueError):
        segments[::2]
    with pytest.raises(ValueError):
        del segments[:1]
    del segments[2:]
    assert len(segments) == 2 and segments[-1].seq == 1


def test_reassemble_missing_segment_raises():
    """A view short of the last segment carries only full segments:
    neither its sizes nor its payload count the short tail."""
    segments = message(10_000, payload=b"\0" * 10_000).segments()
    head = segments[:-1]
    assert head.payload_bytes() == 2 * 4096
    assert head.sizes() == [head.message.header_bytes + 4096] * 2
    assert len(b"".join(s.payload for s in head)) == 2 * 4096


def test_reorder_buffer_in_order():
    buffer = ReorderBuffer()
    assert buffer.add("m", 0, 3, "a") is None
    assert buffer.add("m", 1, 3, "b") is None
    assert buffer.add("m", 2, 3, "c") == ["a", "b", "c"]
    assert buffer.completed_messages == 1
    assert buffer._messages == {}


def test_reorder_buffer_out_of_order():
    buffer = ReorderBuffer()
    buffer.add("m", 2, 3, "c")
    buffer.add("m", 0, 3, "a")
    result = buffer.add("m", 1, 3, "b")
    assert result == ["a", "b", "c"]


def test_reorder_buffer_duplicates_ignored():
    buffer = ReorderBuffer()
    buffer.add("m", 0, 2, "a")
    assert buffer.add("m", 0, 2, "a-again") is None
    assert buffer.duplicate_segments == 1
    assert buffer.add("m", 1, 2, "b") == ["a", "b"]


def test_reorder_buffer_interleaved_messages():
    buffer = ReorderBuffer()
    buffer.add("m1", 0, 2, "x0")
    buffer.add("m2", 0, 2, "y0")
    assert len(buffer._messages) == 2
    assert buffer.add("m2", 1, 2, "y1") == ["y0", "y1"]
    assert buffer.add("m1", 1, 2, "x1") == ["x0", "x1"]


def test_reorder_buffer_validation():
    buffer = ReorderBuffer()
    with pytest.raises(ReorderError):
        buffer.add("m", 0, 0, "a")
    with pytest.raises(ReorderError):
        buffer.add("m", 5, 3, "a")
    buffer.add("m", 0, 3, "a")
    with pytest.raises(ReorderError):
        buffer.add("m", 1, 4, "b")  # total changed


def test_reorder_buffer_pending_and_evict():
    buffer = ReorderBuffer()
    buffer.add("m", 0, 4, "a")
    held = buffer._messages["m"]
    assert held.total - held.received == 3
    assert buffer.evict("m") == 1
    assert "m" not in buffer._messages
    assert buffer.evict("m") == 0


def test_reorder_cost_matches_paper_footnote():
    """Four 100 B packets cost 120 instructions (paper fn. 3)."""
    buffer = ReorderBuffer()
    assert buffer.instructions_for(4) == 120
    assert REORDER_INSTRUCTIONS_PER_SEGMENT == 30


def make_gateway_pair(responder, network=None, **gateway_kwargs):
    """A gateway routing workload "echo" to a bare node "server" whose
    handler is ``responder(env, server_node, packet)``."""
    if network is None:
        network = Network(Environment())
    env = network.env
    gateway_kwargs.setdefault("request_timeout", 0.01)
    gateway_kwargs.setdefault("max_retries", 2)
    gateway_kwargs.setdefault("backoff_base", 0.001)
    gateway = Gateway(env, network.add_node("gw"), metrics=MetricsRegistry(),
                      **gateway_kwargs)
    server_node = network.add_node("server")
    server_node.attach(lambda p: responder(env, server_node, p))
    gateway.set_route("echo", wid=1, targets=["server"])
    return env, gateway, server_node


def echo_responder(env, node, packet):
    lam = packet.headers.require("LambdaHeader")
    node.send(Packet(
        node.name, packet.src,
        headers=HeaderStack([
            UDPHeader(),
            LambdaHeader(request_id=lam.request_id, is_response=True),
            RpcHeader(method="RESP", status=0),
        ]),
        payload_bytes=32,
    ))


def request_id_of(packet):
    return packet.headers.require("LambdaHeader").request_id


def test_rpc_endpoint_roundtrip():
    env, gateway, server = make_gateway_pair(echo_responder)
    outcome = env.run(until=gateway.request("echo"))
    assert outcome.ok and outcome.retries == 0
    assert outcome.response.headers.require("RpcHeader").status == 0
    assert outcome.latency > 0
    assert gateway.inflight("echo") == 0
    assert gateway.requests_total.value(labels={"workload": "echo"}) == 1
    assert gateway.retries_total.total == 0


def test_rpc_endpoint_retransmits_on_loss():
    """20% loss on every link (~36% per round trip): attempts time out
    and are retried, and every request still completes."""
    network = Network(Environment(), drop_probability=0.2,
                      rng=RngRegistry(seed=17).stream("loss"))
    env, gateway, server = make_gateway_pair(echo_responder, network,
                                             max_retries=10)
    outcomes = []

    def scenario():
        for _ in range(40):
            outcomes.append((yield gateway.request("echo")))

    env.run(until=env.process(scenario()))
    assert len(outcomes) == 40 and all(o.ok for o in outcomes)
    retried = sum(o.retries for o in outcomes)
    assert retried > 0
    assert gateway.retries_total.total == retried
    assert gateway.failures_total.total == 0
    assert gateway.inflight("echo") == 0


def test_rpc_endpoint_timeout():
    received = []
    env, gateway, server = make_gateway_pair(
        lambda env, node, packet: received.append(packet))
    done = gateway.request("echo")
    with pytest.raises(GatewayTimeout) as caught:
        env.run(until=done)
    # The plain timeout, not one of its shed/expired/budget subclasses.
    assert type(caught.value) is GatewayTimeout
    assert caught.value.reason == "timeout"
    # The initial attempt plus max_retries=2 retries, each a fresh id.
    assert len({request_id_of(p) for p in received}) == 3
    assert gateway.retries_total.total == 3
    assert gateway.failures_total.value(
        labels={"workload": "echo", "reason": "timeout"}) == 1
    assert gateway.requests_total.total == 0
    assert gateway.inflight("echo") == 0


def test_rpc_endpoint_ignores_unknown_responses():
    """A response that comes after its attempt timed out, and one for an
    id the gateway never sent, are counted and never delivered."""
    seen = []

    def slow_first(env, node, packet):
        seen.append(packet)
        if len(seen) == 1:
            # Answer the first attempt after its 10 ms timeout.
            env.timeout_at(env.now + 0.015, packet,
                           lambda event: echo_responder(env, node,
                                                        event._value))
        else:
            echo_responder(env, node, packet)

    env, gateway, server = make_gateway_pair(slow_first)
    outcomes = []
    gateway.request("echo").callbacks.append(
        lambda event: outcomes.append(event.value))
    env.run(until=0.05)
    assert len(seen) == 2
    [outcome] = outcomes
    assert outcome.ok and outcome.retries == 1
    assert request_id_of(outcome.response) == request_id_of(seen[1])
    assert gateway.late_responses_total.value() == 1

    server.send(Packet(
        "server", "gw",
        headers=HeaderStack([
            UDPHeader(), LambdaHeader(request_id=999, is_response=True),
        ]),
    ))
    env.run(until=0.1)
    assert gateway.late_responses_total.value() == 2
    assert len(outcomes) == 1
    assert gateway.requests_total.total == 1
