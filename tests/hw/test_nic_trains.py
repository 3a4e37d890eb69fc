"""A SmartNIC taking whole packet trains, against one taking packets.

``SmartNIC.receive_train`` holds a train and handles its packets
lazily, each under the NIC state at its own arrival. ``PacketwiseNIC``
below is the oracle: it hands each packet to ``receive`` in its own
event at its arrival instant, as the links did before trains. Both
receive the same RDMA messages while the NIC fails and restores,
swaps or reinstalls firmware, and while the link takes back a train's
tail and re-sends it later. A train is a view of its message
(``Message.segments()``, the gateway's form) or its segments made into
packets (the form a split or a cut leaves). Counters, the reorder
buffer, every ``_complete_rdma`` instant and completing packet, the
memory each completion leaves and, with tracing on, the spans must
match. State changes fall between arrivals (the declared tie rule
covers the same instant).
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilationUnit, compile_unit
from repro.hw import SmartNIC
from repro.net import switch as switch_module
from repro.net import (
    EthernetHeader,
    IPv4Header,
    Message,
    Network,
    Train,
    UDPHeader,
)
from repro.obs import Tracer
from repro.serverless import Testbed, closed_loop
from repro.sim import Environment, RngRegistry
from repro.workloads import standard_workloads
from tests.hw.test_smartnic import rdma_lambda
from tests.net.legacy_segments import packet_per_segment

STEP = 1e-6
START = 1e-3
COUNTERS = ("rdma_segments", "rdma_messages", "rdma_evicted",
            "dropped_nic_down", "dropped_during_swap", "dropped_no_firmware",
            "firmware_swaps", "requests_served")


class PacketwiseNIC(SmartNIC):
    """Receives each packet of a train in its own event."""

    def receive_train(self, train):
        waits = self._waits = getattr(self, "_waits", {})
        for packet, at in zip(train.packets, train.times):
            wait = self.env.timeout_at(at, packet)
            wait.callbacks.append(lambda event: self.receive(event.value))
            waits[id(packet)] = wait

    def retract_train(self, train, removed):
        for packet in removed:
            self._waits.pop(id(packet)).cancel()


def message(request_id, total, payload_bytes=100):
    """An RDMA message whose bytes depend only on its request id."""
    size = total * payload_bytes
    payload = bytes((request_id * 7 + index) % 251 for index in range(size))
    return Message("client", "nic",
                   (EthernetHeader(), IPv4Header(), UDPHeader()),
                   wid=1, request_id=request_id, qp=5, size=size,
                   segment_bytes=payload_bytes, payload=payload,
                   meta={"trace": (request_id, None)})


def held(reorder) -> dict:
    """Each buffered message's seqs."""
    return {key: sorted([*entry.segments, *(
        seq for first, run in entry.runs
        for seq in range(first, first + len(run)))])
        for key, entry in reorder._messages.items()}


def run(nic_class, messages, changes, made=False, traced=False) -> dict:
    """``made``: send each train as its segments made into packets."""
    env = Environment()
    if traced:
        env.set_tracer(Tracer(env))
    network = Network(env)
    nic = nic_class(env, network.add_node("nic"), n_cores=2,
                    threads_per_core=2, rng=RngRegistry(seed=3).stream("nic"),
                    firmware_swap_seconds=3 * STEP)
    network.add_node("client").attach(lambda packet: None)
    unit = CompilationUnit()
    unit.add_lambda(rdma_lambda(), wid=1)
    firmware = compile_unit(unit)
    nic.install_firmware(firmware)
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    completions = []
    complete = nic._complete_rdma

    def recording(ordered, total, last):
        complete(ordered, total, last)
        completions.append((env.now, last.key[1], last.seq,
                            last.packet_id, total, zlib.crc32(
                                nic.lambda_memory("img.image"))))

    nic._complete_rdma = recording
    trains = []
    slot = 0
    for request_id, first_seq, count, total in messages:
        packets = message(request_id, total).segments()[
            first_seq:first_seq + count]
        if made:
            packets = list(packets)
        times = [START + (slot + k) * STEP for k in range(count)]
        slot += count + 1
        trains.append(Train(packets, times, list(times), 0.0))

    def deliver(train):
        """Hand ``train`` over at its first arrival, a lone packet to
        ``receive`` (as ``Node`` does)."""
        if len(train.packets) == 1:
            handed = lambda event: nic.receive(train.packets[0])
        else:
            handed = lambda event: nic.receive_train(train)
        env.timeout_at(train.times[0]).callbacks.append(handed)

    def take_back(event):
        """The link withdraws the tail of the train still arriving and
        sends it again a quarter step later."""
        now = env.now
        for train in trains:
            tail = [k for k, at in enumerate(train.times) if at > now]
            if tail and tail[0] > 0:
                k = tail[0]
                removed = train.packets[k:]
                later = [at + STEP / 4 for at in train.times[k:]]
                del train.packets[k:]
                del train.times[k:]
                nic.retract_train(train, removed)
                deliver(Train(removed, later, list(later), 0.0))
                return

    actions = {
        "fail": lambda event: nic.fail(),
        "restore": lambda event: nic.restore(),
        "swap": lambda event: nic.load_firmware(firmware),
        "install": lambda event: nic.install_firmware(firmware),
        "take_back": take_back,
    }
    for train in trains:
        deliver(train)
    for kind, slot in changes:
        env.timeout_at(START + (slot + 0.5) * STEP).callbacks.append(
            actions[kind])
    env.run()
    reorder = nic._reorder
    return {
        "counters": {name: getattr(nic.stats, name) for name in COUNTERS},
        "reorder": (reorder.completed_messages, reorder.total_segments,
                    reorder.duplicate_segments, held(reorder),
                    {key: (entry.out_of_order, entry.highest_seen)
                     for key, entry in reorder._messages.items()}),
        "open": dict(nic._rdma_open),
        "completions": completions,
        "spans": sorted((span.name, span.trace_id, span.start, span.end,
                         sorted(span.tags.items()))
                        for span in (env.tracer.spans if traced else ())),
    }


#: Each request id's message length: a message keeps its total.
TOTALS = {1: 32, 2: 20, 3: 8}
messages = st.lists(
    st.tuples(st.sampled_from(sorted(TOTALS)),  # request id
              st.integers(min_value=0, max_value=3),  # first seq
              st.integers(min_value=1, max_value=32)),  # segments
    min_size=1, max_size=4,
).map(lambda drawn: [
    (request_id, first, min(count, TOTALS[request_id] - first),
     TOTALS[request_id]) for request_id, first, count in drawn])
changes = st.lists(
    st.tuples(st.sampled_from(["fail", "restore", "swap", "install",
                               "take_back"]),
              st.integers(min_value=-1, max_value=130)),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(messages=messages, changes=changes, made=st.booleans(),
       traced=st.booleans())
def test_trains_match_packet_by_packet_delivery(messages, changes, made,
                                                traced):
    assert run(SmartNIC, messages, changes, made, traced) == \
        run(PacketwiseNIC, messages, changes, traced=traced)


def test_a_whole_message_completes_at_its_last_arrival_in_one_event():
    """A whole message's view: one timeout, no packet but the
    completing segment, and the buffer never holds it."""
    built = []
    original = Message.packet

    def packet(self, seq):
        if seq not in self._packets:
            built.append(seq)
        return original(self, seq)

    Message.packet = packet
    try:
        result = run(SmartNIC, [(1, 0, 32, 32)], [])
    finally:
        Message.packet = original
    [(at, request_id, seq, _, total, _)] = result["completions"]
    assert (at, request_id, seq, total) == (START + 31 * STEP, 1, 31, 32)
    assert built == [31]
    assert result == run(PacketwiseNIC, [(1, 0, 32, 32)], [])


def test_a_message_cut_by_a_take_back_completes_from_two_runs():
    """The link takes back the tail of a held message and re-sends it:
    the buffer holds the view's head as one run, then the tail
    completes it, in the memory and at the instant of the oracle."""
    changes = [("take_back", 20)]
    result = run(SmartNIC, [(1, 0, 32, 32)], changes)
    assert [entry[:3] for entry in result["completions"]] == \
        [(START + 31 * STEP + STEP / 4, 1, 31)]
    assert result == run(PacketwiseNIC, [(1, 0, 32, 32)], changes)


def test_a_failure_inside_a_train_drops_the_later_segments():
    changes = [("fail", 9), ("restore", 19)]
    result = run(SmartNIC, [(1, 0, 32, 32)], changes)
    assert result["counters"]["dropped_nic_down"] == 10
    assert result["counters"]["rdma_segments"] == 22
    assert result["completions"] == []
    assert result == run(PacketwiseNIC, [(1, 0, 32, 32)], changes)


def test_segments_arriving_in_the_instant_of_a_failure_see_the_old_state():
    """The NIC fails in the instant segment 9 of a held train arrives:
    that segment is handled before the failure."""
    result = run(SmartNIC, [(1, 0, 32, 32)], [("fail", 9 - 0.5)])
    assert result["counters"]["rdma_segments"] == 10
    assert result["counters"]["dropped_nic_down"] == 22


def run_testbed(seed: int, traced: bool, fault: str) -> dict:
    """Twelve image requests, four at a time, through a one-worker
    testbed; returns everything the path of a message could move."""
    tb = Testbed(seed=seed, n_workers=1, with_tracing=traced)
    tb.add_backend("lambda-nic")
    spec = standard_workloads()["image_transformer"]
    blob = bytes(index % 253 for index in range(spec.request_bytes))
    env = tb.env
    nic = tb.nics[0]
    completions = []
    complete = nic._complete_rdma

    def recording(ordered, total, last):
        complete(ordered, total, last)
        completions.append((env.now, last.packet_id, last.headers.get(
            "LambdaHeader").seq, zlib.crc32(
                nic.lambda_memory("image_transformer.image"))))

    nic._complete_rdma = recording
    splits = []
    merge = switch_module._merge

    def counted(*args):
        splits.append(len(args[0]))
        return merge(*args)

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        if fault == "loss":
            for name in (tb.gateway.name, nic.name):
                direction = tb.network.link(name).direction(
                    tb.network.switch.name if name == nic.name else name)
                direction.drop_probability = 0.0005
                direction.rng = tb.rng.stream(f"loss-{name}")
        elif fault == "cut":
            link = tb.network.link(nic.name)
            for at, up in ((0.3e-3, False), (0.35e-3, True),
                           (2.1e-3, False), (2.4e-3, True)):
                env.timeout(at).callbacks.append(
                    lambda event, up=up: link.set_state(up))
        result = yield closed_loop(env, tb.gateway, spec.name,
                                   n_requests=12, concurrency=4,
                                   payload=blob,
                                   payload_bytes=spec.request_bytes)
        return result

    switch_module._merge = counted
    try:
        process = env.process(scenario(env))
        tb.run(until=process)
    finally:
        switch_module._merge = merge
    network = tb.network
    result = process.value
    return {
        "latencies": result.latencies,
        "failures": result.failures,
        "events": env._eid,
        "links": {f"{name}>{end}": vars(network.link(name).stats(end))
                  for name in network.nodes
                  for end in (name, network.switch.name)},
        "switch": vars(network.switch.stats),
        "nodes": {name: (network.node(name).rx_packets,
                         network.node(name).tx_packets)
                  for name in network.nodes},
        "nic": {name: getattr(nic.stats, name) for name in COUNTERS},
        "reorder": held(nic._reorder),
        "completions": completions,
        "splits": splits,
        "spans": sorted((span.name, span.trace_id, span.node, span.start,
                         span.end, sorted(map(str, span.tags.items())))
                        for span in (tb.tracer.spans if traced else ())),
    }


@pytest.mark.parametrize("fault", ["none", "cut", "loss"])
@pytest.mark.parametrize("traced", [False, True])
def test_messages_match_the_packet_per_segment_path(traced, fault):
    """Against one packet per segment (``tests/net/legacy_segments.py``):
    the same instants, counters, reorder state, completing packets and
    memory, the same kernel events, and with tracing the same spans.
    Without faults the NIC's responses split the next image at the
    switch, so the split, take-back and made-segment paths run; a cut
    or loss strands messages, which the NIC evicts."""
    with packet_per_segment():
        expected = run_testbed(3, traced, fault)
    result = run_testbed(3, traced, fault)
    assert result == expected
    assert result["completions"]
    if fault == "none":
        assert result["splits"]
    else:
        assert result["nic"]["rdma_evicted"]
