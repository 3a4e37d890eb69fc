"""A SmartNIC taking whole packet trains, against one taking packets.

``SmartNIC.receive_train`` holds a train and handles its packets
lazily, each under the NIC state at its own arrival. ``PacketwiseNIC``
below is the oracle: it hands each packet to ``receive`` in its own
event at its arrival instant, as the links did before trains. Both
receive the same RDMA messages while the NIC fails and restores,
swaps or reinstalls firmware, and while the link takes back a train's
tail and re-sends it later. Counters, the reorder buffer and every
``_complete_rdma`` instant must match. State changes fall between
arrivals (the declared tie rule covers the same instant).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilationUnit, compile_unit
from repro.hw import SmartNIC
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Network,
    Packet,
    RdmaHeader,
    Train,
    UDPHeader,
)
from repro.sim import Environment, RngRegistry
from tests.hw.test_smartnic import rdma_lambda

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


def segment(request_id, seq, total, payload_bytes=100):
    return Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=1, request_id=request_id, seq=seq,
                         total_segments=total),
            RdmaHeader(opcode="WRITE", qp=5, length=payload_bytes),
        ]),
        payload=None, payload_bytes=payload_bytes)


def run(nic_class, messages, changes) -> dict:
    env = Environment()
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
        completions.append((env.now, last.headers.get("LambdaHeader")
                            .request_id, len(ordered)))
        return complete(ordered, total, last)

    nic._complete_rdma = recording
    trains = []
    slot = 0
    for request_id, first_seq, count, total in messages:
        packets = [segment(request_id, first_seq + k, total)
                   for k in range(count)]
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
        "swap": lambda event: nic.load_firmware(firmware, swap=True),
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
                    reorder.duplicate_segments,
                    {key: sorted(message.segments)
                     for key, message in reorder._messages.items()}),
        "open": dict(nic._rdma_open),
        "completions": completions,
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
@given(messages=messages, changes=changes)
def test_trains_match_packet_by_packet_delivery(messages, changes):
    assert run(SmartNIC, messages, changes) == \
        run(PacketwiseNIC, messages, changes)


def test_a_whole_message_completes_at_its_last_arrival_in_one_event():
    result = run(SmartNIC, [(1, 0, 32, 32)], [])
    assert result["completions"] == [(START + 31 * STEP, 1, 32)]
    assert result == run(PacketwiseNIC, [(1, 0, 32, 32)], [])


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
