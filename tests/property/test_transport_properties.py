"""Property-based tests for segmentation and reordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Message, UDPHeader
from repro.transport import ReorderBuffer


def message(size, segment_bytes, payload=None):
    return Message("gw", "nic", [UDPHeader()], wid=1, request_id=9, qp=3,
                   size=size, segment_bytes=segment_bytes, payload=payload)


@given(
    size=st.integers(min_value=0, max_value=200_000),
    segment_bytes=st.integers(min_value=64, max_value=9000),
)
@settings(deadline=None)
def test_segmentation_covers_message_exactly(size, segment_bytes):
    segments = message(size, segment_bytes).segments()
    rdma = [segment.headers.require("RdmaHeader") for segment in segments]
    assert sum(header.length for header in rdma) == size
    assert segments.payload_bytes() == size
    assert rdma[0].remote_address == 0
    # Contiguous, non-overlapping coverage.
    for previous, current in zip(rdma, rdma[1:]):
        assert current.remote_address == \
            previous.remote_address + previous.length
    assert [segment.seq for segment in segments] == list(range(len(rdma)))
    assert all(segment.total == len(rdma) for segment in segments)


@given(data=st.binary(min_size=0, max_size=50_000),
       segment_bytes=st.integers(min_value=1, max_value=4096))
@settings(max_examples=50)
def test_segment_reassemble_roundtrip(data, segment_bytes):
    segments = message(len(data), segment_bytes, payload=data).segments()
    assert b"".join(segment.payload for segment in segments) == data


@given(
    n=st.integers(min_value=1, max_value=60),
    permutation_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reorder_buffer_yields_order_for_any_permutation(n, permutation_seed):
    import random

    order = list(range(n))
    random.Random(permutation_seed).shuffle(order)
    buffer = ReorderBuffer()
    result = None
    for count, seq in enumerate(order, start=1):
        result = buffer.add("m", seq, n, f"item{seq}")
        if count < n:
            assert result is None
    assert result == [f"item{index}" for index in range(n)]
    assert buffer.completed_messages == 1
    assert buffer.total_segments == n


@given(
    n_messages=st.integers(min_value=1, max_value=5),
    n_segments=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_reorder_buffer_interleaved_messages_all_complete(
    n_messages, n_segments, seed,
):
    """Arbitrary interleaving of several messages' segments still
    completes each message exactly once, in order."""
    import random

    rng = random.Random(seed)
    events = [
        (message, seq)
        for message in range(n_messages)
        for seq in range(n_segments)
    ]
    rng.shuffle(events)
    buffer = ReorderBuffer()
    completed = {}
    for message, seq in events:
        result = buffer.add(message, seq, n_segments, (message, seq))
        if result is not None:
            assert message not in completed
            completed[message] = result
    assert len(completed) == n_messages
    for message, items in completed.items():
        assert items == [(message, seq) for seq in range(n_segments)]
    assert buffer._messages == {}


@given(data=st.data(), total=st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_runs_leave_the_buffer_as_their_segments_one_by_one(data, total):
    """``add_run`` keeps a run whole where it can and goes seq by seq
    where it overlaps what is held: either way the counters, the
    completions and what stays buffered are those of ``add_train``."""
    runs = data.draw(st.lists(
        st.integers(min_value=0, max_value=total - 1).flatmap(
            lambda first: st.tuples(st.just(first), st.integers(
                min_value=1, max_value=total - first))),
        max_size=8))
    by_run, by_seq = ReorderBuffer(), ReorderBuffer()

    def flat(ordered):
        return [item for entry in ordered for item in
                (entry if isinstance(entry, list) else [entry])]

    for first, count in runs:
        items = [("m", seq) for seq in range(first, first + count)]
        completed = by_run.add_run("m", total, first, items)
        assert [(index, flat(ordered)) for index, ordered in completed] \
            == by_seq.add_train("m", total, first, items)
        for name in ("completed_messages", "total_segments",
                     "duplicate_segments"):
            assert getattr(by_run, name) == getattr(by_seq, name), name
        assert by_run._messages.keys() == by_seq._messages.keys()
        assert by_run.highest_seq("m") == by_seq.highest_seq("m")
        if by_seq._messages:
            assert by_run._messages["m"].received == \
                by_seq._messages["m"].received
            assert by_run._messages["m"].out_of_order == \
                by_seq._messages["m"].out_of_order
