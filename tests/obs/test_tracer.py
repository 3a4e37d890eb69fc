"""Unit tests for the span tracer and its trace-analysis helpers."""

import pytest

from repro.obs import (
    META_KEY,
    Span,
    Tracer,
    check_invariants,
    children_index,
    coverage_of,
    roots,
    spans_by_trace,
    trace_digest,
    tree_shape,
)


class FakeEnv:
    """A stand-in environment: just a settable clock."""

    def __init__(self):
        self.now = 0.0


class FakePacket:
    def __init__(self):
        self.meta = {}


def test_begin_end_records_interval_and_tags():
    env = FakeEnv()
    tracer = Tracer(env)
    tid = tracer.new_trace()
    span = tracer.begin("gateway.request", "gateway", trace_id=tid,
                        node="m1", tags={"workload": "web_server"})
    assert not span.finished
    env.now = 2.5
    tracer.end(span, tags={"ok": 1})
    assert span.finished
    assert span.start == 0.0 and span.end == 2.5
    assert span.duration == 2.5
    assert span.tags == {"workload": "web_server", "ok": 1}
    assert span.trace_id == tid


def test_parent_accepts_span_or_id():
    env = FakeEnv()
    tracer = Tracer(env)
    root = tracer.begin("root", trace_id=1)
    by_span = tracer.begin("child", trace_id=1, parent=root)
    by_id = tracer.begin("child", trace_id=1, parent=root.span_id)
    assert by_span.parent_id == root.span_id
    assert by_id.parent_id == root.span_id


def test_retroactive_start_covers_queueing():
    env = FakeEnv()
    tracer = Tracer(env)
    env.now = 5.0
    span = tracer.begin("host.cpu", trace_id=1, start=3.0)
    env.now = 6.0
    tracer.end(span)
    assert span.start == 3.0 and span.end == 6.0


def test_instant_has_zero_duration():
    env = FakeEnv()
    env.now = 4.0
    tracer = Tracer(env)
    span = tracer.instant("fault.injected", "fault", node="m2-nic")
    assert span.start == span.end == 4.0
    assert span.duration == 0.0


def test_instant_at_a_given_instant():
    tracer = Tracer(FakeEnv())
    span = tracer.instant("nic.drop", "nic", at=2.5)
    assert span.start == span.end == 2.5


def test_discard_removes_only_the_given_spans_in_order():
    tracer = Tracer(FakeEnv())
    spans = [tracer.instant(f"s{i}") for i in range(6)]
    tracer.discard([spans[4], None, spans[1]])
    assert [span.name for span in tracer.spans] == ["s0", "s2", "s3", "s5"]
    tracer.discard([])
    assert len(tracer.spans) == 4


def test_end_is_none_safe():
    tracer = Tracer(FakeEnv())
    tracer.end(None)  # must not raise
    assert tracer.spans == []


def test_max_spans_drops_and_counts():
    env = FakeEnv()
    tracer = Tracer(env, max_spans=2)
    assert tracer.begin("a") is not None
    assert tracer.begin("b") is not None
    assert tracer.begin("c") is None
    assert tracer.instant("d") is None
    assert len(tracer.spans) == 2
    assert tracer.dropped_spans == 2


def test_open_span_duration_raises():
    tracer = Tracer(FakeEnv())
    span = tracer.begin("open")
    with pytest.raises(ValueError):
        _ = span.duration


def test_new_trace_ids_are_distinct():
    tracer = Tracer(FakeEnv())
    ids = {tracer.new_trace() for _ in range(10)}
    assert len(ids) == 10


# -- packet context ----------------------------------------------------------


def test_stamp_propagate_and_context_roundtrip():
    env = FakeEnv()
    tracer = Tracer(env)
    span = tracer.begin("gateway.proxy", trace_id=7)
    request, response = FakePacket(), FakePacket()

    Tracer.stamp_packet(request, span)
    assert request.meta[META_KEY] == (7, span.span_id)
    assert Tracer.context(request) == (7, span.span_id)

    Tracer.propagate(request, response)
    assert Tracer.context(response) == (7, span.span_id)


def test_unstamped_packet_has_null_context():
    packet = FakePacket()
    assert Tracer.context(packet) == (0, None)
    Tracer.stamp_packet(packet, None)  # None-safe
    assert packet.meta == {}
    Tracer.propagate(packet, FakePacket())  # nothing to copy, no raise


# -- analysis helpers --------------------------------------------------------


def _make_tree(tracer=None):
    """root [0..10] with children [0..4] and [6..10] (child2 nested)."""
    tracer = tracer if tracer is not None else Tracer(FakeEnv())
    env = tracer.env
    env.now = 0.0
    root = tracer.begin("root", trace_id=1, node="m1")
    left = tracer.begin("left", trace_id=1, parent=root)
    env.now = 4.0
    tracer.end(left)
    env.now = 6.0
    right = tracer.begin("right", trace_id=1, parent=root)
    nested = tracer.begin("nested", trace_id=1, parent=right)
    env.now = 10.0
    tracer.end(nested)
    tracer.end(right)
    tracer.end(root)
    return tracer


def test_spans_by_trace_and_roots_and_children():
    tracer = _make_tree()
    other = tracer.begin("solo", trace_id=2)
    tracer.end(other)
    by_trace = spans_by_trace(tracer.spans)
    assert set(by_trace) == {1, 2}
    assert [s.name for s in roots(by_trace[1])] == ["root"]
    index = children_index(by_trace[1])
    root = roots(by_trace[1])[0]
    assert sorted(s.name for s in index[root.span_id]) == ["left", "right"]


def test_check_invariants_clean_tree():
    tracer = _make_tree()
    assert check_invariants(tracer.spans) == []


def test_check_invariants_flags_violations():
    env = FakeEnv()
    tracer = Tracer(env)
    never_ended = tracer.begin("open", trace_id=1)
    orphan = tracer.begin("orphan", trace_id=1, parent=9999)
    tracer.end(orphan)
    root = tracer.begin("root", trace_id=1)
    crosser = tracer.begin("crosser", trace_id=2, parent=root)
    env.now = 1.0
    tracer.end(root)
    env.now = 2.0
    tracer.end(crosser)  # also escapes its parent's interval
    messages = "\n".join(check_invariants(tracer.spans))
    assert "never ended" in messages
    assert "orphan parent" in messages
    assert "crosses traces" in messages
    assert "escapes parent" in messages
    assert never_ended.end is None


def test_coverage_of_partial_and_overlapping():
    tracer = _make_tree()
    root = roots(tracer.spans)[0]
    # left covers [0..4], right+nested cover [6..10]: 8 of 10 seconds.
    assert coverage_of(root, tracer.spans) == pytest.approx(0.8)


def test_coverage_ignores_other_traces_and_open_spans():
    env = FakeEnv()
    tracer = Tracer(env)
    root = tracer.begin("root", trace_id=1)
    stranger = tracer.begin("stranger", trace_id=2)
    tracer.begin("open-child", trace_id=1, parent=root)
    env.now = 10.0
    tracer.end(stranger)
    tracer.end(root)
    assert coverage_of(root, tracer.spans) == 0.0


def test_coverage_of_zero_duration_root_is_full():
    tracer = Tracer(FakeEnv())
    root = tracer.instant("root", trace_id=1)
    assert coverage_of(root, tracer.spans) == 1.0


def test_coverage_of_open_root_raises():
    tracer = Tracer(FakeEnv())
    root = tracer.begin("root", trace_id=1)
    with pytest.raises(ValueError):
        coverage_of(root, tracer.spans)


def test_tree_shape_counts_names_and_edges():
    tracer = _make_tree()
    shape = tree_shape(tracer.spans)
    assert shape["root"] == 1
    assert shape["root>left"] == 1
    assert shape["root>right"] == 1
    assert shape["right>nested"] == 1


def test_trace_digest_deterministic_and_sensitive():
    first = trace_digest(_make_tree().spans)
    second = trace_digest(_make_tree().spans)
    assert first == second

    tracer = _make_tree()
    tracer.spans[0].tags["extra"] = 1
    assert trace_digest(tracer.spans) != first


def test_trace_digest_independent_of_span_id_offsets():
    """Digest canonicalises via name-paths, not raw span ids."""
    plain = _make_tree()
    offset = Tracer(FakeEnv())
    for _ in range(5):  # burn span ids before building the same tree
        offset.end(offset.begin("warmup", trace_id=99))
    offset.spans.clear()
    _make_tree(offset)
    assert trace_digest(plain.spans) == trace_digest(offset.spans)


def test_span_repr_mentions_name_and_state():
    tracer = Tracer(FakeEnv())
    span = tracer.begin("nic.serve", trace_id=3)
    assert "nic.serve" in repr(span) and "open" in repr(span)
    tracer.end(span)
    assert "open" not in repr(span)
