"""Unit tests for the typed metrics registry."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.host.cpu import CpuStats
from repro.host.server import ServerStats
from repro.hw.nic import NicStats
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeStats,
    percentile_of,
)


# -- percentile_of (the single percentile implementation) --------------------


def test_percentile_of_nearest_rank():
    data = [1.0, 2.0, 3.0, 4.0]
    assert percentile_of(data, 0) == 1.0
    assert percentile_of(data, 50) == 2.0
    assert percentile_of(data, 75) == 3.0
    assert percentile_of(data, 100) == 4.0


def test_percentile_of_empty_is_nan_and_bad_q_raises():
    assert math.isnan(percentile_of([], 50))
    with pytest.raises(ValueError):
        percentile_of([1.0], 101)
    with pytest.raises(ValueError):
        percentile_of([1.0], -1)


# -- counters ---------------------------------------------------------------


def test_counter_inc_labels_total_items():
    counter = Counter("requests_total")
    counter.inc()
    counter.inc(2, labels={"node": "m2"})
    counter.inc(3, labels={"node": "m3"})
    assert counter.value() == 1
    assert counter.value({"node": "m2"}) == 2
    assert counter.total == 6
    assert sorted((labels.get("node", ""), value)
                  for labels, value in counter.items()) == [
        ("", 1.0), ("m2", 2.0), ("m3", 3.0)]


def test_counter_rejects_negative_increment():
    counter = Counter("c")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_merge_commutative():
    a, b = Counter("c"), Counter("c")
    a.inc(1)
    a.inc(5, labels={"x": "1"})
    b.inc(2, labels={"x": "1"})
    b.inc(7, labels={"y": "2"})
    ab, ba = a.merge(b), b.merge(a)
    for labels in (None, {"x": "1"}, {"y": "2"}):
        assert ab.value(labels) == ba.value(labels)
    assert ab.total == ba.total == 15


# -- gauges -----------------------------------------------------------------


def test_gauge_set_add_and_merge():
    gauge = Gauge("queue_depth")
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value() == 3
    other = Gauge("queue_depth")
    other.set(4)
    assert gauge.merge(other).value() == other.merge(gauge).value() == 7


def test_tracked_gauge_reads_its_source_when_read():
    class Source:
        hits = 1

    source = Source()
    gauge = Gauge("hits")
    gauge.track(source, "hits", {"tier": "jit"})
    source.hits = 5
    assert gauge.value({"tier": "jit"}) == 5.0
    assert gauge.items() == [({"tier": "jit"}, 5.0)]
    snapshot = gauge.copy()
    source.hits = 9
    assert snapshot.value({"tier": "jit"}) == 5.0
    assert gauge.merge(snapshot).value({"tier": "jit"}) == 14.0


# -- tracked counters: plain attributes the registry reads ------------------


class _Stats(NodeStats):
    COUNTERS = (("served", "served_total", "requests served", 0),
                ("busy", "busy_seconds_total", "", 0.0))


def test_counter_attribute_reads_and_increments():
    stats = _Stats()
    assert stats.served == 0 and isinstance(stats.served, int)
    stats.served += 1
    stats.served += 2
    assert stats.served == 3
    assert stats.registry.counter("served_total").value() == 3
    stats.busy += 0.25
    assert stats.busy == pytest.approx(0.25)
    assert isinstance(stats.busy, float)
    assert stats.registry.counter("busy_seconds_total").total == 0.25


def test_counter_attribute_rejects_decrease():
    stats = _Stats()
    counter = stats.registry.counter("served_total")
    stats.served = 5
    assert counter.value() == 5
    stats.served = 4
    with pytest.raises(ValueError, match="served"):
        counter.value()
    stats.served = 5
    assert counter.value() == 5


def test_counter_attribute_shares_registry_with_labels():
    registry = MetricsRegistry()
    a = _Stats(registry, node="m2")
    b = _Stats(registry, node="m3")
    a.served += 2
    b.served += 3
    assert a.served == 2 and b.served == 3
    assert registry.counter("served_total").total == 5
    assert registry.counter("served_total").items() == [
        ({"node": "m2"}, 2.0), ({"node": "m3"}, 3.0)]


def test_tracked_counter_lists_once_nonzero():
    """A labelset, and a counter that only tracks attributes, appear
    once a value is nonzero, as when the counter was first incremented."""
    registry = MetricsRegistry()
    stats = _Stats(registry, node="m2")
    registry.gauge("depth")
    assert registry.names() == ["depth"]
    assert registry.copy().names() == ["depth"]
    stats.served += 1
    assert registry.names() == ["depth", "served_total"]
    assert set(registry.scrape()) == {"depth", "served_total"}
    assert registry.merge(MetricsRegistry()).names() == \
        ["depth", "served_total"]
    assert registry.scrape()["served_total"]._values == {
        (("node", "m2"),): 1.0}
    # Asking for a counter by name lists it, nonzero or not.
    assert registry.counter("busy_seconds_total").items() == []
    assert "busy_seconds_total" in registry.names()


def test_tracked_counters_bind_when_first_asked_for():
    """Building stats objects does no registry work; a counter asked for
    by name tracks every object built before and after."""
    registry = MetricsRegistry()
    a = _Stats(registry, node="m2")
    a.served += 1
    registry.histogram("latency")
    assert "served_total" not in registry._metrics
    counter = registry.counter("served_total")
    b = _Stats(registry, node="m3")
    b.served += 2
    assert counter.items() == [({"node": "m2"}, 1.0), ({"node": "m3"}, 2.0)]
    with pytest.raises(TypeError):
        registry.gauge("busy_seconds_total")


def test_tracked_counter_pickles_its_values_not_its_source():
    import pickle

    stats = _Stats(node="m2")
    stats.served += 4
    shipped = pickle.loads(pickle.dumps(stats.registry))
    stats.served += 1
    assert shipped.names() == ["served_total"]
    assert shipped.counter("served_total").value({"node": "m2"}) == 4
    assert stats.registry.counter("served_total").value({"node": "m2"}) == 5


# -- bound counters on the stats classes ------------------------------------


def test_bound_counters_move_only_their_own_labelset():
    registry = MetricsRegistry()
    a = NicStats(registry, node="m2-nic")
    b = NicStats(registry, node="m3-nic")
    a.requests_served += 1
    a.requests_served += 2
    b.requests_served += 5
    a.busy_seconds += 0.5
    counter = registry.counter("nic_requests_served_total")
    assert a.requests_served == counter.value({"node": "m2-nic"}) == 3
    assert b.requests_served == counter.value({"node": "m3-nic"}) == 5
    assert a.busy_seconds == registry.counter(
        "nic_busy_seconds_total").value({"node": "m2-nic"}) == 0.5
    assert b.busy_seconds == 0.0
    # Writes through the registry are seen by the bound attribute too.
    counter.inc(4, labels={"node": "m3-nic"})
    assert b.requests_served == 9 and a.requests_served == 3


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=60))
def test_bound_float_counter_is_bit_identical_to_counter_inc(amounts):
    # The reference is what ``+=`` meant before the handles were bound:
    # read the value, add, and Counter.inc the difference.
    stats = CpuStats(node="m2-bm")
    reference = Counter("reference")
    labels = {"node": "m2-bm"}
    for amount in amounts:
        stats.busy_seconds += amount
        current = reference.value(labels)
        delta = (current + amount) - current
        if delta:
            reference.inc(delta, labels=labels)
    assert stats.busy_seconds.hex() == reference.value(labels).hex()


def test_bound_counter_decrease_raises_and_keeps_value():
    stats = ServerStats(node="m2-bm")
    counter = stats.registry.counter("host_requests_served_total")
    stats.requests_served += 7
    assert counter.value({"node": "m2-bm"}) == 7
    stats.requests_served = 6
    with pytest.raises(ValueError, match="requests_served"):
        counter.value({"node": "m2-bm"})
    # The registry keeps the last value it read.
    assert counter._values == {(("node", "m2-bm"),): 7.0}


def test_registry_copy_and_merge_see_bound_writes():
    registry = MetricsRegistry()
    stats = NicStats(registry, node="m2-nic")
    stats.responses_sent += 2
    snapshot = registry.copy()
    merged = registry.merge(MetricsRegistry())
    stats.responses_sent += 1
    name = "nic_responses_sent_total"
    assert snapshot.counter(name).value({"node": "m2-nic"}) == 2
    assert merged.counter(name).value({"node": "m2-nic"}) == 2
    assert registry.copy().counter(name).value({"node": "m2-nic"}) == 3
    assert stats.responses_sent == 3


def test_per_name_views_read_as_before():
    registry = MetricsRegistry()
    nic = NicStats(registry, node="m2-nic")
    other = NicStats(registry, node="m3-nic")
    for name in ("a", "b", "a"):
        nic.count_lambda(name)
    other.count_lambda("a")
    assert nic.per_lambda_requests == {"a": 2, "b": 1}
    assert other.per_lambda_requests == {"a": 1}
    assert isinstance(nic.per_lambda_requests["a"], int)
    unlabelled = NicStats()
    unlabelled.count_lambda("a")
    assert unlabelled.per_lambda_requests == {"a": 1}

    server = ServerStats(registry, node="m2-bm")
    server.latencies.append(0.25)
    server.latencies.append(0.5)
    assert server.latencies is server.latencies
    hist = registry.histogram("host_latency_seconds")
    assert hist.observations({"node": "m2-bm"}) == [0.25, 0.5]

    cpu = CpuStats(registry, node="m2-bm")
    cpu.add_task_busy("kernel", 1e-3)
    cpu.add_task_busy("kernel", 2e-3)
    cpu.add_task_busy("fn", 0.5)
    assert cpu.per_task_busy == {"kernel": 1e-3 + 2e-3, "fn": 0.5}
    assert registry.counter("cpu_task_busy_seconds_total").value(
        {"node": "m2-bm", "task": "kernel"}) == 1e-3 + 2e-3


# -- histograms -------------------------------------------------------------


def test_histogram_basic_queries():
    hist = Histogram("latency_seconds")
    for value in [0.4, 0.1, 0.3, 0.2]:
        hist.observe(value)
    assert hist.count() == 4
    assert hist.mean() == pytest.approx(0.25)
    assert hist.percentile(50) == 0.2
    assert hist.percentile(100) == 0.4
    assert hist.ecdf() == [(0.1, 0.25), (0.2, 0.5), (0.3, 0.75), (0.4, 1.0)]
    assert hist.fraction_below(0.25) == 0.5
    assert hist.observations() == [0.4, 0.1, 0.3, 0.2]


def test_histogram_empty_and_bad_q():
    hist = Histogram("h")
    assert hist.count() == 0
    assert math.isnan(hist.mean())
    assert math.isnan(hist.percentile(99))
    assert math.isnan(hist.fraction_below(1.0))
    with pytest.raises(ValueError):
        hist.percentile(120)


def test_histogram_raw_is_a_live_view():
    """Legacy ``stats.latencies.append(...)`` sites flow into queries."""
    hist = Histogram("h")
    raw = hist.raw()
    raw.append(3.0)
    raw.append(1.0)
    assert hist.percentile(50) == 1.0  # sort cache rebuilt on demand
    raw.append(0.5)
    assert hist.percentile(0) == 0.5  # cache invalidated by length change
    assert hist.count() == 3


def test_histogram_labelled_series_are_independent():
    hist = Histogram("h")
    hist.observe(1.0, labels={"node": "m2"})
    hist.observe(9.0, labels={"node": "m3"})
    assert hist.percentile(50, labels={"node": "m2"}) == 1.0
    assert hist.percentile(50, labels={"node": "m3"}) == 9.0
    assert hist.count() == 0  # unlabelled series untouched


def test_histogram_windowed_queries_use_sim_time():
    """Histograms keep no sim-time column: neither a histogram nor a
    query takes a clock or a window, and every query covers every
    observation."""
    with pytest.raises(TypeError):
        Histogram("h", clock=lambda: 0.0)
    hist = Histogram("h")
    for value in (10.0, 20.0, 30.0):
        hist.observe(value)
    with pytest.raises(TypeError):
        hist.count(since=2.0)
    with pytest.raises(TypeError):
        hist.percentile(50, until=2.0)
    assert hist.count() == 3
    assert hist.mean() == pytest.approx(20.0)
    assert hist.percentile(100) == 30.0


def test_histogram_windows_without_clock_are_empty():
    """Appends through ``raw()`` are observations like ``observe``'s:
    interleaved, every query counts both, in append order."""
    hist = Histogram("h")
    hist.observe(1.0)
    hist.raw().append(4.0)
    hist.observe(2.0)
    hist.raw().append(3.0)
    assert hist.observations() == [1.0, 4.0, 2.0, 3.0]
    assert hist.count() == 4
    assert hist.mean() == pytest.approx(2.5)
    assert hist.percentile(50) == 2.0
    assert hist.fraction_below(2.0) == 0.5
    empty = Histogram("e")
    assert empty.count() == 0
    assert math.isnan(empty.mean()) and math.isnan(empty.percentile(50))


def test_histogram_merge_commutative():
    a, b = Histogram("h"), Histogram("h")
    for value in [1.0, 5.0, 3.0]:
        a.observe(value)
    for value in [2.0, 4.0]:
        b.observe(value, labels={"node": "m2"})
        b.observe(value)
    ab, ba = a.merge(b), b.merge(a)
    for labels in (None, {"node": "m2"}):
        assert ab.count(labels) == ba.count(labels)
        for q in (0, 25, 50, 75, 100):
            assert ab.percentile(q, labels) == ba.percentile(q, labels)
    assert ab.ecdf() == ba.ecdf()


def test_histogram_merge_drops_timestamps_unless_both_timed():
    """A merged series is the operands' values, left operand first,
    raw appends included, and carries no other column."""
    a, b = Histogram("h"), Histogram("h")
    a.observe(1.0)
    a.raw().append(5.0)
    b.observe(2.0)
    merged = a.merge(b)
    assert merged.observations() == [1.0, 5.0, 2.0]
    assert b.merge(a).observations() == [2.0, 1.0, 5.0]
    [series] = merged._series.values()
    assert series.__slots__ == ("values", "_sorted", "_sorted_len")


# -- registry ---------------------------------------------------------------


def test_registry_returns_same_instance_and_checks_types():
    registry = MetricsRegistry()
    counter = registry.counter("x_total", "help")
    assert registry.counter("x_total") is counter
    with pytest.raises(TypeError):
        registry.gauge("x_total")
    with pytest.raises(TypeError):
        registry.histogram("x_total")
    registry.histogram("h")
    with pytest.raises(TypeError):
        registry.counter("h")


def test_registry_clock_wires_histograms():
    """A registry takes no clock. The histograms it makes are plain
    histograms, and its copy holds their observations apart from the
    original's."""
    with pytest.raises(TypeError):
        MetricsRegistry(clock=lambda: 7.0)
    assert not hasattr(MetricsRegistry(), "bind_clock")
    registry = MetricsRegistry()
    hist = registry.histogram("latency", "help")
    hist.observe(1.0)
    assert registry.histogram("latency") is hist
    copied = registry.copy()
    hist.observe(2.0)
    assert copied.histogram("latency").observations() == [1.0]
    assert copied.histogram("latency").help_text == "help"


def test_registry_names_and_scrape():
    registry = MetricsRegistry()
    registry.counter("b_total")
    registry.gauge("a_depth")
    assert registry.names() == ["a_depth", "b_total"]
    snapshot = registry.scrape()
    assert set(snapshot) == {"a_depth", "b_total"}
    assert isinstance(snapshot["b_total"], Counter)


# -- registry merge and the process-boundary (pickle) path -------------------


def _two_registries():
    a = MetricsRegistry()
    a.counter("requests_total").inc(3, labels={"w": "echo"})
    a.counter("requests_total").inc(2, labels={"w": "kv"})
    a.histogram("latency").observe(1.0)
    a.histogram("latency").observe(9.0)
    a.gauge("depth").set(4)

    b = MetricsRegistry()
    b.counter("requests_total").inc(7, labels={"w": "echo"})
    b.histogram("latency").observe(3.0)
    b.counter("only_b_total").inc(11)
    return a, b


def test_registry_merge_is_commutative_and_covers_one_sided_metrics():
    a, b = _two_registries()
    ab, ba = a.merge(b), b.merge(a)
    assert ab.names() == ba.names() == \
        ["depth", "latency", "only_b_total", "requests_total"]
    assert ab.counter("requests_total").total == 12
    assert ab.counter("requests_total").value({"w": "echo"}) == 10
    assert ab.counter("only_b_total").total == 11
    assert ab.gauge("depth").value() == 4
    assert sorted(ab.histogram("latency").observations()) == \
        sorted(ba.histogram("latency").observations()) == [1.0, 3.0, 9.0]


def test_registry_merge_does_not_alias_operands():
    a, b = _two_registries()
    merged = a.merge(b)
    merged.counter("only_b_total").inc(100)
    merged.histogram("latency").observe(77.0)
    assert b.counter("only_b_total").total == 11
    assert 77.0 not in a.histogram("latency").observations()


def test_registry_merge_rejects_type_conflicts():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("x")
    b.gauge("x")
    with pytest.raises(TypeError):
        a.merge(b)


def test_registry_merge_all_folds_and_copies():
    a, b = _two_registries()
    merged = MetricsRegistry.merge_all([a, b])
    assert merged.counter("requests_total").total == 12
    empty = MetricsRegistry.merge_all([])
    assert empty.names() == []
    single = MetricsRegistry.merge_all([a])
    single.counter("requests_total").inc(100)
    assert a.counter("requests_total").total == 5


def test_pickle_round_trip_merge_equals_in_process_merge():
    import pickle

    a, b = _two_registries()
    in_process = a.merge(b)
    shipped = pickle.loads(pickle.dumps(a)).merge(
        pickle.loads(pickle.dumps(b)))
    assert shipped.names() == in_process.names()
    for name in in_process.names():
        mine, theirs = in_process.scrape()[name], shipped.scrape()[name]
        assert type(mine) is type(theirs)
        if isinstance(mine, Histogram):
            assert sorted(mine.observations()) == \
                sorted(theirs.observations())
        elif isinstance(mine, Counter):
            assert sorted(map(repr, mine.items())) == \
                sorted(map(repr, theirs.items()))


def test_pickled_histogram_drops_clock_but_keeps_timestamps():
    """A pickled histogram keeps its observations in order; the thawed
    copy takes new ones and answers queries like the original."""
    import pickle

    a, _ = _two_registries()
    thawed = pickle.loads(pickle.dumps(a))
    hist = thawed.histogram("latency")
    assert hist.observations() == [1.0, 9.0]
    assert hist.percentile(50) == a.histogram("latency").percentile(50)
    hist.observe(0.5)
    assert hist.percentile(0) == 0.5  # sort cache follows new data
    assert a.histogram("latency").count() == 2


def test_registry_register_adopts_and_rejects_collisions():
    registry = MetricsRegistry()
    counter = Counter("adopted_total")
    counter.inc(3)
    registry.register(counter)
    assert registry.counter("adopted_total").total == 3
    registry.register(counter)  # idempotent for the same object
    with pytest.raises(ValueError):
        registry.register(Counter("adopted_total"))
