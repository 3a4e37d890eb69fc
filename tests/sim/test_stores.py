"""Tests for the FIFO Store, as the Store-based link and switch oracle
(``tests/net/legacy_hops.py``) uses it."""

import pytest

from repro.sim import Environment
from tests.net.legacy_hops import Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, store):
        for item in ["a", "b", "c"]:
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env, store):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env, store):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [(5.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env, store):
        yield store.put(1)
        yield store.put(2)
        times.append(env.now)

    def consumer(env, store):
        yield env.timeout(3.0)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert times == [3.0]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("x")
    store.put("y")
    env.run()
    assert len(store) == 2


def test_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_filter_store_matches_predicate():
    """Puts made without yielding while the consumer is busy queue up and
    are delivered in put order (the link's transmit loop)."""
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env, store):
        while True:
            item = yield store.get()
            received.append((env.now, item))
            yield env.timeout(1.0)

    def producer(env, store):
        yield env.timeout(0.5)
        for item in ["p1", "p2", "p3"]:
            store.put(item)
        yield env.timeout(0.25)
        store.put("p4")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run(until=10.0)
    assert received == [(0.5, "p1"), (1.5, "p2"), (2.5, "p3"), (3.5, "p4")]
    assert store.items == []


def test_filter_store_head_blocked_does_not_starve():
    """Getters blocked on an empty store are served in the order they
    began waiting, one item each."""
    env = Environment()
    store = Store(env)
    received = []

    def getter(env, store, name, delay):
        yield env.timeout(delay)
        item = yield store.get()
        received.append((name, env.now, item))

    def producer(env, store):
        yield env.timeout(1.0)
        store.put("x")
        store.put("y")
        yield env.timeout(1.0)
        store.put("z")

    env.process(getter(env, store, "second", 0.2))
    env.process(getter(env, store, "first", 0.1))
    env.process(getter(env, store, "third", 0.3))
    env.process(producer(env, store))
    env.run()
    assert received == [
        ("first", 1.0, "x"),
        ("second", 1.0, "y"),
        ("third", 2.0, "z"),
    ]


def test_priority_store_orders_items():
    """A getter blocked on an empty store gets the item at the instant of
    the put, and the item never lingers in ``items``."""
    env = Environment()
    store = Store(env)
    received = []
    lingering = []

    def consumer(env, store):
        item = yield store.get()
        received.append((env.now, item))

    def producer(env, store):
        yield env.timeout(2.5)
        store.put("packet")
        lingering.append(list(store.items))

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert received == [(2.5, "packet")]
    assert lingering == [[]]


def test_priority_item_comparison():
    """On an unbounded store a put is triggered at once (so a producer
    may drop the event), and the very object put comes out."""
    env = Environment()
    store = Store(env)
    packet = object()
    put = store.put(packet)
    assert put.triggered and put.ok
    get = store.get()
    assert get.triggered and get.value is packet
    assert len(store) == 0


def test_store_get_cancel():
    env = Environment()
    store = Store(env)

    def consumer(env, store):
        get = store.get()
        yield env.timeout(1.0)
        get.cancel()
        return "cancelled"

    def producer(env, store):
        yield env.timeout(2.0)
        yield store.put("item")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    # The cancelled getter must not have consumed the item.
    assert store.items == ["item"]
