"""Property-based tests for the simulation kernel."""

import heapq
import itertools

import hypothesis
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import NORMAL, URGENT, Environment
from tests.net.legacy_hops import Store
from tests.serverless.legacy_datapath import Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    """Events must be processed in timestamp order regardless of
    creation order."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=30))
def test_equal_timestamps_preserve_creation_order(delays):
    """Ties break FIFO by creation order (determinism invariant)."""
    env = Environment()
    order = []

    def waiter(env, index, delay):
        yield env.timeout(delay)
        order.append(index)

    for index, delay in enumerate(delays):
        env.process(waiter(env, index, delay))
    env.run()
    # Stable sort of indices by delay equals observed order.
    expected = [index for index, _ in
                sorted(enumerate(delays), key=lambda pair: pair[1])]
    assert order == expected


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_fifo_order(items):
    env = Environment()
    received = []

    def producer(env, store):
        for item in items:
            yield store.put(item)

    def consumer(env, store):
        for _ in items:
            value = yield store.get()
            received.append(value)

    store = Store(env)
    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == items


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.001, max_value=10.0,
                             allow_nan=False),
                   min_size=1, max_size=30),
)
@settings(max_examples=40)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with resource.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert resource.count == 0  # everything released


@given(
    n_users=st.integers(min_value=1, max_value=20),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_resource_work_conserving(n_users, capacity):
    """Total makespan of N unit jobs on a k-server equals ceil(N/k)."""
    import math

    env = Environment()
    resource = Resource(env, capacity=capacity)

    def user(env):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)

    for _ in range(n_users):
        env.process(user(env))
    env.run()
    assert env.now == math.ceil(n_users / capacity)


# -- scheduling-order oracle ----------------------------------------------
#
# The kernel keeps zero-delay events in per-priority FIFO deques beside
# its timestamp heap. This oracle replays random schedules through a
# plain single heap keyed on (time, priority, insertion) and checks the
# kernel processes exactly the same events in exactly the same order.
#
# A node is (kind, priority, delay, cancel_now, cancel_pick, children):
# ``kind`` "timeout" goes through ``env.timeout`` (NORMAL priority and
# cancellable), "event" is a bare event scheduled at ``priority``;
# ``cancel_now`` cancels a timeout as soon as it is made; when the node
# fires, ``cancel_pick`` (if set) cancels one still-pending timeout and
# ``children`` are scheduled from inside the callback.
#
# The reference also applies the kernel's rebuild rule: once a
# cancellation leaves more than half of the pending entries cancelled,
# the cancelled ones are dropped. Both sides count their rebuilds, so
# the oracle checks when the kernel rebuilds as well as that order
# survives it.

_ORACLE_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])


def _oracle_node(children):
    return st.tuples(
        st.sampled_from(["timeout", "event"]),
        st.sampled_from([URGENT, NORMAL]),
        _ORACLE_DELAYS,
        st.booleans(),
        st.none() | st.integers(min_value=0, max_value=7),
        children,
    )


_ORACLE_SCHEDULES = st.lists(
    st.recursive(
        _oracle_node(st.just(())),
        lambda kids: _oracle_node(st.lists(kids, max_size=3).map(tuple)),
        max_leaves=30,
    ),
    min_size=1, max_size=8,
)


def _pick(pending_labels, pick):
    return pending_labels[pick % len(pending_labels)]


def _run_kernel(schedule):
    env = Environment()
    log = []
    labels = itertools.count()
    timeouts = {}
    rebuilds = []
    drop_cancelled = env._drop_cancelled

    def counted_drop():
        rebuilds.append(env.now)
        drop_cancelled()

    env._drop_cancelled = counted_drop

    def fire(event, node):
        log.append((env.now, event.value))
        pick, children = node[4], node[5]
        if pick is not None:
            pending = [label for label, timeout in sorted(timeouts.items())
                       if not timeout.processed and not timeout.cancelled]
            if pending:
                timeouts[_pick(pending, pick)].cancel()
        for child in children:
            launch(child)

    def launch(node):
        kind, priority, delay, cancel_now = node[:4]
        label = next(labels)
        if kind == "timeout":
            event = env.timeout(delay, label)
            timeouts[label] = event
        else:
            event = env.event()
            event._ok = True
            event._value = label
            env.schedule(event, priority, delay)
        event.callbacks.append(lambda ev, node=node: fire(ev, node))
        if kind == "timeout" and cancel_now:
            event.cancel()

    for node in schedule:
        launch(node)
    env.run()
    return log, env.now, rebuilds


def _run_reference(schedule):
    # Entry: [time, priority, insertion, label, node, cancelled, fired].
    heap = []
    log = []
    labels = itertools.count()
    insertion = itertools.count()
    timeouts = {}
    rebuilds = []
    now = 0.0

    def cancel(entry):
        entry[5] = True
        if 2 * sum(other[5] for other in heap) > len(heap):
            heap[:] = [other for other in heap if not other[5]]
            heapq.heapify(heap)
            rebuilds.append(now)

    def launch(node):
        kind, priority, delay, cancel_now = node[:4]
        label = next(labels)
        entry = [now + delay, NORMAL if kind == "timeout" else priority,
                 next(insertion), label, node, False, False]
        heapq.heappush(heap, entry)
        if kind == "timeout":
            timeouts[label] = entry
            if cancel_now:
                cancel(entry)

    for node in schedule:
        launch(node)
    while heap:
        entry = heapq.heappop(heap)
        if entry[5]:
            continue  # cancelled: never fires, never moves the clock
        now = entry[0]
        entry[6] = True
        log.append((now, entry[3]))
        pick, children = entry[4][4], entry[4][5]
        if pick is not None:
            pending = [label for label, other in sorted(timeouts.items())
                       if not other[6] and not other[5]]
            if pending:
                cancel(timeouts[_pick(pending, pick)])
        for child in children:
            launch(child)
    return log, now, rebuilds


def _timeout(delay, cancel_now=False, pick=None, children=()):
    return ("timeout", NORMAL, delay, cancel_now, pick, tuple(children))


#: Many cancellations: most timeouts are cancelled as they are made, at
#: the current instant and in the future, and firing timeouts cancel
#: pending ones and make short-lived children, so the calendar is
#: rebuilt several times, some of them from inside a callback.
_MANY_CANCELLATIONS = (
    [_timeout(2.0, cancel_now=True) for _ in range(12)]
    + [_timeout(0.0, cancel_now=True) for _ in range(4)]
    + [_timeout(0.5, pick=index,
                children=[_timeout(0.0, cancel_now=True),
                          _timeout(1.0, pick=1),
                          ("event", URGENT, 0.0, False, 0, ())])
       for index in range(6)]
    + [_timeout(1.0), _timeout(2.0), ("event", NORMAL, 1.0, False, 2, ())]
)


@given(schedule=_ORACLE_SCHEDULES)
@example(schedule=_MANY_CANCELLATIONS)
@settings(max_examples=300, deadline=None)
def test_kernel_order_matches_single_heap_reference(schedule):
    """Heap plus immediate deques process events in the same
    (time, priority, insertion) order as one reference heap, including
    events scheduled from callbacks and cancelled timeouts, and rebuild
    the calendar without its cancelled timeouts at the same moments."""
    kernel = _run_kernel(schedule)
    assert kernel == _run_reference(schedule)
    hypothesis.event("calendar rebuilt" if kernel[2] else "no rebuild")


def test_many_cancellations_example_rebuilds_the_calendar():
    """The oracle's explicit example reaches the rebuild, at the start
    and from inside callbacks."""
    _, _, rebuilds = _run_kernel(_MANY_CANCELLATIONS)
    assert len(rebuilds) >= 3
    assert rebuilds[0] == 0.0 and max(rebuilds) > 0.0
