"""Tests for the callback datapath's FIFO ``Server``, and for the
event-granting ``Resource`` the process datapath oracle
(``tests/serverless/legacy_datapath.py``) uses."""

import pytest

from repro.sim import Environment, Server
from tests.serverless.legacy_datapath import Resource


def test_server_grants_free_slots_at_once_and_hands_over_in_fifo_order():
    server = Server(capacity=2)
    log = []
    for name in "abcd":
        server.acquire(log.append, name)
    assert log == ["a", "b"]
    assert (server.busy, server.waiting) == (2, 2)
    server.release()
    assert log == ["a", "b", "c"]
    server.acquire(log.append, "e")  # Queues behind d.
    server.release()
    server.release()
    assert log == ["a", "b", "c", "d", "e"]
    server.release()
    server.release()
    assert (server.busy, server.waiting) == (0, 0)


def test_server_release_inside_a_grant_does_not_recurse():
    """Thousands of waiters that drop their work at the grant (and so
    release at once) are served by one loop, in order, not by nested
    calls."""
    server = Server(capacity=1)
    granted = []

    def dropped(index):
        granted.append(index)
        server.release()

    server.acquire(granted.append, "holder")
    for index in range(5000):
        server.acquire(dropped, index)
    server.release()
    assert granted == ["holder"] + list(range(5000))
    assert (server.busy, server.waiting) == (0, 0)


def test_server_validates_capacity():
    for capacity in (0, -1):
        with pytest.raises(ValueError):
            Server(capacity)


def test_resource_capacity_enforced():
    env = Environment()
    resource = Resource(env, capacity=2)
    grants = []

    def user(env, resource, name, hold):
        with resource.request() as req:
            yield req
            grants.append((name, env.now))
            yield env.timeout(hold)

    for index in range(4):
        env.process(user(env, resource, f"u{index}", 10.0))
    env.run()
    assert grants == [("u0", 0.0), ("u1", 0.0), ("u2", 10.0), ("u3", 10.0)]


def test_resource_released_on_exception():
    env = Environment()
    resource = Resource(env, capacity=1)
    grants = []

    def crasher(env, resource):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)
            raise RuntimeError("crash")

    def waiter(env, resource):
        with resource.request() as req:
            yield req
            grants.append(env.now)

    def supervisor(env, crasher_proc):
        try:
            yield crasher_proc
        except RuntimeError:
            pass

    crasher_proc = env.process(crasher(env, resource))
    env.process(supervisor(env, crasher_proc))
    env.process(waiter(env, resource))
    env.run()
    assert grants == [1.0]


def test_resource_count_and_queue():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def observer(env, resource, out):
        yield env.timeout(1.0)
        request = resource.request()
        out.append((resource.count, len(resource.queue)))
        yield request
        resource.release(request)

    out = []
    env.process(holder(env, resource))
    env.process(observer(env, resource, out))
    env.run()
    assert out == [(1, 1)]


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_priority_request_order():
    """Requests made at the same instant are granted strictly in the
    order they were made, ahead of any later request."""
    env = Environment()
    resource = Resource(env, capacity=1)
    grants = []

    def user(env, name, delay):
        yield env.timeout(delay)
        with resource.request() as req:
            yield req
            grants.append((name, env.now))
            yield env.timeout(1.0)

    for name in ["a", "b", "c", "d"]:
        env.process(user(env, name, 0.0))
    env.process(user(env, "late-1", 0.5))
    env.process(user(env, "late-2", 0.5))
    env.run()
    assert grants == [
        ("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0),
        ("late-1", 4.0), ("late-2", 5.0),
    ]


def test_preemptive_resource_evicts_lower_priority():
    """A holder is never evicted: a later requester waits for the full
    hold, and the holder's work runs to completion."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def background(env):
        with resource.request() as req:
            yield req
            yield env.timeout(100.0)
            log.append(("background-done", env.now))

    def urgent(env):
        yield env.timeout(3.0)
        with resource.request() as req:
            yield req
            log.append(("urgent-running", env.now))
            yield env.timeout(1.0)

    env.process(background(env))
    env.process(urgent(env))
    env.run()
    assert log == [("background-done", 100.0), ("urgent-running", 100.0)]


def test_preemptive_resource_equal_priority_waits():
    """``count``, ``users`` and ``queue`` track every grant and release:
    a freed slot goes to the oldest waiter."""
    env = Environment()
    resource = Resource(env, capacity=2)
    names = {}
    snapshots = []

    def user(env, name, hold):
        with resource.request() as req:
            names[req] = name
            yield req
            yield env.timeout(hold)

    def observer(env):
        for _ in range(5):
            yield env.timeout(0.5 if not snapshots else 1.0)
            snapshots.append((
                env.now,
                resource.count,
                [names[r] for r in resource.users],
                [names[r] for r in resource.queue],
            ))

    for name, hold in [("a", 1.0), ("b", 2.0), ("c", 2.0), ("d", 2.0)]:
        env.process(user(env, name, hold))
    env.process(observer(env))
    env.run()
    assert snapshots == [
        (0.5, 2, ["a", "b"], ["c", "d"]),
        (1.5, 2, ["b", "c"], ["d"]),
        (2.5, 2, ["c", "d"], []),
        (3.5, 1, ["d"], []),
        (4.5, 0, [], []),
    ]


def test_container_put_get():
    """A withdrawn (cancelled) request is skipped: the slot goes to the
    next waiter, and the withdrawn request is never granted."""
    env = Environment()
    resource = Resource(env, capacity=1)
    grants = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)

    def fickle(env):
        yield env.timeout(0.5)
        req = resource.request()
        yield env.timeout(0.5)
        req.cancel()
        grants.append(("fickle-withdrew", env.now, req.triggered))

    def patient(env):
        yield env.timeout(0.75)
        with resource.request() as req:
            yield req
            grants.append(("patient", env.now))

    env.process(holder(env))
    env.process(fickle(env))
    env.process(patient(env))
    env.run()
    assert grants == [("fickle-withdrew", 1.0, False), ("patient", 2.0)]
    assert resource.count == 0 and resource.queue == []


def test_container_blocks_put_over_capacity():
    """A waiter that gives up before its grant (a request raced against
    a timeout) leaves the queue as it exits the ``with`` block."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def impatient(env):
        yield env.timeout(1.0)
        with resource.request() as req:
            deadline = env.timeout(2.0)
            yield env.any_of([req, deadline])
            log.append(("impatient", env.now, req.triggered))
        log.append(("queue-after-exit", len(resource.queue)))

    def patient(env):
        yield env.timeout(2.0)
        with resource.request() as req:
            yield req
            log.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert log == [
        ("impatient", 3.0, False),
        ("queue-after-exit", 1),
        ("patient", 5.0),
    ]


def test_container_validates_arguments():
    """Capacity must be positive; ``request()`` takes no arguments."""
    env = Environment()
    for capacity in (0, -1):
        with pytest.raises(ValueError):
            Resource(env, capacity=capacity)
    resource = Resource(env, capacity=3)
    assert resource.capacity == 3
    with pytest.raises(TypeError):
        resource.request(1)
    with pytest.raises(TypeError):
        resource.request(priority=0)
