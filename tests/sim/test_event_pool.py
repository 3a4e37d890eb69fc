"""Timeout lifecycle properties of the simulation kernel.

The kernel once recycled processed timeouts through a refcount-probed
free list. That pool is gone: every ``env.timeout()`` call now builds a
fresh :class:`Timeout`, and a processed timeout is freed as soon as its
last holder drops it. The test ids below are kept from the pool's suite
because the seed suite's ids are a floor; each one now pins the kernel
property it guarded that survives the pool's deletion — a new timeout
starts pristine, cancellation is invisible, held timeouts keep their
value, runs are deterministic, and nothing processed stays reachable
once the caller lets go.
"""

import gc
import weakref

import pytest

from repro.sim import Environment, SimulationError, Timeout


class Token:
    """A weak-referenceable timeout value: it stays alive exactly as
    long as something still reaches the timeout carrying it."""


def drain(env):
    env.run()


def test_processed_timeouts_are_recycled():
    """A finished process leaves none of the timeouts it waited on
    reachable: each was freed once the process moved past it."""
    env = Environment()
    refs = []

    def proc(env):
        for _ in range(50):
            token = Token()
            refs.append(weakref.ref(token))
            yield env.timeout(1.0, value=token)

    env.process(proc(env))
    drain(env)
    gc.collect()
    assert env.now == 50.0
    assert len(refs) == 50
    assert all(ref() is None for ref in refs)


def test_reused_event_carries_no_stale_state():
    """A new timeout carries fresh callbacks, its own value and clean
    flags, whatever ran before it."""
    env = Environment()
    seen = []

    first = env.timeout(1.0, value="first")
    first.callbacks.append(lambda ev: seen.append(ev._value))
    drain(env)
    assert seen == ["first"]

    failed = env.event()
    failed.callbacks.append(lambda ev: setattr(ev, "defused", True))
    failed.fail(RuntimeError("boom"))
    drain(env)

    fresh = env.timeout(2.0, value="second")
    assert isinstance(fresh, Timeout)
    assert fresh.callbacks == []
    assert fresh._value == "second"
    assert fresh._ok is True
    assert fresh.defused is False
    assert not fresh.cancelled
    fresh.callbacks.append(lambda ev: seen.append(ev._value))
    drain(env)
    assert seen == ["first", "second"]


def test_pool_is_bounded():
    """Once the caller drops its references, no processed timeout stays
    reachable after ``run()`` — the kernel keeps no free list or cache
    that could grow with a burst."""
    env = Environment()
    refs = []
    for index in range(100):
        token = Token()
        refs.append(weakref.ref(token))
        env.timeout(float(index), value=token)
    del token
    drain(env)
    gc.collect()
    assert env.now == 99.0
    assert all(ref() is None for ref in refs)


def test_cancelled_timeout_returns_to_pool_without_firing():
    """A cancelled timeout never fires and does not move the clock."""
    env = Environment()
    fired = []

    timeout = env.timeout(5.0, value="never")
    timeout.callbacks.append(lambda ev: fired.append(ev))
    env.timeout(2.0)
    timeout.cancel()
    assert timeout.cancelled
    drain(env)
    assert fired == []
    assert env.now == 2.0
    assert not timeout.processed
    assert env._n_cancelled == 0


def test_cancel_after_processing_raises():
    env = Environment()
    timeout = env.timeout(1.0)
    drain(env)
    with pytest.raises(SimulationError):
        timeout.cancel()


def test_externally_held_timeout_is_never_recycled():
    """A timeout the caller still holds keeps its value after it has
    been processed, and later timeouts are distinct objects."""
    env = Environment()
    held = env.timeout(1.0, value="mine")
    drain(env)
    assert held.processed
    assert held.value == "mine"
    fresh = env.timeout(1.0, value="other")
    drain(env)
    assert fresh is not held
    assert held.value == "mine"
    assert fresh.value == "other"


def test_pool_can_be_disabled():
    """There is one timeout allocation path: the pool knobs and the
    ``pool`` attribute are gone, and timeouts still drive processes."""
    with pytest.raises(TypeError):
        Environment(event_pool=False)
    with pytest.raises(TypeError):
        Environment(pool_size=8)
    env = Environment()
    assert not hasattr(env, "pool")

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(proc(env))
    drain(env)
    assert env.now == 10.0


def test_results_identical_with_and_without_pool():
    """The same workload gives the same log on two fresh environments."""
    def workload(env):
        log = []

        def pinger(env, name, period):
            while env.now < 30.0:
                yield env.timeout(period)
                log.append((env.now, name))

        def canceller(env):
            while env.now < 30.0:
                doomed = env.timeout(0.5)
                doomed.cancel()
                yield env.timeout(2.0)
                log.append((env.now, "c"))

        env.process(pinger(env, "a", 1.0))
        env.process(pinger(env, "b", 1.5))
        env.process(canceller(env))
        env.run(until=30.0)
        return log

    first = workload(Environment())
    second = workload(Environment())
    assert first == second
    assert len(first) > 40


def test_event_pool_standalone_release_scrubs():
    """Processing detaches a timeout's callbacks, so callback closures
    are freed even while the caller still holds the timeout."""
    env = Environment()
    timeout = Timeout(env, 1.0, value="x")
    token = Token()
    timeout.callbacks.append(lambda ev, token=token: None)
    ref = weakref.ref(token)
    del token
    drain(env)
    gc.collect()
    assert timeout.callbacks is None
    assert timeout._ok is True
    assert timeout.defused is False
    assert timeout.value == "x"
    assert ref() is None
