"""Tests for generator-based processes."""

import pytest

import repro.sim
from repro.sim import Environment, SimulationError


def test_process_is_event_with_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 7

    def parent(env, results):
        value = yield env.process(child(env))
        results.append(value)

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == [7]


def test_process_alive_until_done():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    process = env.process(proc(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_interrupt_delivers_cause():
    """A failed child's exception, with its payload, reaches the waiting
    parent at the instant the child fails."""
    env = Environment()
    causes = []

    def child(env):
        yield env.timeout(3.0)
        raise ValueError("stop it")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as error:
            causes.append((env.now, error.args[0]))

    env.process(parent(env))
    env.run()
    assert causes == [(3.0, "stop it")]


def test_interrupted_process_can_continue():
    """A parent that caught its child's failure keeps running."""
    env = Environment()
    trace = []

    def child(env):
        yield env.timeout(2.0)
        raise RuntimeError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError:
            trace.append("caught")
        yield env.timeout(1.0)
        trace.append(env.now)
        return "done"

    parent_proc = env.process(parent(env))
    env.run()
    assert trace == ["caught", 3.0]
    assert parent_proc.ok and parent_proc.value == "done"


def test_interrupt_terminated_process_rejected():
    """Processes run to completion: there is no interrupt to send, and a
    terminated process hands its value to a late waiter at once."""
    env = Environment()
    seen = []

    def quick(env):
        yield env.timeout(1.0)
        return "result"

    def late(env, process):
        yield env.timeout(4.0)
        value = yield process
        seen.append((env.now, value))

    process = env.process(quick(env))
    env.process(late(env, process))
    env.run()
    assert seen == [(4.0, "result")]
    assert not hasattr(process, "interrupt")
    assert not hasattr(process, "target")
    assert not hasattr(repro.sim, "Interrupt")


def test_process_cannot_interrupt_itself():
    """A process that yields itself fails with SimulationError."""
    env = Environment()
    errors = []

    def selfish(env):
        yield env.timeout(1.0)
        yield env.active_process

    def parent(env):
        try:
            yield env.process(selfish(env))
        except SimulationError as error:
            errors.append((env.now, "invalid target" in str(error)))

    env.process(parent(env))
    env.run()
    assert errors == [(1.0, True)]


def test_uncaught_exception_in_process_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("oops")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_exception_handled_by_waiting_parent():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("oops")

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            caught.append(env.now)

    env.process(parent(env))
    env.run()
    assert caught == [1.0]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_waiting_on_already_processed_event():
    env = Environment()
    values = []

    def late_waiter(env, event):
        yield env.timeout(5.0)
        value = yield event
        values.append((env.now, value))

    event = env.event()
    event.succeed("early")
    env.process(late_waiter(env, event))
    env.run()
    assert values == [(5.0, "early")]


def test_two_processes_interleave():
    env = Environment()
    trace = []

    def ping(env):
        for _ in range(3):
            yield env.timeout(2.0)
            trace.append(("ping", env.now))

    def pong(env):
        yield env.timeout(1.0)
        for _ in range(3):
            yield env.timeout(2.0)
            trace.append(("pong", env.now))

    env.process(ping(env))
    env.process(pong(env))
    env.run()
    assert trace == [
        ("ping", 2.0),
        ("pong", 3.0),
        ("ping", 4.0),
        ("pong", 5.0),
        ("ping", 6.0),
        ("pong", 7.0),
    ]


def test_interrupt_while_waiting_on_process():
    """Every process waiting on a child resumes when the child finishes,
    in the order it started waiting, with the child's return value."""
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(50.0)
        log.append("child-finished")
        return "payload"

    def waiter(env, name, delay, child_proc):
        yield env.timeout(delay)
        value = yield child_proc
        log.append((name, env.now, value))

    child_proc = env.process(child(env))
    env.process(waiter(env, "second", 4.0, child_proc))
    env.process(waiter(env, "first", 1.0, child_proc))
    env.run()
    assert log == [
        "child-finished",
        ("first", 50.0, "payload"),
        ("second", 50.0, "payload"),
    ]
