"""Tests for the event calendar and base event types."""

import pytest

from repro.sim import Environment, Event, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_honors_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_run_until_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_timeout_fires_at_expected_time():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(3.0)
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == [3.0]


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()
    seen = []

    def waiter(env, event):
        value = yield event
        seen.append(value)

    def firer(env, event):
        yield env.timeout(2.0)
        event.succeed(99)

    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert seen == [99]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))

    def firer(env, event):
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_to_run():
    env = Environment()
    event = env.event()

    def firer(env, event):
        yield env.timeout(1.0)
        event.fail(RuntimeError("unhandled"))

    env.process(firer(env, event))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 4.0


def test_run_until_crashed_process_raises_its_exception():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        raise KeyError("crashed")

    with pytest.raises(KeyError, match="crashed"):
        env.run(until=env.process(proc(env)))
    assert env.now == 2.0


def test_run_until_never_triggered_event_raises():
    env = Environment()
    lonely = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=lonely)


def test_run_empty_schedule_returns():
    env = Environment()
    assert env.run() is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_peek_skips_cancelled_timeouts():
    """``peek`` never names an instant the clock will not reach."""
    env = Environment()
    doomed = env.timeout(5.0)
    doomed.cancel()
    assert env.peek() == float("inf")
    env.run()
    assert env.now == 0.0

    env = Environment()
    env.timeout(0.0).cancel()
    env.timeout(3.0).cancel()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.now == 7.0
    assert env._n_cancelled == 0


def test_cancelled_timeouts_leave_the_calendar_and_survivors_keep_order():
    """Cancelling 10k timeouts shrinks the calendar to its live entries
    (plus at most as many cancelled ones), and the survivors, future and
    same-instant alike, fire in (time, insertion) order."""
    env = Environment()
    fired = []
    timeouts = []
    for index in range(10_000):
        # Every fifth is zero-delay and sits in the same-instant deque.
        delay = 0.0 if index % 5 == 0 else float(index % 97)
        timeout = env.timeout(delay, value=index)
        timeout.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        timeouts.append(timeout)
    survivors = timeouts[::7]
    doomed = [t for i, t in enumerate(timeouts) if i % 7]
    # Cancel in an order unrelated to the schedule's.
    for timeout in doomed[1::2] + doomed[::2]:
        timeout.cancel()
    calendar = len(env._queue) + len(env._now_normal) + len(env._now_urgent)
    assert calendar <= 2 * len(survivors)
    assert 2 * env._n_cancelled <= calendar
    env.run()
    expected = sorted((t._delay, t.value) for t in survivors)
    assert fired == expected
    assert env._n_cancelled == 0
    assert not any(t.processed for t in doomed)


def test_all_of_waits_for_all():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(5.0, value="five")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        assert result[t1] == "one"
        assert result[t2] == "five"

    env.process(proc(env))
    env.run()
    assert times == [5.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(5.0)
        result = yield env.any_of([t1, t2])
        times.append(env.now)
        assert t1 in result

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_condition_failure_propagates():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield env.all_of([event, env.timeout(10.0)])
        except ValueError:
            caught.append(env.now)

    def firer(env):
        yield env.timeout(2.0)
        event.fail(ValueError("bad"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == [2.0]


def test_run_until_already_triggered_event():
    env = Environment()
    event = env.event()
    event.succeed("done-before-run")
    # Process the event so it is fully settled, then run until it.
    env.run()
    assert env.run(until=event) == "done-before-run"


def test_any_of_with_already_processed_event():
    env = Environment()
    early = env.event()
    early.succeed("early")
    env.run()  # process it
    seen = []

    def waiter(env):
        result = yield env.any_of([early, env.timeout(5.0)])
        seen.append((env.now, early in result))

    env.process(waiter(env))
    env.run()
    assert seen == [(0.0, True)]


def test_all_of_mixed_processed_and_pending():
    env = Environment()
    early = env.event()
    early.succeed(1)
    env.run()
    done = []

    def waiter(env):
        result = yield env.all_of([early, env.timeout(2.0, value=2)])
        done.append((env.now, len(result)))

    env.process(waiter(env))
    env.run()
    assert done == [(2.0, 2)]


def test_condition_value_api():
    env = Environment()
    t1 = env.timeout(1.0, value="a")
    t2 = env.timeout(2.0, value="b")
    results = []

    def waiter(env):
        value = yield env.all_of([t1, t2])
        results.append(value)

    env.process(waiter(env))
    env.run()
    value = results[0]
    assert len(value) == 2
    assert t1 in value and t2 in value
    assert value.todict()[t1] == "a"
    assert list(value) == [t1, t2]
    with pytest.raises(KeyError):
        value[env.event()]


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_core_event_types_declare_slots():
    """The hot-path event types must stay dict-free (allocation churn)."""
    from repro.sim.core import AllOf, AnyOf, Condition, ConditionValue, Timeout
    from repro.sim.process import Process

    env = Environment()
    for instance in [
        Event(env),
        Timeout(env, 0.0),
        env.all_of([]),
        env.any_of([]),
        ConditionValue(),
        Process(env, (x for x in [])),
    ]:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    for cls in [Event, Timeout, Condition, AllOf, AnyOf, Process]:
        assert hasattr(cls, "__slots__"), cls.__name__
    env.run()


def test_event_subclasses_keep_dict():
    """Ad-hoc attributes still work on subclasses defined elsewhere."""

    class Request(Event):
        pass

    env = Environment()
    request = Request(env)
    request.preempt = True  # resource code attaches attributes like this
    assert request.preempt


def test_condition_value_membership_is_exact():
    env = Environment()
    t1 = env.timeout(0.0, value=1)
    results = []

    def waiter(env):
        value = yield env.all_of([t1])
        results.append(value)

    env.process(waiter(env))
    env.run()
    value = results[0]
    # Untriggered foreign events are not members, and the set-backed
    # membership agrees with iteration order exactly.
    stranger = env.event()
    assert stranger not in value
    assert [e for e in value] == [t1]
    with pytest.raises(KeyError):
        value[stranger]


def test_condition_value_add_is_idempotent():
    from repro.sim.core import ConditionValue

    env = Environment()
    event = Event(env)
    event._value = "x"
    value = ConditionValue()
    value.add(event)
    value.add(event)
    assert len(value) == 1
    assert value[event] == "x"
