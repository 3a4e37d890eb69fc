"""A finished request leaves nothing on the kernel's calendar.

Every gateway attempt arms a timer (5 s by default) and cancels it when
the response arrives. A closed loop of short requests finishes thousands
of them within one timer period, so if cancelled timers stayed on the
calendar until their timestamps, each would keep its request's state
alive that long. The kernel drops cancelled timeouts once they are more
than half of the calendar, so its length stays bounded by the live work,
whatever the number of requests run.
"""

import pytest

from repro.serverless import Testbed
from repro.serverless.loadgen import closed_loop
from repro.workloads import standard_workloads

#: Requests in the closed loop: far more than the calendar may hold.
REQUESTS = 2_000
#: Clients in flight at once.
CONCURRENCY = 4
#: Largest calendar a 4-client loop may leave: its live entries (one
#: timer per attempt in flight, plus their stages) and at most as many
#: cancelled ones.
CALENDAR_BOUND = 16


def calendar_length(env) -> int:
    return len(env._queue) + len(env._now_urgent) + len(env._now_normal)


@pytest.mark.parametrize("backend", ["lambda-nic", "bare-metal"])
def test_closed_loop_leaves_a_bounded_calendar(backend):
    tb = Testbed(seed=42, n_workers=1)
    tb.add_backend(backend)
    spec = standard_workloads()["web_server"]
    env = tb.env
    tb.run(until=env.process(_deploy(tb, spec, backend)))
    largest = [0]
    step = env.step

    def watched():
        largest[0] = max(largest[0], calendar_length(env))
        step()

    env.step = watched
    try:
        loop = env.process(_loop(tb, spec))
        tb.run(until=loop)
    finally:
        del env.step
    result = loop.value
    assert len(result.latencies) == REQUESTS
    assert result.failures == 0
    assert calendar_length(env) <= CALENDAR_BOUND
    assert 2 * env._n_cancelled <= calendar_length(env)
    assert largest[0] <= CALENDAR_BOUND


def _deploy(tb, spec, backend):
    yield tb.manager.deploy(spec, backend)


def _loop(tb, spec):
    result = yield closed_loop(tb.env, tb.gateway, spec.name,
                               n_requests=REQUESTS, concurrency=CONCURRENCY)
    return result
