"""The failover driver's probe loop, the events it records, and the
per-workload counters it and the gateway expose."""

import pytest

from repro.faults import FaultPlan
from repro.serverless import (
    FailoverEvent,
    GatewayTimeout,
    HealthMonitor,
    Testbed,
    closed_loop,
)
from repro.workloads import web_server_spec

FAST_GATEWAY = {
    "request_timeout": 0.01, "max_retries": 1,
    "backoff_base": 0.001, "backoff_max": 0.005,
    "breaker_reset_timeout": 0.25,
}


def deployed_testbed(**kwargs):
    """Two λ-NIC workers with web_server deployed on both."""
    kwargs.setdefault("gateway_kwargs", dict(FAST_GATEWAY))
    tb = Testbed(seed=8, n_workers=2, **kwargs)
    tb.add_lambda_nic_backend()
    spec = web_server_spec()
    tb.run(until=tb.manager.deploy(spec, "lambda-nic"))
    return tb, spec.name


def request_outcome(tb, workload):
    """Run one gateway request to completion: True if it was answered."""
    outcome = {}

    def scenario(env):
        try:
            yield tb.gateway.request(workload)
            outcome["ok"] = True
        except GatewayTimeout:
            outcome["ok"] = False

    tb.run(until=tb.env.process(scenario(tb.env)))
    return outcome["ok"]


# -- FailoverEvent timing ----------------------------------------------------


def test_time_series_rate():
    """A failover event's duration is detection to route installed."""
    event = FailoverEvent(at=2.0, workload="w", kind="degrade")
    event.completed_at = 2.75
    assert event.duration == pytest.approx(0.75)


def test_time_series_rate_needs_two_samples():
    """An event not yet completed (``completed_at`` still 0) reads a
    zero duration, never a negative one."""
    event = FailoverEvent(at=5.0, workload="w", kind="restore")
    assert event.completed_at == 0.0
    assert event.duration == 0.0


def test_time_series_counter_reset_clamped():
    """Mean time to failover is 0 with no events, else the mean of the
    recorded durations."""
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager)
    assert monitor.mean_time_to_failover() == 0.0
    monitor.events = [FailoverEvent(1.0, name, "degrade", completed_at=1.5),
                      FailoverEvent(4.0, name, "restore", completed_at=4.1)]
    assert monitor.mean_time_to_failover() == pytest.approx(0.3)


def test_time_series_bounded():
    """A workload that is mid-transition is skipped by every check: at
    most one failover action per workload runs at a time."""
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager)
    tb.nic("m2-nic").fail()
    monitor._transitioning.add(name)
    assert monitor.check() == []
    assert tb.gateway.route_for(name).targets == ["m2-nic", "m3-nic"]
    monitor._transitioning.discard(name)
    [event] = monitor.check()
    assert (event.kind, event.detail) == ("shrink", "m3-nic")


# -- the registry's scrape and counter reads --------------------------------


def test_monitoring_engine_scrapes_counters():
    """A scrape lists the gateway's and the NICs' counters with their
    values current at the scrape, tracked stats counters included."""
    tb, name = deployed_testbed()
    tb.run(until=closed_loop(tb.env, tb.gateway, name, n_requests=6))
    scraped = tb.metrics.scrape()
    assert scraped["gateway_requests_total"].value({"workload": name}) == 6
    served = scraped["nic_requests_served_total"]
    assert sum(value for _, value in served.items()) == 6
    assert {labels["node"] for labels, _ in served.items()} <= \
        {"m2-nic", "m3-nic"}
    tb.run(until=closed_loop(tb.env, tb.gateway, name, n_requests=2))
    assert served.total == 8  # the same counter object reads on


def test_monitoring_engine_validates_interval():
    tb, _ = deployed_testbed()
    for interval in (0, -0.5):
        with pytest.raises(ValueError, match="check interval"):
            HealthMonitor(tb.env, tb.gateway, tb.manager,
                          check_interval=interval)


# -- the gateway's per-workload counters -------------------------------------


def test_watch_service_raises_alert_on_failures():
    """A request that finds no live target counts one failure for its
    workload, under a ``reason`` label, and no success."""
    tb, name = deployed_testbed()
    for nic in tb.nics:
        nic.fail()
    assert request_outcome(tb, name) is False
    labels = {"workload": name}
    [(failure_labels, failures)] = tb.gateway.failures_total.items()
    assert failures == 1
    assert failure_labels["workload"] == name and "reason" in failure_labels
    assert tb.gateway.requests_total.value(labels=labels) == 0


def test_watch_service_clears_alert_on_recovery():
    """Once the NICs are back, requests succeed again: the success
    counter moves and the failure count stays where it was."""
    tb, name = deployed_testbed()
    for nic in tb.nics:
        nic.fail()
    assert request_outcome(tb, name) is False
    for nic in tb.nics:
        nic.restore()
    tb.run(until=tb.env.now + 0.5)  # past the breaker reset timeout
    assert request_outcome(tb, name) is True
    labels = {"workload": name}
    assert tb.gateway.requests_total.value(labels=labels) == 1
    assert sum(value for found, value in tb.gateway.failures_total.items()
               if found["workload"] == name) == 1


def test_watch_service_quiet_when_healthy():
    """A healthy workload: requests all succeed, no failure is counted,
    and a health check takes no action."""
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager)
    result = closed_loop(tb.env, tb.gateway, name, n_requests=10)
    tb.run(until=result)
    assert result.value.failures == 0
    assert tb.gateway.requests_total.value(labels={"workload": name}) == 10
    assert tb.gateway.failures_total.total == 0
    assert monitor.check() == []
    assert monitor.events == []


# -- the probe loop -----------------------------------------------------------


def test_watch_service_loop_runs():
    """Started, the probe loop checks once per interval, and acts on an
    injected fault at the first check after it fires (the injector's
    trace records when)."""
    tb, name = deployed_testbed(with_failover=True,
                                failover_kwargs={"check_interval": 0.1})
    start = tb.env.now
    checks = []
    check = tb.health.check
    tb.health.check = lambda: checks.append(tb.env.now) or check()
    tb.add_fault_injector(FaultPlan().kill_nic(start + 0.35, "m3-nic"))
    tb.run(until=start + 0.55)
    # The loop started with the testbed, so its ticks are multiples of
    # the interval from time 0.
    assert len(checks) == 5
    assert [round(b - a, 9) for a, b in zip(checks, checks[1:])] == [0.1] * 4
    assert tb.injector.trace == [(pytest.approx(start + 0.35), "kill_nic",
                                  "m3-nic")]
    [event] = tb.health.events
    assert event.kind == "shrink"
    assert start + 0.35 < event.at <= start + 0.45
    assert tb.gateway.route_for(name).targets == ["m2-nic"]


def test_stopped_loops_do_not_act_at_their_pending_tick():
    """A loop stopped mid-interval ends at its next tick without a last
    check; a second start runs a new loop that checks again."""
    tb, _ = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager,
                            check_interval=1.0)
    checks = []
    check = monitor.check
    monitor.check = lambda: checks.append(tb.env.now) or check()
    start = tb.env.now
    loop = monitor.start()
    tb.run(until=start + 1.5)
    assert checks == [pytest.approx(start + 1.0)]
    monitor.stop()
    tb.run(until=start + 3.0)
    assert len(checks) == 1 and not loop.is_alive
    again = monitor.start()
    tb.run(until=start + 4.5)
    assert checks[1:] == [pytest.approx(start + 4.0)]
    assert again.is_alive
