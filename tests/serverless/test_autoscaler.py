"""The control loops that act on observed load and health: the
:class:`HealthMonitor` probe loop and :class:`PlacementScorer`'s
WCET-predicted headroom, driven by the monitoring engine's rates."""

import pytest

from repro.serverless import (
    AdmissionPolicy,
    HealthMonitor,
    Testbed,
    open_loop,
)
from repro.workloads import web_server_spec

FAST_GATEWAY = {
    "request_timeout": 0.05, "max_retries": 6,
    "backoff_base": 0.005, "backoff_max": 0.05,
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


def scored_testbed():
    """Monitoring and the scorer on, with admission so that each
    deployment carries its verifier WCET."""
    return deployed_testbed(
        with_monitoring=True, with_migration=True,
        manager_kwargs={"admission": AdmissionPolicy()})


def test_desired_replicas_clamped():
    """An idle target's headroom is all of its execution slots."""
    tb, name = scored_testbed()
    for nic in tb.nics:
        assert nic.busy_threads == 0
        assert tb.scorer.headroom(name, "lambda-nic", nic.name) == \
            nic.total_threads == 56 * 8
    # Equal headroom: ranking falls back to name order.
    assert tb.scorer.rank(name, "lambda-nic", ["m3-nic", "m2-nic"]) == \
        ["m2-nic", "m3-nic"]


def test_scale_up_on_load():
    """Under load the monitored request rate times the verifier's WCET
    is subtracted from every target's free slots (Little's law)."""
    tb, name = scored_testbed()
    wcet = tb.manager.record(name).admission.wcet_seconds
    assert wcet is not None and wcet > 0
    tb.run(until=open_loop(tb.env, tb.gateway, name, rate_rps=2000.0,
                           duration=3.0, rng=tb.rng.stream("load")))
    rate = tb.monitoring.rate("gateway_requests_total",
                              labels={"workload": name})
    assert rate == pytest.approx(2000.0, rel=0.1)
    for nic in tb.nics:
        headroom = tb.scorer.headroom(name, "lambda-nic", nic.name)
        free = nic.total_threads - nic.busy_threads
        assert headroom == pytest.approx(free - rate * wcet)
        assert headroom < nic.total_threads


def test_scale_down_when_idle():
    """Once the load stops and leaves the rate window, headroom is back
    to the full slot count."""
    tb, name = scored_testbed()
    tb.run(until=open_loop(tb.env, tb.gateway, name, rate_rps=2000.0,
                           duration=3.0, rng=tb.rng.stream("load")))
    assert tb.scorer.headroom(name, "lambda-nic", "m2-nic") < 56 * 8
    tb.run(until=tb.env.now + tb.scorer.window_seconds + 2.0)
    assert tb.monitoring.rate("gateway_requests_total",
                              labels={"workload": name}) == 0.0
    assert tb.scorer.headroom(name, "lambda-nic", "m2-nic") == 56 * 8


def test_no_decision_when_stable():
    """A healthy deployment needs no action; a breaker-ejected target is
    probed and, answering, closes its breaker again."""
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager)
    assert monitor.check() == []
    assert monitor.events == []
    assert tb.gateway.route_for(name).targets == ["m2-nic", "m3-nic"]
    assert tb.gateway.probes_total.total == 0

    breaker = tb.gateway.breaker_for("m2-nic")
    for _ in range(tb.gateway.breaker_threshold):
        breaker.record_failure(tb.env.now)
    assert tb.gateway.ejected_targets() == ["m2-nic"]
    assert monitor.check() == []
    tb.run(until=tb.env.now + 0.01)
    assert tb.gateway.probes_total.value(labels={"target": "m2-nic"}) == 1
    assert tb.gateway.probe_failures_total.total == 0
    assert tb.gateway.ejected_targets() == []
    assert monitor.events == []


def test_control_loop_runs_periodically():
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager,
                            check_interval=0.1)
    start = tb.env.now
    monitor.start()
    tb.run(until=start + 0.05)
    tb.nic("m2-nic").fail()
    tb.run(until=start + 0.25)
    # The first check after the fault (at start + 0.1) shrank the route.
    [event] = monitor.events
    assert event.kind == "shrink"
    assert event.at == pytest.approx(start + 0.1)
    assert tb.gateway.route_for(name).targets == ["m3-nic"]

    # Stopped, the loop ends at its next tick (start + 0.3) and no
    # longer acts on a recovery ...
    monitor.stop()
    tb.run(until=start + 0.32)
    tb.nic("m2-nic").restore()
    tb.run(until=start + 1.0)
    assert len(monitor.events) == 1
    # ... until a check runs.
    [expand] = monitor.check()
    assert expand.kind == "expand"
    assert set(tb.gateway.route_for(name).targets) == {"m2-nic", "m3-nic"}


def test_validation():
    tb, name = scored_testbed()
    with pytest.raises(ValueError, match="check interval"):
        HealthMonitor(tb.env, tb.gateway, tb.manager, check_interval=0)
    with pytest.raises(KeyError, match="not deployed"):
        tb.scorer.headroom("nope", "lambda-nic", "m2-nic")
    with pytest.raises(KeyError):
        tb.scorer.headroom(name, "lambda-nic", "m9-nic")
