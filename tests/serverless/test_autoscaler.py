"""Load and health as the control loop sees them: NIC thread
occupancy and gateway in-flight counts under load, and the
:class:`HealthMonitor` probe loop."""

import pytest

from repro.serverless import (
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


def test_desired_replicas_clamped():
    """An idle fleet: every NIC reports all of its execution slots free,
    and the route spans every live NIC, no more."""
    tb, name = deployed_testbed()
    for nic in tb.nics:
        assert nic.busy_threads == 0
        assert nic.total_threads == 56 * 8
    assert tb.gateway.route_for(name).targets == \
        tb.manager.live_targets(name) == ["m2-nic", "m3-nic"]


def test_scale_up_on_load():
    """Under open-loop load the NICs' threads and the gateway's
    in-flight count rise above zero, and both replicas serve."""
    tb, name = deployed_testbed()
    peaks = {"busy": 0, "inflight": 0}

    def sample(env):
        for _ in range(200):
            yield env.timeout(0.01)
            peaks["busy"] = max(peaks["busy"],
                                sum(nic.busy_threads for nic in tb.nics))
            peaks["inflight"] = max(peaks["inflight"],
                                    tb.gateway.inflight(name))

    tb.env.process(sample(tb.env))
    load = open_loop(tb.env, tb.gateway, name, rate_rps=2000.0,
                     duration=2.0, rng=tb.rng.stream("load"))
    tb.run(until=load)
    assert load.value.failures == 0
    assert peaks["busy"] > 0 and peaks["inflight"] > 0
    served = [nic.stats.requests_served for nic in tb.nics]
    assert all(count > 0 for count in served)
    assert sum(served) == len(load.value.latencies)


def test_scale_down_when_idle():
    """Once the load stops and drains, no thread is busy and nothing is
    in flight."""
    tb, name = deployed_testbed()
    tb.run(until=open_loop(tb.env, tb.gateway, name, rate_rps=2000.0,
                           duration=1.0, rng=tb.rng.stream("load")))
    tb.run(until=tb.env.now + 0.5)
    assert tb.gateway.inflight(name) == 0
    assert all(nic.busy_threads == 0 for nic in tb.nics)


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


def test_stopped_control_loop_does_not_act_at_its_pending_tick():
    """Stopped mid-interval, the probe loop ends at its next tick
    without a last check: a NIC restored meanwhile stays out of the
    route."""
    tb, name = deployed_testbed()
    monitor = HealthMonitor(tb.env, tb.gateway, tb.manager,
                            check_interval=0.1)
    start = tb.env.now
    loop = monitor.start()
    tb.nic("m2-nic").fail()
    tb.run(until=start + 0.15)
    assert [event.kind for event in monitor.events] == ["shrink"]
    monitor.stop()
    tb.nic("m2-nic").restore()
    tb.run(until=start + 0.5)
    assert [event.kind for event in monitor.events] == ["shrink"]
    assert tb.gateway.route_for(name).targets == ["m3-nic"]
    assert not loop.is_alive


def test_validation():
    tb, _ = deployed_testbed()
    with pytest.raises(ValueError, match="check interval"):
        HealthMonitor(tb.env, tb.gateway, tb.manager, check_interval=0)
    with pytest.raises(KeyError, match="not deployed"):
        tb.manager.record("nope")
    with pytest.raises(KeyError):
        tb.nic("m9-nic")
