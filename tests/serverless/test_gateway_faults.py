"""Gateway under failure: backoff, retry/late counters, breakers."""

import pytest

from repro.net import Network
from repro.serverless import GatewayTimeout, Gateway, Testbed, closed_loop
from repro.sim import Environment, RngRegistry
from repro.workloads import web_server_spec


def make_gateway(**kwargs):
    env = Environment()
    network = Network(env)
    return Gateway(env, network.add_node("gw"), **kwargs)


def test_backoff_schedule_deterministic_without_rng():
    gw = make_gateway(backoff_base=0.02, backoff_factor=2.0,
                      backoff_max=0.1, rng=None)
    delays = [gw._backoff_delay(attempt) for attempt in range(1, 6)]
    assert delays == [0.02, 0.04, 0.08, 0.1, 0.1]  # capped at backoff_max


def test_backoff_jitter_stays_within_half_to_full_delay():
    rng = RngRegistry(seed=9).stream("gw")
    gw = make_gateway(backoff_base=0.02, backoff_factor=2.0,
                      backoff_max=1.0, rng=rng)
    for attempt in range(1, 5):
        full = 0.02 * 2.0 ** (attempt - 1)
        for _ in range(50):
            delay = gw._backoff_delay(attempt)
            assert full / 2 <= delay <= full


def test_retries_and_late_responses_are_counted():
    """A timeout shorter than the NIC round-trip: every attempt times
    out, the retries are counted per attempt, and the responses that
    arrive after their waiter fired are counted as late."""
    tb = Testbed(seed=12, n_workers=1,
                 gateway_kwargs={"request_timeout": 2e-6, "max_retries": 3,
                                 "backoff_base": 0.001, "backoff_max": 0.01})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()
    seen = {}

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        try:
            yield tb.gateway.request(spec.name)
            seen["ok"] = True
        except GatewayTimeout:
            seen["ok"] = False
        yield env.timeout(1.0)  # let straggler responses drain

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)

    labels = {"workload": spec.name}
    assert seen["ok"] is False
    # One initial attempt + 3 retries, each counted individually.
    assert tb.gateway.retries_total.value(labels=labels) == 4
    # Failures carry a ``reason`` label; sum across it for the total.
    assert sum(value for found, value in tb.gateway.failures_total.items()
               if found["workload"] == spec.name) == 1
    assert tb.gateway.failures_total.value(
        labels={**labels, "reason": "timeout"}) == 1
    # The NIC answered every attempt — just after the waiter timed out.
    assert tb.gateway.late_responses_total.value() == 4


def test_breaker_ejects_dead_target_and_requests_keep_flowing():
    tb = Testbed(seed=13, n_workers=2,
                 gateway_kwargs={"request_timeout": 0.01, "max_retries": 4,
                                 "backoff_base": 0.001, "backoff_max": 0.01,
                                 "breaker_threshold": 2,
                                 "breaker_reset_timeout": 100.0})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        tb.nic("m2-nic").fail()
        result = yield closed_loop(tb.env, tb.gateway, spec.name,
                                   n_requests=20)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    result = process.value

    # Every request completed via the survivor; the dead NIC was
    # ejected after `breaker_threshold` failures and skipped afterwards.
    assert result.completed == 20
    assert result.failures == 0
    assert tb.gateway.ejected_targets() == ["m2-nic"]
    breaker = tb.gateway.breaker_for("m2-nic")
    assert breaker.ejected
    assert tb.gateway.breaker_state.value(
        labels={"target": "m2-nic"}) == 1.0
    # Only the pre-ejection attempts hit the dead target.
    assert tb.gateway.retries_total.value(
        labels={"workload": spec.name}) == 2


def test_probe_closes_breaker_after_target_recovers():
    tb = Testbed(seed=14, n_workers=2,
                 gateway_kwargs={"request_timeout": 0.01, "max_retries": 4,
                                 "breaker_threshold": 1,
                                 "breaker_reset_timeout": 1000.0})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()
    outcomes = {}

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        tb.nic("m2-nic").fail()
        yield closed_loop(tb.env, tb.gateway, spec.name, n_requests=6)
        assert tb.gateway.ejected_targets() == ["m2-nic"]

        outcomes["dead_probe"] = yield tb.gateway.probe_target(
            spec.name, "m2-nic", timeout=0.01
        )
        tb.nic("m2-nic").restore()
        outcomes["live_probe"] = yield tb.gateway.probe_target(
            spec.name, "m2-nic", timeout=0.01
        )

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)

    assert outcomes["dead_probe"] is False
    assert outcomes["live_probe"] is True
    assert tb.gateway.ejected_targets() == []
    assert tb.gateway.probes_total.value(labels={"target": "m2-nic"}) == 2
    assert tb.gateway.probe_failures_total.value(
        labels={"target": "m2-nic"}) == 1


def test_all_targets_ejected_fails_open():
    """With every breaker open the gateway still picks a target rather
    than livelocking — the attempt doubles as a recovery probe."""
    gw = make_gateway(breaker_threshold=1, breaker_reset_timeout=1000.0)
    gw.set_route("w", wid=1, targets=["a", "b"])
    for target in ["a", "b"]:
        gw.breaker_for(target).record_failure(now=0.0)
    assert gw.ejected_targets() == ["a", "b"]
    route = gw.route_for("w")
    assert gw._pick_target(route) in {"a", "b"}
