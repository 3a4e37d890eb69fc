"""End-to-end overload control: deadlines, budgets, shedding, hedging."""

from types import SimpleNamespace

import pytest

from repro.net import DEADLINE_META, Network, Packet
from repro.serverless import (
    CoDelShedder,
    Gateway,
    GatewayTimeout,
    OverloadConfig,
    RequestExpired,
    RequestShed,
    RetryBudget,
    RetryBudgetExhausted,
    Testbed,
)
from repro.serverless.overload import RETRY_BUDGET_CAP, SHED_MAX_PROBABILITY
from repro.serverless.loadgen import (
    ARRIVAL_PROCESSES,
    LoadResult,
    _arrival_gaps,
    round_robin_closed_loop,
)
from repro.sim import Environment, RngRegistry, exponential
from repro.workloads import web_server_spec


# -- retry budget ----------------------------------------------------------


def test_retry_budget_deposits_and_withdrawals():
    budget = RetryBudget(ratio=0.5, floor=2.0)
    assert budget.balance == 2.0  # seeded at the floor
    for _ in range(4):
        budget.note_request()
    assert budget.balance == pytest.approx(4.0)
    assert budget.withdraw() is True
    assert budget.withdraw() is True
    assert budget.withdraw() is True
    assert budget.balance == pytest.approx(1.0)
    assert budget.withdraw() is True
    # Broke: below one full token.
    assert budget.withdraw() is False
    assert budget.withdrawn == 4
    assert budget.denied == 1


def test_retry_budget_caps_banked_tokens():
    budget = RetryBudget(ratio=1.0, floor=0.0)
    for _ in range(2 * int(RETRY_BUDGET_CAP)):
        budget.note_request()
    # An idle period cannot bank unbounded retries.
    assert budget.balance == RETRY_BUDGET_CAP == 100.0


def test_retry_budget_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetryBudget(ratio=-0.1)
    with pytest.raises(ValueError):
        RetryBudget(ratio=0.1, floor=RETRY_BUDGET_CAP + 1)


# -- CoDel-style shedder ---------------------------------------------------


def test_shedder_trips_only_after_a_full_interval_above_target():
    shedder = CoDelShedder(target_seconds=0.01, interval_seconds=0.1)
    shedder.observe(0.05, now=0.0)
    shedder.observe(0.05, now=0.05)
    assert not shedder.shedding  # above target, but not for long enough
    shedder.observe(0.05, now=0.11)
    assert shedder.shedding
    assert 0.0 < shedder.drop_probability <= SHED_MAX_PROBABILITY


def test_shedder_resets_the_moment_sojourn_recovers():
    shedder = CoDelShedder(target_seconds=0.01, interval_seconds=0.1)
    for i in range(20):
        shedder.observe(0.05, now=0.02 * i)
    assert shedder.shedding
    shedder.observe(0.005, now=1.0)  # one good dequeue clears the state
    assert not shedder.shedding
    assert shedder.drop_probability == 0.0
    assert shedder.should_shed() is False


def test_shedder_probability_ramps_with_persistence():
    shedder = CoDelShedder(target_seconds=0.01, interval_seconds=0.0)
    probabilities = []
    for i in range(50):
        shedder.observe(0.05, now=0.01 * i)
        probabilities.append(shedder.drop_probability)
    assert probabilities == sorted(probabilities)
    assert probabilities[-1] <= SHED_MAX_PROBABILITY


def test_shedder_consumes_no_randomness_while_idle():
    """Disabled/idle runs must stay draw-for-draw identical, so the
    admission check may only touch the RNG while actively shedding."""

    class ExplodingRng:
        def random(self):
            raise AssertionError("rng consulted while not shedding")

    shedder = CoDelShedder(target_seconds=0.01, rng=ExplodingRng())
    for _ in range(10):
        assert shedder.should_shed() is False
    shedder.observe(0.005, now=0.0)
    assert shedder.should_shed() is False


def test_shedder_rejects_bad_target():
    with pytest.raises(ValueError):
        CoDelShedder(target_seconds=0.0)


def test_overload_config_enabled_flag():
    assert not OverloadConfig().enabled
    assert OverloadConfig(deadline_seconds=0.1).enabled
    assert OverloadConfig(hedge_quantile=95.0).enabled


# -- arrival processes -----------------------------------------------------


def test_poisson_arrivals_match_the_legacy_exponential_stream():
    """``arrival="poisson"`` must reproduce the exact pre-overload draw
    sequence so existing golden traces stay byte-identical."""
    rng_a = RngRegistry(seed=3).stream("load")
    rng_b = RngRegistry(seed=3).stream("load")
    gaps = _arrival_gaps("poisson", 50.0, rng_a, 1.5, 4.0)
    drawn = [next(gaps) for _ in range(100)]
    legacy = [exponential(rng_b, 1.0 / 50.0) for _ in range(100)]
    assert drawn == legacy


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_arrival_gaps_hit_the_requested_mean_rate(arrival):
    rng = RngRegistry(seed=11).stream(f"load:{arrival}")
    gaps = _arrival_gaps(arrival, 100.0, rng, 1.5, 4.0)
    drawn = [next(gaps) for _ in range(20_000)]
    assert all(gap > 0 for gap in drawn)
    mean = sum(drawn) / len(drawn)
    # Pareto at alpha=1.5 has infinite variance: generous tolerance.
    assert mean == pytest.approx(1.0 / 100.0, rel=0.35)


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_arrival_gaps_deterministic_per_rng(arrival):
    first = _arrival_gaps(arrival, 40.0,
                          RngRegistry(seed=7).stream("x"), 1.5, 4.0)
    second = _arrival_gaps(arrival, 40.0,
                           RngRegistry(seed=7).stream("x"), 1.5, 4.0)
    assert [next(first) for _ in range(500)] == \
        [next(second) for _ in range(500)]


def test_arrival_gaps_reject_bad_parameters():
    rng = RngRegistry(seed=1).stream("x")
    with pytest.raises(ValueError):
        next(_arrival_gaps("uniform", 10.0, rng, 1.5, 4.0))
    with pytest.raises(ValueError):
        next(_arrival_gaps("pareto", 10.0, rng, 1.0, 4.0))
    with pytest.raises(ValueError):
        next(_arrival_gaps("mmpp", 10.0, rng, 1.5, 1.0))


# -- LoadResult goodput / typed failures -----------------------------------


def test_goodput_counts_only_in_deadline_completions():
    result = LoadResult(workload="w", started_at=0.0, finished_at=2.0,
                        deadline_seconds=0.1)
    result.latencies.extend([0.05, 0.09, 0.11, 0.5])
    assert result.throughput_rps == pytest.approx(2.0)
    assert result.goodput_rps == pytest.approx(1.0)  # two useful completions


def test_goodput_equals_throughput_without_a_deadline():
    result = LoadResult(workload="w", started_at=0.0, finished_at=2.0)
    result.latencies.extend([0.05, 3.0])
    assert result.goodput_rps == result.throughput_rps


def test_record_failure_splits_typed_outcomes():
    result = LoadResult(workload="w")
    result.record_failure(GatewayTimeout("plain"))
    result.record_failure(RequestShed("shed"))
    result.record_failure(RequestExpired("expired"))
    result.record_failure(RetryBudgetExhausted("broke"))
    assert result.failures == 4
    assert (result.shed, result.expired, result.budget_exhausted) == (1, 1, 1)


class ScriptedGateway:
    """A stub gateway: each request succeeds or raises the next scripted
    error after one millisecond."""

    def __init__(self, env, outcomes):
        self.env = env
        self.outcomes = iter(outcomes)

    def request(self, workload):
        error = next(self.outcomes)

        def respond():
            yield self.env.timeout(0.001)
            if error is not None:
                raise error
            return SimpleNamespace(latency=0.001)

        return self.env.process(respond())


def test_round_robin_closed_loop_splits_typed_outcomes():
    env = Environment()
    gateway = ScriptedGateway(env, [
        RequestShed("shed"), RequestExpired("expired"),
        RetryBudgetExhausted("broke"), None,
        GatewayTimeout("plain"), RequestShed("shed"),
    ])
    proc = round_robin_closed_loop(env, gateway, ["a", "b"], n_requests=6)
    env.run()
    results = proc.value
    a, b, combined = results["a"], results["b"], results["__all__"]
    assert (a.failures, a.shed, a.expired, a.budget_exhausted) == (3, 1, 0, 1)
    assert (b.failures, b.shed, b.expired, b.budget_exhausted) == (2, 1, 1, 0)
    assert len(b.latencies) == 1 and not a.latencies
    assert (combined.failures, combined.shed, combined.expired,
            combined.budget_exhausted) == (5, 2, 1, 1)


# -- gateway: deadlines, shedding, budgets ---------------------------------


class Responder:
    """A stub backend: answers each request after a scripted delay.

    ``delays`` is consumed per request; the last entry repeats.
    """

    def __init__(self, env, node, delays):
        self.env = env
        self.node = node
        self.delays = list(delays)
        self.received = 0
        node.attach(self.receive)

    def receive(self, packet):
        header = packet.headers.get("LambdaHeader")
        if header is None or header.is_response:
            return
        self.received += 1
        delay = (self.delays.pop(0) if len(self.delays) > 1
                 else self.delays[0])
        if delay is None:
            return  # scripted black hole
        self.env.process(self._reply(packet, delay))

    def _reply(self, packet, delay):
        yield self.env.timeout(delay)
        headers = packet.headers.copy()
        headers.get("LambdaHeader").is_response = True
        self.node.send(Packet(
            src=self.node.name, dst=packet.src,
            headers=headers, payload_bytes=64,
        ))


def make_gateway(network=None, **kwargs):
    env = Environment()
    network = Network(env)
    gateway = Gateway(env, network.add_node("gw"), **kwargs)
    return env, network, gateway


def test_request_expires_in_the_proxy_queue():
    """The gateway's own dequeue check: a request whose deadline passes
    while queued behind the serialised proxy is dropped before any
    packet is sent downstream."""
    env, network, gw = make_gateway(proxy_seconds=0.05)
    sink = network.add_node("sink")
    sink.attach(lambda packet: None)
    gw.set_route("w", wid=1, targets=["sink"])
    seen = {}

    def scenario(env):
        first = gw.request("w", deadline=env.now + 10.0)
        # Queued behind the first request's 50 ms proxy occupancy, but
        # only allowed 20 ms of life.
        second = gw.request("w", deadline=env.now + 0.02)
        try:
            yield second
            seen["error"] = None
        except GatewayTimeout as error:
            seen["error"] = error
        first.defused = True  # the first request's fate is not under test
        yield env.timeout(0.01)  # let the first request's packet land

    env.run(until=env.process(scenario(env)))

    assert isinstance(seen["error"], RequestExpired)
    assert "proxy queue" in str(seen["error"])
    assert sink.rx_packets == 1  # only the first request was ever sent
    assert gw.expired_total.value(labels={"workload": "w"}) == 1
    assert gw.failures_total.value(
        labels={"workload": "w", "reason": "expired"}) == 1


def test_attempt_deadline_is_min_of_deadline_and_timeout():
    """Packets carry the gRPC-style per-attempt deadline: the backend
    must never work past the point this attempt's waiter gives up."""
    env, network, gw = make_gateway(request_timeout=0.05, max_retries=0)
    captured = []
    sink = network.add_node("sink")
    sink.attach(captured.append)
    gw.set_route("w", wid=1, targets=["sink"])

    def scenario(env):
        try:
            yield gw.request("w", deadline=env.now + 10.0)
        except GatewayTimeout:
            pass
        sent_at = captured[0].meta[DEADLINE_META] - 0.05
        try:
            yield gw.request("w", deadline=env.now + 0.01)
        except GatewayTimeout:
            pass
        return sent_at

    env.run(until=env.process(scenario(env)))

    # Far deadline: clipped to send-time + request_timeout.
    far, near = captured
    assert far.meta[DEADLINE_META] < 10.0
    # Near deadline: the deadline itself is the binding constraint.
    assert near.meta[DEADLINE_META] - far.meta[DEADLINE_META] < 0.05


def test_gateway_sheds_at_admission_when_tripped():
    env, network, gw = make_gateway(
        overload=OverloadConfig(shed_target_seconds=0.01),
        request_timeout=0.001, max_retries=0,
    )
    sink = network.add_node("sink")
    sink.attach(lambda packet: None)
    gw.set_route("w", wid=1, targets=["sink"])
    # Force the shedder deep into its ramp so the next few admission
    # rolls are near-certain drops.
    for i in range(400):
        gw.shedder.observe(0.05, now=0.001 * i)
    assert gw.shedder.shedding
    outcomes = []

    def scenario(env):
        for _ in range(10):
            try:
                yield gw.request("w")
            except RequestShed:
                outcomes.append("shed")
            except GatewayTimeout:
                outcomes.append("timeout")

    env.run(until=env.process(scenario(env)))

    assert "shed" in outcomes
    shed = outcomes.count("shed")
    assert gw.shed_total.value(labels={"workload": "w"}) == shed
    assert gw.shedder.shed_count == shed
    assert gw.failures_total.value(
        labels={"workload": "w", "reason": "shed"}) == shed


def test_empty_retry_budget_fails_fast():
    """With a zero budget the first retry attempt fails fast instead of
    piling retries onto an overloaded backend."""
    env, network, gw = make_gateway(
        overload=OverloadConfig(retry_budget_ratio=0.0,
                                retry_budget_floor=0.0),
        request_timeout=0.01, max_retries=5, backoff_base=0.001,
    )
    sink = network.add_node("sink")
    sink.attach(lambda packet: None)
    gw.set_route("w", wid=1, targets=["sink"])
    seen = {}

    def scenario(env):
        try:
            yield gw.request("w")
        except GatewayTimeout as error:
            seen["error"] = error

    env.run(until=env.process(scenario(env)))

    assert isinstance(seen["error"], RetryBudgetExhausted)
    # One send happened (the initial attempt), no retries ever went out.
    assert sink.rx_packets == 1
    assert gw.retry_budget("w").denied == 1
    assert gw.retry_budget_exhausted_total.value(
        labels={"workload": "w"}) == 1
    assert gw.failures_total.value(
        labels={"workload": "w", "reason": "retry_budget_exhausted"}) == 1


# -- deadline propagation through the backends -----------------------------


def test_host_drops_expired_work_before_running_the_handler():
    tb = Testbed(seed=21, n_workers=1,
                 overload=OverloadConfig(deadline_seconds=5e-6))
    tb.add_bare_metal_backend()
    spec = web_server_spec()
    seen = {}

    def scenario(env):
        yield tb.manager.deploy(spec, "bare-metal")
        try:
            yield tb.gateway.request(spec.name)
            seen["error"] = None
        except GatewayTimeout as error:
            seen["error"] = error
        yield env.timeout(0.1)  # let the dead packet reach the host

    tb.run(until=tb.env.process(scenario(tb.env)))

    assert isinstance(seen["error"], RequestExpired)
    host = tb.host_servers("bare-metal")[0]
    assert host.stats.expired == 1
    assert host.stats.requests_served == 0


def test_nic_drops_provably_late_work_on_arrival():
    """The WCET-aware arrival check: at a 50 kHz clock web_server's
    verified WCET (~27 ms) cannot fit a 10 ms deadline, so the NPU
    never grants it a thread — zero cycles wasted on dead work."""
    tb = Testbed(
        seed=22, n_workers=1,
        nic_kwargs=dict(n_cores=1, threads_per_core=2, cores_per_island=1,
                        clock_hz=5e4),
        overload=OverloadConfig(deadline_seconds=0.01),
    )
    tb.add_lambda_nic_backend()
    spec = web_server_spec()
    seen = {}

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        try:
            yield tb.gateway.request(spec.name)
            seen["error"] = None
        except GatewayTimeout as error:
            seen["error"] = error
        yield env.timeout(0.1)

    tb.run(until=tb.env.process(scenario(tb.env)))

    assert isinstance(seen["error"], RequestExpired)
    nic = tb.nic("m2-nic")
    assert nic.stats.expired_on_arrival == 1
    assert nic.stats.requests_served == 0
    assert nic.stats.total_cycles == 0  # dead work never charged a cycle


def test_nic_serves_normally_when_the_deadline_is_generous():
    tb = Testbed(seed=23, n_workers=1,
                 overload=OverloadConfig(deadline_seconds=1.0))
    tb.add_lambda_nic_backend()
    spec = web_server_spec()
    outcomes = {}

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        outcomes["result"] = yield tb.gateway.request(spec.name)

    tb.run(until=tb.env.process(scenario(tb.env)))

    assert outcomes["result"].ok
    nic = tb.nic("m2-nic")
    assert nic.stats.requests_served == 1
    assert nic.stats.expired_on_arrival == 0
    assert nic.stats.expired_completions == 0


# -- hedged requests -------------------------------------------------------


def hedging_gateway(warm=True, **overrides):
    config = OverloadConfig(hedge_quantile=50.0, hedge_min_samples=4,
                            **overrides)
    env, network, gw = make_gateway(overload=config, request_timeout=1.0,
                                    max_retries=0)
    gw.set_route("w", wid=1, targets=["a", "b"])
    slow = Responder(env, network.add_node("a"), delays=[0.05])
    fast = Responder(env, network.add_node("b"), delays=[0.005])
    if warm:
        # Warm the latency estimate: four 10 ms observations put p50 at
        # 10 ms, far below the slow replica's 50 ms.
        for _ in range(4):
            gw.latency_histogram.observe(0.01, labels={"workload": "w"})
    return env, gw, slow, fast


def test_hedged_request_delivers_exactly_one_outcome():
    """Tail-at-scale hedging: the original goes to the slow replica,
    the hedge fires at p50 and wins, and the slow copy's eventual
    response is absorbed as a duplicate — never delivered twice, never
    counted as late."""
    env, gw, slow, fast = hedging_gateway()
    outcomes = []

    def scenario(env):
        outcome = yield gw.request("w")
        outcomes.append(outcome)
        yield env.timeout(0.1)  # let the losing copy's response arrive

    env.run(until=env.process(scenario(env)))

    assert len(outcomes) == 1 and outcomes[0].ok
    assert outcomes[0].latency < 0.02  # served by the hedge, not the original
    assert slow.received == 1 and fast.received == 1
    assert gw.hedged_requests_total.value(labels={"workload": "w"}) == 1
    assert gw.duplicate_responses_total.value() == 1
    assert gw.late_responses_total.value() == 0
    assert gw.requests_total.value(labels={"workload": "w"}) == 1


def test_hedge_is_denied_when_the_retry_budget_is_empty():
    env, gw, slow, fast = hedging_gateway(retry_budget_ratio=0.0,
                                          retry_budget_floor=0.0)
    outcomes = []

    def scenario(env):
        outcome = yield gw.request("w")
        outcomes.append(outcome)

    env.run(until=env.process(scenario(env)))

    # No token, no hedge: the request rides out the slow replica.
    assert outcomes[0].ok and outcomes[0].latency > 0.04
    assert fast.received == 0
    assert gw.hedged_requests_total.value(labels={"workload": "w"}) == 0
    assert gw.retry_budget("w").denied == 1


def test_no_hedging_without_enough_latency_samples():
    env, gw, slow, fast = hedging_gateway(warm=False)
    outcomes = []

    def scenario(env):
        outcomes.append((yield gw.request("w")))

    env.run(until=env.process(scenario(env)))

    assert outcomes[0].ok
    assert fast.received == 0  # estimate not trusted yet: no hedge sent


# -- breaker half-open probe racing a late response ------------------------


def test_half_open_trial_unmoved_by_a_late_response():
    """A stale response from a pre-ejection request arrives while the
    half-open trial is still in flight: it must be absorbed as *late*
    (the waiter is gone), not treated as the trial's success — only the
    trial's own response may close the breaker."""
    env, network, gw = make_gateway(
        request_timeout=0.01, max_retries=0,
        breaker_threshold=1, breaker_reset_timeout=0.02,
    )
    gw.set_route("w", wid=1, targets=["a"])
    # First request answered after 35 ms (way past the 10 ms timeout),
    # later ones after 8 ms (inside it).
    responder = Responder(env, network.add_node("a"), delays=[0.035, 0.008])
    checkpoints = {}

    def scenario(env):
        try:
            yield gw.request("w")
        except GatewayTimeout:
            pass
        checkpoints["after_timeout"] = gw.breaker_for("a").state
        # Past the cool-down: the next request is the half-open trial.
        yield env.timeout(0.032 - env.now)
        trial = gw.request("w")
        # The stale response from request #1 lands at ~35 ms, while the
        # trial (sent at ~32 ms) is still waiting on its own reply.
        yield env.timeout(0.038 - env.now)
        checkpoints["during_trial"] = gw.breaker_for("a").state
        checkpoints["late_during_trial"] = gw.late_responses_total.value()
        outcome = yield trial
        checkpoints["outcome"] = outcome

    env.run(until=env.process(scenario(env)))

    assert checkpoints["after_timeout"] == "open"
    # The stale response was counted late and left the trial pending.
    assert checkpoints["during_trial"] == "half-open"
    assert checkpoints["late_during_trial"] == 1
    # The trial's own 8 ms response closed the breaker.
    assert checkpoints["outcome"].ok
    breaker = gw.breaker_for("a")
    assert breaker.state == "closed"
    assert breaker.closes == 1
