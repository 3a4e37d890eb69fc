"""The four benchmark workloads, defined here rather than imported.

Each workload builds its testbed from the seed alone, deploys its
lambdas, optionally warms up, and then runs one timed window whose
every request ends in exactly one terminal outcome. The definitions are
copies (not imports) of the experiment drivers' settings so that a
later change to an experiment cannot silently change the benchmark.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.serverless import (
    GatewayTimeout,
    OverloadConfig,
    Testbed,
    closed_loop,
    plan_arrivals,
)
from repro.workloads import standard_workloads

#: Closed-loop clients per workload (requests outstanding at once).
CONCURRENCY = 4

#: Window and warm-up sizes are multiplied by this in smoke runs.
SMOKE_SCALE = 0.01


@dataclass
class Outcomes:
    """Terminal outcome of every request issued in one timed window."""

    issued: int
    #: Simulated latency (seconds) of each successful request.
    latencies: List[float] = field(default_factory=list)
    #: Failed requests by typed cause (timeout, shed, expired, ...).
    failures: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to set it up and what one window runs."""

    name: str
    backend: str
    lambdas: tuple
    #: Closed-loop requests before the window (0: the window starts cold).
    warmup: int
    #: Requests in the timed window (closed loop), or planned arrivals
    #: (open loop).
    window: int
    testbed_kwargs: Dict = field(default_factory=dict)
    open_loop: bool = False

    def setup(self, seed: int) -> Testbed:
        """Build the testbed and run every deploy to completion."""
        tb = Testbed(seed=seed, **self.testbed_kwargs)
        tb.add_backend(self.backend)
        specs = standard_workloads()

        def deploy(env):
            for name in self.lambdas:
                yield tb.manager.deploy(specs[name], self.backend)

        tb.run(until=tb.env.process(deploy(tb.env)))
        return tb

    def size(self, smoke: bool = False) -> int:
        """Requests issued in one timed window."""
        return max(1, int(self.window * (SMOKE_SCALE if smoke else 1.0)))

    def warm_up(self, tb: Testbed, smoke: bool = False) -> None:
        if self.warmup:
            n = max(1, int(self.warmup * (SMOKE_SCALE if smoke else 1.0)))
            _run(tb, self._closed(tb, n))

    def start(self, tb: Testbed, smoke: bool = False) -> Callable[[], Outcomes]:
        """Prepare the window's inputs; returns the call that runs it.

        Input generation (the arrival plan) happens here, outside the
        timed region; the returned callable is exactly the window.
        """
        size = self.size(smoke)
        if self.open_loop:
            plan = _storm_plan(tb, size)
            return lambda: _replay(tb, plan)
        return lambda: _run(tb, self._closed(tb, size))

    def _closed(self, tb: Testbed, n: int):
        spec = standard_workloads()[self.lambdas[0]]

        def body(env):
            result = yield closed_loop(
                env, tb.gateway, spec.name, n_requests=n,
                concurrency=CONCURRENCY,
                payload_bytes=spec.request_bytes if spec.uses_rdma else None,
            )
            outcomes = Outcomes(issued=n, latencies=list(result.latencies))
            typed = {"shed": result.shed, "expired": result.expired,
                     "retry_budget_exhausted": result.budget_exhausted}
            typed["timeout"] = result.failures - sum(typed.values())
            outcomes.failures.update({k: v for k, v in typed.items() if v})
            return outcomes

        return body


def _run(tb: Testbed, body) -> Outcomes:
    process = tb.env.process(body(tb.env))
    tb.run(until=process)
    return process.value


# -- storm_mixed: the overload_storm set-up at 2x saturation ---------------

#: 2 NICs x 1 core x 2 threads at a 50 kHz-class clock (overload_storm).
STORM_NIC_KWARGS = dict(n_cores=1, threads_per_core=2, cores_per_island=1,
                        clock_hz=5e4)
STORM_GATEWAY_KWARGS = dict(request_timeout=0.1, max_retries=2,
                            backoff_base=0.01, backoff_max=0.04,
                            breaker_threshold=10_000,
                            breaker_reset_timeout=0.5)
STORM_OVERLOAD = OverloadConfig(
    deadline_seconds=0.3,
    retry_budget_ratio=0.1,
    shed_target_seconds=0.02,
    backend_shed_target_seconds=0.06,
    hedge_quantile=95.0,
)
STORM_DEADLINE_SECONDS = 0.3
#: 2x overload_storm's measured saturation rates (60 and 135 rps).
STORM_RATES_RPS = {"web_server": 120.0, "kv_client": 270.0}
#: Planning horizon; the window keeps the first ``window`` arrivals of
#: the merged plan, so its size does not vary with the seed.
STORM_PLAN_SECONDS = 30.0


def _storm_plan(tb: Testbed, size: int) -> List[tuple]:
    """The first ``size`` (at, workload) arrivals of the merged MMPP plans."""
    streams = [
        [(a.at, name) for a in plan_arrivals(
            rate, STORM_PLAN_SECONDS, tb.rng.stream(f"bench:plan:{name}"),
            arrival="mmpp")]
        for name, rate in STORM_RATES_RPS.items()
    ]
    merged = list(heapq.merge(*streams))
    if len(merged) < size:
        raise ValueError(f"plan holds {len(merged)} arrivals, need {size}")
    return merged[:size]


def _replay(tb: Testbed, plan: List[tuple]) -> Outcomes:
    """Open loop in simulated time: each request fires at its planned
    instant and is timed from that instant, so the generator is never
    late (its lateness is 0 by construction)."""
    outcomes = Outcomes(issued=len(plan))

    def one(env, name, due):
        try:
            yield tb.gateway.request(
                name, deadline=due + STORM_DEADLINE_SECONDS)
            outcomes.latencies.append(env.now - due)
        except GatewayTimeout as error:
            outcomes.failures[error.reason] += 1

    def body(env):
        epoch = env.now
        pending = []
        for at, name in plan:
            due = epoch + at
            if due > env.now:
                yield env.timeout(due - env.now)
            pending.append(env.process(one(env, name, due)))
            if len(pending) >= 512:
                pending = [p for p in pending if p.is_alive]
        yield env.all_of(pending)
        return outcomes

    return _run(tb, body)


#: Why each workload is here is recorded in bench/README.md and
#: BENCHMARK.json; the order below is the order a full run takes.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="web_nic", backend="lambda-nic", lambdas=("web_server",),
             warmup=200, window=8_000,
             testbed_kwargs=dict(n_workers=1)),
    Workload(name="image_rdma", backend="lambda-nic",
             lambdas=("image_transformer",), warmup=10, window=160,
             testbed_kwargs=dict(n_workers=1)),
    Workload(name="web_host", backend="bare-metal", lambdas=("web_server",),
             warmup=200, window=8_000,
             testbed_kwargs=dict(n_workers=1)),
    Workload(name="storm_mixed", backend="lambda-nic",
             lambdas=("web_server", "kv_client"), warmup=0, window=6_000,
             open_loop=True,
             testbed_kwargs=dict(n_workers=2,
                                 gateway_kwargs=STORM_GATEWAY_KWARGS,
                                 nic_kwargs=STORM_NIC_KWARGS,
                                 overload=STORM_OVERLOAD)),
)}
