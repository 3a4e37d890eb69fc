"""Load generators: closed-loop and open-loop clients.

The paper's two throughput modes (§6.3.1): closed-loop testing (each
request sent after the previous completes) and parallel testing with N
outstanding requests. Both return a :class:`LoadResult` with latencies
and throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional

from ..sim import Environment, exponential
from .gateway import (
    Gateway,
    GatewayTimeout,
    RequestExpired,
    RequestShed,
    RetryBudgetExhausted,
)
from .metrics import percentile_of

#: Arrival processes :func:`open_loop` understands.
ARRIVAL_PROCESSES = ("poisson", "pareto", "mmpp")


@dataclass
class LoadResult:
    """Outcome of one load-generation run."""

    workload: str
    latencies: List[float] = field(default_factory=list)
    failures: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Overload-control outcome splits (each also counted in
    #: ``failures`` — availability math is unchanged).
    shed: int = 0
    expired: int = 0
    budget_exhausted: int = 0
    #: The per-request deadline this run was generated with (relative
    #: seconds); bounds what :attr:`goodput_rps` counts as useful.
    deadline_seconds: Optional[float] = None

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def duration(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Requests completed *within their deadline* per second.

        Throughput counts every completion; goodput only the useful
        ones. Without a deadline the two coincide — completing at all
        is the only definition of useful available.
        """
        if self.duration <= 0:
            return 0.0
        if self.deadline_seconds is None:
            good = self.completed
        else:
            limit = self.deadline_seconds
            good = sum(1 for latency in self.latencies if latency <= limit)
        return good / self.duration

    @property
    def mean_latency(self) -> float:
        return (sum(self.latencies) / len(self.latencies)
                if self.latencies else float("nan"))

    def percentile(self, q: float) -> float:
        return percentile_of(sorted(self.latencies), q)

    def record_failure(self, error: GatewayTimeout) -> None:
        """Count one failed request, splitting typed overload outcomes."""
        self.failures += 1
        if isinstance(error, RequestShed):
            self.shed += 1
        elif isinstance(error, RequestExpired):
            self.expired += 1
        elif isinstance(error, RetryBudgetExhausted):
            self.budget_exhausted += 1


def closed_loop(
    env: Environment,
    gateway: Gateway,
    workload: str,
    n_requests: int,
    concurrency: int = 1,
    payload: Any = None,
    payload_bytes: Optional[int] = None,
    think_time: float = 0.0,
):
    """Process: ``concurrency`` workers issuing ``n_requests`` total."""

    def run():
        result = LoadResult(workload=workload, started_at=env.now)
        remaining = [n_requests]

        def worker():
            while remaining[0] > 0:
                remaining[0] -= 1
                try:
                    outcome = yield gateway.request(
                        workload, payload=payload, payload_bytes=payload_bytes
                    )
                    result.latencies.append(outcome.latency)
                except GatewayTimeout as error:
                    result.record_failure(error)
                if think_time > 0:
                    yield env.timeout(think_time)

        workers = [env.process(worker())
                   for _ in range(max(1, concurrency))]
        yield env.all_of(workers)
        result.finished_at = env.now
        return result

    return env.process(run())


def _arrival_gaps(arrival: str, rate_rps: float, rng,
                  pareto_alpha: float, burstiness: float):
    """Generator of inter-arrival gaps with mean ``1 / rate_rps``.

    ``poisson``
        Memoryless exponential gaps — the open-loop classic.
    ``pareto``
        Heavy-tailed gaps (shape ``pareto_alpha``, scaled so the mean
        matches): long silences punctuated by dense bursts.
    ``mmpp``
        Two-state Markov-modulated Poisson process: a *hot* state at
        ``burstiness``:1 intensity versus the *cold* state, with
        exponential dwell times, same long-run mean rate.
    """
    mean_gap = 1.0 / rate_rps
    if arrival == "poisson":
        while True:
            yield exponential(rng, mean_gap)
    elif arrival == "pareto":
        if pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 (finite mean)")
        xm = mean_gap * (pareto_alpha - 1.0) / pareto_alpha
        while True:
            u = rng.random()
            yield xm / (1.0 - u) ** (1.0 / pareto_alpha)
    elif arrival == "mmpp":
        if burstiness <= 1.0:
            raise ValueError("burstiness must exceed 1")
        # Rates chosen so equal expected dwell in each state averages
        # back to rate_rps: hot:cold intensity ratio is burstiness:1.
        hot = rate_rps * 2.0 * burstiness / (1.0 + burstiness)
        cold = rate_rps * 2.0 / (1.0 + burstiness)
        mean_dwell = 1.0
        in_hot = True
        dwell = exponential(rng, mean_dwell)
        while True:
            gap = exponential(rng, 1.0 / (hot if in_hot else cold))
            yield gap
            dwell -= gap
            if dwell <= 0.0:
                in_hot = not in_hot
                dwell = exponential(rng, mean_dwell)
    else:
        raise ValueError(
            f"unknown arrival process {arrival!r}; "
            f"expected one of {ARRIVAL_PROCESSES}"
        )


def open_loop(
    env: Environment,
    gateway: Gateway,
    workload: str,
    rate_rps: float,
    duration: float,
    rng,
    payload: Any = None,
    payload_bytes: Optional[int] = None,
    arrival: str = "poisson",
    pareto_alpha: float = 1.5,
    burstiness: float = 4.0,
    deadline_seconds: Optional[float] = None,
):
    """Process: open-loop arrivals at mean ``rate_rps`` for ``duration``.

    ``arrival`` selects the inter-arrival process (see
    :func:`_arrival_gaps`); all three draw only from ``rng``, so runs
    are deterministic per seed. ``deadline_seconds`` stamps each
    request with an absolute deadline that far in the future, engaging
    end-to-end deadline propagation.
    """
    if rate_rps <= 0:
        raise ValueError("rate must be positive")
    gaps = _arrival_gaps(arrival, rate_rps, rng, pareto_alpha, burstiness)

    def run():
        result = LoadResult(workload=workload, started_at=env.now,
                            deadline_seconds=deadline_seconds)
        outstanding = []
        horizon = env.now + duration

        def one_request():
            deadline = (env.now + deadline_seconds
                        if deadline_seconds is not None else None)
            try:
                outcome = yield gateway.request(
                    workload, payload=payload, payload_bytes=payload_bytes,
                    deadline=deadline,
                )
                result.latencies.append(outcome.latency)
            except GatewayTimeout as error:
                result.record_failure(error)

        while env.now < horizon:
            yield env.timeout(next(gaps))
            if env.now >= horizon:
                break
            outstanding.append(env.process(one_request()))
        if outstanding:
            yield env.all_of(outstanding)
        result.finished_at = env.now
        return result

    return env.process(run())


@dataclass(frozen=True)
class Arrival:
    """One planned open-loop request: an id and an absolute send time.

    The id doubles as the shard-ownership key (see
    :mod:`repro.sim.shard`): ids are assigned in arrival order from 0,
    so ``request_id % n_shards`` deals consecutive arrivals round-robin
    across shards and every shard sees a thinned copy of the same
    process.
    """

    request_id: int
    at: float


def iter_arrivals(
    rate_rps: float,
    duration: float,
    rng: random.Random,
    arrival: str = "poisson",
    pareto_alpha: float = 1.5,
    burstiness: float = 4.0,
    start: float = 0.0,
) -> Iterator[Arrival]:
    """Generate the deterministic arrival stream one record at a time.

    A pure function of its arguments: the same seed always yields the
    same ``(request_id, at)`` sequence, which is what lets shard
    workers in different processes regenerate the *full* stream
    locally and keep only their own slice — no multi-gigabyte arrival
    list ever crosses a process boundary. The gap sequence is exactly
    :func:`open_loop`'s for the same ``rng`` state.
    """
    if rate_rps <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    gaps = _arrival_gaps(arrival, rate_rps, rng, pareto_alpha, burstiness)
    horizon = start + duration
    now = start
    request_id = 0
    while True:
        now += next(gaps)
        if now >= horizon:
            return
        yield Arrival(request_id=request_id, at=now)
        request_id += 1


def plan_arrivals(
    rate_rps: float,
    duration: float,
    rng: random.Random,
    arrival: str = "poisson",
    pareto_alpha: float = 1.5,
    burstiness: float = 4.0,
    start: float = 0.0,
) -> List[Arrival]:
    """The fully materialised arrival plan (small experiments/tests)."""
    return list(iter_arrivals(rate_rps, duration, rng, arrival=arrival,
                              pareto_alpha=pareto_alpha,
                              burstiness=burstiness, start=start))


def scheduled_open_loop(
    env: Environment,
    gateway: Gateway,
    workload: str,
    arrivals: Iterable[Arrival],
    payload: Any = None,
    payload_bytes: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
):
    """Process: replay a planned (sub-)stream of arrivals.

    The sharded analogue of :func:`open_loop`: instead of drawing
    inter-arrival gaps live, it walks a pre-planned stream (or any
    deterministic slice of one) and fires each request at time
    ``epoch + record.at``, where the epoch is the simulated instant
    the replay starts (deployment etc. consumes sim time first, and
    may consume *different* amounts on differently sized testbeds).
    A monolithic run replays the whole plan; shard ``i`` replays only
    the arrivals it owns — at the same epoch-relative instants, which
    is what makes merged shard results comparable to the
    single-testbed run.

    Arrival times must be non-decreasing.
    """

    def run():
        epoch = env.now
        result = LoadResult(workload=workload, started_at=env.now,
                            deadline_seconds=deadline_seconds)
        outstanding = []

        def one_request():
            deadline = (env.now + deadline_seconds
                        if deadline_seconds is not None else None)
            try:
                outcome = yield gateway.request(
                    workload, payload=payload, payload_bytes=payload_bytes,
                    deadline=deadline,
                )
                result.latencies.append(outcome.latency)
            except GatewayTimeout as error:
                result.record_failure(error)

        for record in arrivals:
            due = epoch + record.at
            if due < env.now:
                raise ValueError(
                    f"arrival {record.request_id} at {record.at} is "
                    f"out of order (now {env.now - epoch} past the "
                    f"epoch); plans must be non-decreasing in time"
                )
            if due > env.now:
                yield env.timeout(due - env.now)
            outstanding.append(env.process(one_request()))
            # Cap the completion-wait bookkeeping: instead of holding
            # every request process until the end (10^7 entries for a
            # scale run), reap the finished prefix as we go.
            if len(outstanding) >= 512:
                outstanding[:] = [proc for proc in outstanding
                                  if proc.is_alive]
        if outstanding:
            yield env.all_of(outstanding)
        result.finished_at = env.now
        return result

    return env.process(run())


def round_robin_closed_loop(
    env: Environment,
    gateway: Gateway,
    workloads: List[str],
    n_requests: int,
    concurrency: int = 1,
):
    """Process: closed loop cycling requests across ``workloads``.

    This is the paper's Figure-8 contention driver: requests for
    multiple distinct lambdas issued round-robin, forcing backends to
    switch between them. Returns one LoadResult per workload, plus a
    combined result under key ``"__all__"``.
    """

    def run():
        results = {name: LoadResult(workload=name, started_at=env.now)
                   for name in workloads}
        combined = LoadResult(workload="__all__", started_at=env.now)
        counter = [0]
        remaining = [n_requests]

        def worker():
            while remaining[0] > 0:
                remaining[0] -= 1
                name = workloads[counter[0] % len(workloads)]
                counter[0] += 1
                try:
                    outcome = yield gateway.request(name)
                    results[name].latencies.append(outcome.latency)
                    combined.latencies.append(outcome.latency)
                except GatewayTimeout as error:
                    results[name].record_failure(error)
                    combined.record_failure(error)

        workers = [env.process(worker()) for _ in range(max(1, concurrency))]
        yield env.all_of(workers)
        for result in list(results.values()) + [combined]:
            result.finished_at = env.now
        results["__all__"] = combined
        return results

    return env.process(run())
