"""End-to-end overload control: graceful degradation at every hop.

Four mechanisms, each individually optional (all off by default so the
layer is zero-cost when unused):

* **Deadline propagation** — the gateway stamps an absolute sim-time
  deadline into ``packet.meta`` and every queueing point (gateway
  proxy, SmartNIC NPU dispatch, host server run queue) checks it on
  dequeue and drops already-dead work instead of executing it. The NIC
  check is additionally WCET-aware: with the static verifier's WCET
  bound available it drops on *arrival* when even an immediately
  scheduled execution could not finish in time.
* **Retry budgets** — a per-workload token bucket at the gateway
  (Finagle-style): each fresh request deposits a fraction of a token,
  each retry or hedge withdraws one. When the bucket is empty the
  request fails fast with a distinct outcome, so retry storms
  self-extinguish instead of amplifying overload.
* **Adaptive load shedding** — a CoDel-style controller watching queue
  sojourn time: when the observed wait stays above a target for a full
  interval it starts probabilistically rejecting new arrivals (drop
  probability ramping with persistence), and recovers the moment the
  wait drops back under the target.
* **Hedged requests** — configured on :class:`OverloadConfig` and
  implemented by the gateway's request-id dedup (same request id to a
  second target, first response wins, the late copy is absorbed),
  guarded by the retry budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..net.packet import DEADLINE_META

__all__ = [
    "CoDelShedder",
    "DEADLINE_META",
    "OverloadConfig",
    "RETRY_BUDGET_CAP",
    "RetryBudget",
    "SHED_MAX_PROBABILITY",
]

#: Retry-budget bucket capacity: bounds how large a burst of retries an
#: idle period can bank.
RETRY_BUDGET_CAP = 100.0

#: Ceiling on a shedder's drop probability (never sheds 100%: admitted
#: requests are how it observes recovery).
SHED_MAX_PROBABILITY = 0.95


@dataclass
class OverloadConfig:
    """Knobs for the overload-control layer. Everything defaults off.

    All times are simulated seconds; ``hedge_quantile`` is a percentile
    in ``[0, 100]`` to match :meth:`Histogram.percentile`.
    """

    #: Default per-request deadline, applied by the gateway as
    #: ``now + deadline_seconds`` when the caller passes none.
    deadline_seconds: Optional[float] = None
    #: Retry-budget deposit per fresh request (e.g. 0.1 == retries may
    #: consume up to ~10% of recent request volume). None disables.
    retry_budget_ratio: Optional[float] = None
    #: Initial bucket balance: a reserve so cold workloads can still
    #: retry sporadic failures.
    retry_budget_floor: float = 10.0
    #: Gateway proxy-queue sojourn target; above it for a full interval
    #: the gateway starts shedding arrivals. None disables.
    shed_target_seconds: Optional[float] = None
    #: How long sojourn must stay above target before shedding starts.
    shed_interval_seconds: float = 0.1
    #: Per-backend (NIC / host server) dispatch-wait target for the
    #: backend-local shedders. None disables backend shedding.
    backend_shed_target_seconds: Optional[float] = None
    #: Latency percentile (0-100) after which the gateway sends a
    #: hedge copy to the next-ranked target. None disables hedging.
    hedge_quantile: Optional[float] = None
    #: Observations needed before the hedge trigger trusts the
    #: percentile estimate.
    hedge_min_samples: int = 32

    @property
    def enabled(self) -> bool:
        """True when any mechanism is switched on."""
        return any(value is not None for value in (
            self.deadline_seconds,
            self.retry_budget_ratio,
            self.shed_target_seconds,
            self.backend_shed_target_seconds,
            self.hedge_quantile,
        ))


class RetryBudget:
    """Token bucket bounding retries to a fraction of request volume.

    Fresh requests deposit ``ratio`` tokens (clamped to
    :data:`RETRY_BUDGET_CAP`); retries and hedges withdraw one each. The
    ``floor`` seeds the bucket so low-traffic workloads can still retry
    isolated failures.
    """

    def __init__(self, ratio: float, floor: float = 10.0) -> None:
        if ratio < 0:
            raise ValueError("retry budget ratio must be non-negative")
        if floor > RETRY_BUDGET_CAP:
            raise ValueError("retry budget floor must be <= its cap")
        self.ratio = ratio
        self.floor = floor
        self.balance = float(floor)
        self.deposited = 0.0
        self.withdrawn = 0
        self.denied = 0

    def note_request(self) -> None:
        """One fresh (non-retry) request: deposit ``ratio`` tokens."""
        self.balance = min(RETRY_BUDGET_CAP, self.balance + self.ratio)
        self.deposited += self.ratio

    def withdraw(self) -> bool:
        """Take one token for a retry/hedge; False when broke."""
        if self.balance >= 1.0:
            self.balance -= 1.0
            self.withdrawn += 1
            return True
        self.denied += 1
        return False


class CoDelShedder:
    """CoDel-style admission controller keyed on queue sojourn time.

    Dequeue points feed observed waits into :meth:`observe`; arrival
    points ask :meth:`should_shed`. The controller trips once sojourn
    has exceeded ``target_seconds`` continuously for
    ``interval_seconds``, ramps its drop probability with the number of
    consecutive above-target observations (``1 - 1/sqrt(1 + n)``, the
    CoDel control law's flavor of gradual escalation, capped at
    :data:`SHED_MAX_PROBABILITY`), and resets the instant a sojourn
    lands back at or under the target.
    """

    def __init__(self, target_seconds: float,
                 interval_seconds: float = 0.1,
                 rng=None) -> None:
        if target_seconds <= 0:
            raise ValueError("shed target must be positive")
        self.target = target_seconds
        self.interval = interval_seconds
        self.rng = rng if rng is not None else random.Random(0xC0DE1)
        self.shedding = False
        self.shed_count = 0
        self._first_above: Optional[float] = None
        self._above_count = 0

    def observe(self, sojourn: float, now: float) -> None:
        """Feed one dequeue's measured queue wait."""
        if sojourn <= self.target:
            self._first_above = None
            self._above_count = 0
            self.shedding = False
            return
        if self._first_above is None:
            self._first_above = now
        self._above_count += 1
        if not self.shedding and now - self._first_above >= self.interval:
            self.shedding = True

    @property
    def drop_probability(self) -> float:
        if not self.shedding:
            return 0.0
        return min(SHED_MAX_PROBABILITY,
                   1.0 - 1.0 / math.sqrt(1.0 + self._above_count))

    def should_shed(self) -> bool:
        """Arrival-time admission decision (consumes randomness only
        while actively shedding, keeping disabled/idle runs
        draw-for-draw identical)."""
        probability = self.drop_probability
        if probability <= 0.0:
            return False
        if self.rng.random() < probability:
            self.shed_count += 1
            return True
        return False
