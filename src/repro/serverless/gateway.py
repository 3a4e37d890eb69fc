"""The gateway: proxies user requests to workloads (Figure 2).

For every request the gateway inserts the :class:`LambdaHeader` with
the workload's assigned ID (paper §4.1), forwards to a worker (host
backend or SmartNIC), and matches the response back to the caller. For
RDMA workloads it segments the payload into multi-packet RDMA writes.

The gateway is itself software on the master node: each request pays a
serialised proxy cost, which is what caps λ-NIC's end-to-end throughput
in Table 2 (the NIC itself is far from saturated).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Message,
    Packet,
    UDPHeader,
)
from ..net.message import RDMA_SEGMENT_BYTES
from ..net.network import Node
from ..obs import Tracer
from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Event, Server
from .breaker import STATE_VALUES, CircuitBreaker
from .overload import CoDelShedder, DEADLINE_META, OverloadConfig, RetryBudget


@dataclass
class Route:
    """Where requests for one workload go."""

    workload: str
    wid: int
    targets: List[str]
    #: RDMA queue pair if the workload takes multi-packet input.
    rdma_qp: Optional[int] = None
    _rr: Any = field(default=None, repr=False)

    def next_target(self) -> str:
        if self._rr is None:
            self._rr = itertools.cycle(self.targets)
        return next(self._rr)


@dataclass
class RequestOutcome:
    """What the gateway observed for one request."""

    workload: str
    latency: float
    response: Optional[Packet]
    ok: bool
    retries: int = 0


class GatewayTimeout(Exception):
    """A request exhausted its retries."""

    #: Failure cause, mirrored into ``gateway_failures_total``'s
    #: ``reason`` label. Subclasses refine it so load generators and
    #: dashboards can tell degradation modes apart.
    reason = "timeout"


class RequestExpired(GatewayTimeout):
    """The request's deadline passed before it could complete."""

    reason = "expired"


class RequestShed(GatewayTimeout):
    """The gateway's load shedder rejected the request at arrival."""

    reason = "shed"


class RetryBudgetExhausted(GatewayTimeout):
    """A retry was needed but the workload's retry budget was empty."""

    reason = "retry_budget_exhausted"


class _Call:
    """One user request's state across its attempts' callbacks."""

    __slots__ = ("done", "workload", "payload", "size", "deadline", "budget",
                 "route", "retries", "start", "root", "request_id",
                 "proxy_span", "queued_at", "target", "timer", "hedge_wait",
                 "backoff_span")

    def __init__(self, done: Event, workload: str, payload: Any, size: int,
                 deadline: Optional[float], budget) -> None:
        self.done = done
        self.workload = workload
        self.payload = payload
        self.size = size
        self.deadline = deadline
        self.budget = budget
        self.route: Optional[Route] = None
        self.retries = 0
        self.start: Optional[float] = None
        self.root = None
        self.request_id = 0
        self.proxy_span = None
        self.queued_at = 0.0
        self.target: Optional[str] = None
        #: The attempt's pending timer (hedge or timeout), if any.
        self.timer = None
        self.hedge_wait = 0.0
        self.backoff_span = None


#: Upper bound on remembered hedged request ids (dedup window).
MIRROR_DEDUP_WINDOW = 4096


class Gateway:
    """Request proxy + response matcher on the master node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        metrics: Optional[MetricsRegistry] = None,
        proxy_seconds: float = 17.2e-6,
        proxy_concurrency: int = 1,
        rdma_segment_bytes: int = RDMA_SEGMENT_BYTES,
        request_timeout: float = 5.0,
        max_retries: int = 1,
        rng=None,
        backoff_base: float = 0.02,
        backoff_factor: float = 2.0,
        backoff_max: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset_timeout: float = 1.0,
        overload: Optional[OverloadConfig] = None,
        overload_rng=None,
    ) -> None:
        self.env = env
        self.node = node
        self.name = node.name
        self.metrics = metrics or MetricsRegistry()
        self.proxy_seconds = proxy_seconds
        self.rdma_segment_bytes = rdma_segment_bytes
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        #: RNG for retry-backoff jitter; None means deterministic
        #: full-length backoff (still reproducible either way).
        self.rng = rng
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_timeout = breaker_reset_timeout
        #: Overload-control knobs (deadlines, retry budgets, shedding,
        #: hedging). None keeps the request path byte-identical to a
        #: gateway without the layer.
        self.overload = overload
        self._retry_budgets: Dict[str, RetryBudget] = {}
        self._shedder: Optional[CoDelShedder] = None
        if overload is not None and overload.shed_target_seconds is not None:
            self._shedder = CoDelShedder(
                overload.shed_target_seconds,
                interval_seconds=overload.shed_interval_seconds,
                rng=overload_rng if overload_rng is not None else rng,
            )
        self._proxy = Server(proxy_concurrency)
        self._routes: Dict[str, Route] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._ids = itertools.count(1)
        #: request_id -> the request (a ``_Call``) or probe waiter
        #: (an event) expecting its response.
        self._pending: Dict[int, Any] = {}
        #: Migration draining state: workloads whose new requests are
        #: queued behind an event (released at cutover or rollback).
        self._holds: Dict[str, Any] = {}
        #: request_id -> outstanding copies for hedged requests; bounded
        #: LRU so a dead hedge target cannot grow it.
        self._mirrored: "OrderedDict[int, int]" = OrderedDict()
        #: Per-workload requests sent and awaiting a response (held
        #: requests are *not* counted — draining waits on this).
        self._outstanding: Dict[str, int] = {}
        self.latency_histogram = self.metrics.histogram(
            "gateway_request_seconds", "end-to-end request latency"
        )
        self.requests_total = self.metrics.counter(
            "gateway_requests_total", "requests proxied"
        )
        self.failures_total = self.metrics.counter(
            "gateway_failures_total", "requests that exhausted retries"
        )
        self.retries_total = self.metrics.counter(
            "gateway_retries_total", "individual retry attempts"
        )
        self.late_responses_total = self.metrics.counter(
            "gateway_late_responses_total",
            "responses that arrived after their waiter timed out",
        )
        self.held_requests_total = self.metrics.counter(
            "gateway_held_requests_total",
            "requests queued behind a migration drain hold",
        )
        self.duplicate_responses_total = self.metrics.counter(
            "gateway_duplicate_responses_total",
            "hedged responses deduplicated by request id",
        )
        self.shed_total = self.metrics.counter(
            "gateway_shed_total",
            "requests rejected at arrival by the load shedder",
        )
        self.expired_total = self.metrics.counter(
            "gateway_expired_total",
            "requests dropped because their deadline passed",
        )
        self.hedged_requests_total = self.metrics.counter(
            "gateway_hedged_requests_total",
            "hedge copies sent after the latency-percentile trigger",
        )
        self.retry_budget_exhausted_total = self.metrics.counter(
            "gateway_retry_budget_exhausted_total",
            "requests failed fast on an empty retry budget",
        )
        self.probes_total = self.metrics.counter(
            "gateway_probes_total", "health-probe requests sent"
        )
        self.probe_failures_total = self.metrics.counter(
            "gateway_probe_failures_total", "health probes that timed out"
        )
        self.breaker_state = self.metrics.gauge(
            "gateway_breaker_state",
            "per-target breaker state (0 closed, 0.5 half-open, 1 open)",
        )
        self.breaker_transitions_total = self.metrics.counter(
            "gateway_breaker_transitions_total", "breaker state changes"
        )
        node.attach(self._receive)

    # -- routing table ---------------------------------------------------

    def set_route(self, workload: str, wid: int, targets: List[str],
                  rdma_qp: Optional[int] = None) -> None:
        if not targets:
            raise ValueError(f"route for {workload!r} needs targets")
        self._routes[workload] = Route(workload, wid, list(targets), rdma_qp)

    def remove_route(self, workload: str) -> None:
        """Stop routing for a workload (requests will raise KeyError)."""
        if workload not in self._routes:
            raise KeyError(f"no route for workload {workload!r}")
        del self._routes[workload]

    def route_for(self, workload: str) -> Route:
        route = self._routes.get(workload)
        if route is None:
            raise KeyError(f"no route for workload {workload!r}")
        return route

    # -- migration draining (holds) and hedge dedup -----------------------

    def hold_route(self, workload: str) -> None:
        """Queue new requests for ``workload`` until :meth:`release_route`.

        Loss-free draining: held requests are parked *before* any send,
        so none of them can be answered by a quiescing source; at
        release they re-read the (possibly re-pointed) route and
        proceed. Idempotent.
        """
        if workload not in self._holds:
            self._holds[workload] = self.env.event()

    def release_route(self, workload: str) -> None:
        """Release any held requests for ``workload``. Idempotent."""
        hold = self._holds.pop(workload, None)
        if hold is not None and not hold.triggered:
            hold.succeed()

    def held(self, workload: str) -> bool:
        return workload in self._holds

    def inflight(self, workload: str) -> int:
        """Requests sent for ``workload`` still awaiting a response.

        Held (queued) requests are excluded: this is the quantity a
        drain waits to reach zero.
        """
        return self._outstanding.get(workload, 0)

    def _drop_outstanding(self, workload: str) -> None:
        left = self._outstanding.get(workload, 1) - 1
        if left > 0:
            self._outstanding[workload] = left
        else:
            self._outstanding.pop(workload, None)

    def _register_mirrored(self, request_id: int, copies: int) -> None:
        self._mirrored[request_id] = copies
        self._mirrored.move_to_end(request_id)
        while len(self._mirrored) > MIRROR_DEDUP_WINDOW:
            self._mirrored.popitem(last=False)

    # -- health / circuit breaking ----------------------------------------

    def breaker_for(self, target: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``target``."""
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(
                target,
                failure_threshold=self.breaker_threshold,
                reset_timeout=self.breaker_reset_timeout,
                on_transition=self._on_breaker_transition,
            )
            self._breakers[target] = breaker
        return breaker

    def _on_breaker_transition(self, target: str, old: str, new: str) -> None:
        self.breaker_state.set(STATE_VALUES[new], labels={"target": target})
        self.breaker_transitions_total.inc(
            labels={"target": target, "to": new}
        )

    def ejected_targets(self) -> List[str]:
        """Targets currently held out of rotation by their breaker."""
        return sorted(
            target for target, breaker in self._breakers.items()
            if breaker.ejected
        )

    def _pick_target(self, route: Route) -> str:
        """Round-robin over the route, skipping breaker-ejected targets.

        When every target is ejected the gateway fails open and uses
        the next one anyway: refusing to send at all would turn a full
        outage into a livelock, and the attempt doubles as a probe.
        """
        now = self.env.now
        first = None
        for _ in range(len(route.targets)):
            target = route.next_target()
            if first is None:
                first = target
            breaker = self._breakers.get(target)
            if breaker is None or breaker.allow(now):
                return target
        return first

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff (with jitter when an RNG is present)."""
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.rng is not None:
            # Decorrelate retries: uniform over [delay/2, delay].
            delay *= 0.5 + 0.5 * self.rng.random()
        return delay

    # -- overload control ---------------------------------------------------

    def _fail(self, workload: str, reason: str) -> None:
        """Count one terminal failure, split by cause.

        The ``reason`` label distinguishes degradation modes; the
        counter's unlabeled ``total`` still sums every failure.
        """
        self.failures_total.inc(labels={"workload": workload,
                                        "reason": reason})

    def retry_budget(self, workload: str) -> Optional[RetryBudget]:
        """The (lazily created) per-workload retry budget, if enabled."""
        ov = self.overload
        if ov is None or ov.retry_budget_ratio is None:
            return None
        budget = self._retry_budgets.get(workload)
        if budget is None:
            budget = RetryBudget(ov.retry_budget_ratio,
                                 floor=ov.retry_budget_floor)
            self._retry_budgets[workload] = budget
        return budget

    @property
    def shedder(self) -> Optional[CoDelShedder]:
        return self._shedder

    def _hedge_delay(self, workload: str) -> Optional[float]:
        """How long to wait before hedging, or None to not hedge.

        The trigger is the configured latency percentile of this
        workload's own completed requests; until enough samples exist
        there is no trustworthy estimate and no hedging.
        """
        ov = self.overload
        if ov is None or ov.hedge_quantile is None:
            return None
        labels = {"workload": workload}
        if self.latency_histogram.count(labels=labels) < ov.hedge_min_samples:
            return None
        delay = self.latency_histogram.percentile(
            ov.hedge_quantile, labels=labels
        )
        return delay if delay > 0.0 else None

    def probe_target(self, workload: str, target: str,
                     timeout: Optional[float] = None):
        """Process: one health-check request straight at ``target``.

        Bypasses the breaker (probes are how OPEN targets get back in)
        and the proxy queue; records the outcome against the target's
        breaker and returns True on response.
        """
        return self.env.process(
            self._probe(workload, target, timeout or self.request_timeout)
        )

    def _probe(self, workload: str, target: str, timeout: float):
        route = self.route_for(workload)
        request_id = next(self._ids)
        waiter = self.env.event()
        self._pending[request_id] = waiter
        self.probes_total.inc(labels={"target": target})
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "gateway.probe", "gateway", trace_id=tracer.new_trace(),
                node=self.name,
                tags={"workload": workload, "target": target},
            )
        self._send_request(route, target, request_id, None, 64, span=span)
        outcome = yield self.env.any_of(
            [waiter, self.env.timeout(timeout, value=None)]
        )
        response = waiter.value if waiter in outcome else None
        self._pending.pop(request_id, None)
        if response is not None:
            self.breaker_for(target).record_success(self.env.now)
            if tracer is not None:
                tracer.end(span, tags={"ok": 1})
            return True
        self.probe_failures_total.inc(labels={"target": target})
        self.breaker_for(target).record_failure(self.env.now)
        if tracer is not None:
            tracer.end(span, tags={"ok": 0})
        return False

    # -- datapath -----------------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        header = packet.headers.get("LambdaHeader")
        if header is None or not header.is_response:
            return
        request_id = header.request_id
        copies = self._mirrored.get(request_id)
        if copies is not None:
            if copies <= 1:
                self._mirrored.pop(request_id, None)
            else:
                self._mirrored[request_id] = copies - 1
        waiter = self._pending.pop(request_id, None)
        if waiter is None:
            if copies is not None:
                # A hedged copy already answered this request: absorb
                # the duplicate so the caller observes exactly one
                # response.
                self.duplicate_responses_total.inc()
                return
            # The waiter was already popped on timeout (or resolved):
            # this response raced its retry and must not vanish
            # silently — it is the signal that the backend is alive
            # but slow, which the monitor wants to see.
            self.late_responses_total.inc()
            return
        if waiter.__class__ is _Call:
            self._answered(waiter, packet)
        else:
            waiter.succeed(packet)  # A health probe's waiter.

    def request(self, workload: str, payload: Any = None,
                payload_bytes: Optional[int] = None,
                deadline: Optional[float] = None) -> Event:
        """One user request through the gateway; returns its event.

        ``deadline`` is an absolute sim time; it is stamped into every
        packet sent for the request so downstream queues can drop
        already-dead work, and the gateway itself gives up (with
        :class:`RequestExpired`) once it passes. With no explicit
        deadline the configured ``OverloadConfig.deadline_seconds``
        (if any) applies.

        The event succeeds with a :class:`RequestOutcome`, or fails
        with :class:`GatewayTimeout` after ``max_retries`` unanswered
        sends (or one of its typed subclasses for shed / expired /
        budget-exhausted outcomes). Each attempt runs as callbacks: the
        proxy slot, the proxy delay and the send, then one timer
        (a hedge timer first where a hedge applies) that
        :meth:`_receive` cancels when the response arrives.
        """
        env = self.env
        done = env.event()
        size = payload_bytes if payload_bytes is not None else (
            len(payload) if isinstance(payload, (bytes, bytearray)) else 64
        )
        ov = self.overload
        if deadline is None and ov is not None and \
                ov.deadline_seconds is not None:
            deadline = env.now + ov.deadline_seconds
        if self._shedder is not None and self._shedder.should_shed():
            # Admission control happens before any queueing or sends:
            # a shed request costs the system nothing downstream.
            self.shed_total.inc(labels={"workload": workload})
            self._fail(workload, "shed")
            tracer = env.tracer
            if tracer is not None:
                tracer.instant("gateway.shed", "gateway",
                               trace_id=tracer.new_trace(), node=self.name,
                               tags={"workload": workload})
            return done.fail(
                RequestShed(f"request to {workload!r} shed under overload"))
        budget = self.retry_budget(workload)
        if budget is not None:
            budget.note_request()
        call = _Call(done, workload, payload, size, deadline, budget)
        hold = self._holds.get(workload)
        if hold is not None and not hold.triggered:
            # A migration drain is in progress: queue behind it. The
            # wait counts toward measured latency (the client is
            # waiting), so draining shows up as a bounded p99 bump.
            self.held_requests_total.inc(labels={"workload": workload})
            call.start = env.now
            hold.callbacks.append(lambda _hold: self._unheld(call))
            return done
        try:
            call.route = self.route_for(workload)
        except KeyError as error:
            return done.fail(error)
        self._begin(call)
        return done

    def _unheld(self, call: "_Call") -> None:
        try:
            call.route = self.route_for(call.workload)
        except KeyError:
            self._give_up(call, GatewayTimeout(
                f"workload {call.workload!r} was undeployed mid-request"))
            return
        self._begin(call)

    def _begin(self, call: "_Call") -> None:
        tracer = self.env.tracer
        if tracer is not None:
            call.root = tracer.begin(
                "gateway.request", "gateway", trace_id=tracer.new_trace(),
                node=self.name, tags={"workload": call.workload},
            )
        self._attempt(call)

    def _attempt(self, call: "_Call") -> None:
        """Queue one attempt for the (serialised) proxy."""
        request_id = call.request_id = next(self._ids)
        self._pending[request_id] = call
        workload = call.workload
        self._outstanding[workload] = self._outstanding.get(workload, 0) + 1
        tracer = self.env.tracer
        if tracer is not None:
            call.proxy_span = tracer.begin(
                "gateway.proxy", "gateway", trace_id=call.root.trace_id,
                parent=call.root, node=self.name,
                tags={"request_id": request_id},
            )
        call.queued_at = self.env.now
        self._proxy.acquire(self._proxy_granted, call)

    def _proxy_granted(self, call: "_Call") -> None:
        now = self.env.now
        if self._shedder is not None:
            # The proxy queue is the gateway's sojourn signal.
            self._shedder.observe(now - call.queued_at, now)
        if call.deadline is not None and now > call.deadline:
            # Dequeue check: the deadline passed while queued behind the
            # proxy — drop instead of sending dead work downstream.
            workload = call.workload
            self._pending.pop(call.request_id, None)
            self._drop_outstanding(workload)
            self.expired_total.inc(labels={"workload": workload})
            tracer = self.env.tracer
            if tracer is not None:
                tracer.end(call.proxy_span, tags={"expired": 1})
            self._give_up(call, RequestExpired(
                f"request to {workload!r} expired in the proxy queue"),
                expired=1, retries=call.retries)
            self._proxy.release()
            return
        # Proxy (NAT / route lookup / header insertion) — serialised.
        self.env.timeout_at(now + self.proxy_seconds, call, self._proxied)

    def _proxied(self, event) -> None:
        call = event._value
        now = self.env.now
        route, workload, request_id = call.route, call.workload, \
            call.request_id
        target = call.target = self._pick_target(route)
        if call.start is None:
            # Latency is measured from the moment the gateway sends the
            # request (paper §6.3.1), not including its own queued
            # proxy time.
            call.start = now
        tracer = self.env.tracer
        if tracer is not None:
            tracer.end(call.proxy_span, tags={"target": target})
        self._send_request(route, target, request_id, call.payload,
                           call.size, span=call.root, deadline=call.deadline)
        wait_timeout = self.request_timeout
        if call.deadline is not None:
            # Waiting past the deadline is pointless: the caller has
            # already given up on this request.
            wait_timeout = min(wait_timeout, max(0.0, call.deadline - now))
        hedge_delay = None
        if call.retries == 0 and len(route.targets) > 1:
            hedge_delay = self._hedge_delay(workload)
        if hedge_delay is not None and hedge_delay < wait_timeout:
            # Tail-at-scale hedging: wait out the configured percentile
            # first, then race a second copy (same request id;
            # _receive absorbs whichever loses).
            call.hedge_wait = wait_timeout - hedge_delay
            call.timer = self.env.timeout_at(now + hedge_delay, call,
                                             self._hedge)
        else:
            call.timer = self.env.timeout_at(now + wait_timeout, call,
                                             self._unanswered)
        self._proxy.release()

    def _hedge(self, event) -> None:
        call = event._value
        budget = call.budget
        if budget is None or budget.withdraw():
            route = call.route
            hedge_target = self._pick_target(route)
            self._register_mirrored(call.request_id, 2)
            self.hedged_requests_total.inc(labels={"workload": call.workload})
            tracer = self.env.tracer
            if tracer is not None:
                tracer.instant(
                    "gateway.hedge", "gateway", trace_id=call.root.trace_id,
                    parent=call.root, node=self.name,
                    tags={"target": hedge_target},
                )
            self._send_request(route, hedge_target, call.request_id,
                               call.payload, call.size, span=call.root,
                               deadline=call.deadline)
        call.timer = self.env.timeout_at(self.env.now + call.hedge_wait, call,
                                         self._unanswered)

    def _answered(self, call: "_Call", response: Packet) -> None:
        """The attempt's response arrived (``_receive`` popped it)."""
        call.timer.cancel()
        call.timer = None
        workload, target = call.workload, call.target
        self._drop_outstanding(workload)
        now = self.env.now
        if target in self._breakers:
            self._breakers[target].record_success(now)
        latency = now - call.start
        self.latency_histogram.observe(latency, labels={"workload": workload})
        self.requests_total.inc(labels={"workload": workload})
        tracer = self.env.tracer
        if tracer is not None:
            tracer.end(call.root, tags={"ok": 1, "target": target,
                                        "retries": call.retries})
        call.done.succeed(
            RequestOutcome(workload, latency, response, True, call.retries))

    def _unanswered(self, event) -> None:
        """The attempt timed out: retry after a backoff, or fail."""
        call = event._value
        call.timer = None
        workload, target, request_id = call.workload, call.target, \
            call.request_id
        self._pending.pop(request_id, None)
        self._drop_outstanding(workload)
        # Forget any hedge copies for the timed-out id: arrivals from
        # here on are late responses, not duplicates.
        self._mirrored.pop(request_id, None)
        now = self.env.now
        tracer = self.env.tracer
        root = call.root
        if call.deadline is not None and now >= call.deadline:
            # The client's deadline passed while waiting: retrying could
            # only produce work nobody wants. The breaker is left alone
            # — the target was never given a full request_timeout to
            # answer.
            self.expired_total.inc(labels={"workload": workload})
            self._give_up(call, RequestExpired(
                f"request to {workload!r} passed its deadline unanswered"),
                expired=1, retries=call.retries)
            return
        self.breaker_for(target).record_failure(now)
        retries = call.retries = call.retries + 1
        self.retries_total.inc(labels={"workload": workload})
        if tracer is not None:
            tracer.instant(
                "gateway.timeout", "gateway", trace_id=root.trace_id,
                parent=root, node=self.name,
                tags={"target": target, "attempt": retries},
            )
        if retries > self.max_retries:
            self._give_up(call, GatewayTimeout(
                f"request to {workload!r} unanswered after "
                f"{retries - 1} retries"), retries=retries)
            return
        budget = call.budget
        if budget is not None and not budget.withdraw():
            # Fail fast: the workload has burned its retry allowance,
            # and piling on more load is exactly how retry storms turn
            # overload into collapse.
            self.retry_budget_exhausted_total.inc(
                labels={"workload": workload}
            )
            self._give_up(call, RetryBudgetExhausted(
                f"request to {workload!r}: retry budget exhausted"),
                retries=retries, budget_exhausted=1)
            return
        if tracer is not None:
            call.backoff_span = tracer.begin(
                "gateway.backoff", "gateway", trace_id=root.trace_id,
                parent=root, node=self.name, tags={"attempt": retries},
            )
        self.env.timeout_at(now + self._backoff_delay(retries), call,
                            self._backed_off)

    def _backed_off(self, event) -> None:
        call = event._value
        tracer = self.env.tracer
        if tracer is not None:
            tracer.end(call.backoff_span)
        # Re-read the route: a failover may have re-pointed the workload
        # (new targets, new wid) while we were backing off.
        try:
            call.route = self.route_for(call.workload)
        except KeyError:
            self._give_up(call, GatewayTimeout(
                f"workload {call.workload!r} was undeployed mid-request"),
                retries=call.retries, undeployed=1)
            return
        self._attempt(call)

    def _give_up(self, call: "_Call", error: GatewayTimeout, **tags) -> None:
        """Fail the request with ``error``, counted under its reason;
        the request's span (if any) ends with ``ok=0`` and ``tags``."""
        self._fail(call.workload, error.reason)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.end(call.root, tags={"ok": 0, **tags})
        call.done.fail(error)

    def _send_request(self, route: Route, target: str, request_id: int,
                      payload: Any, size: int, span=None,
                      deadline: Optional[float] = None) -> None:
        if route.rdma_qp is not None:
            self._send_rdma(route, target, request_id, payload, size,
                            span=span, deadline=deadline)
            return
        packet = Packet(
            src=self.name,
            dst=target,
            headers=HeaderStack([
                EthernetHeader(),
                IPv4Header(src_ip=self.name, dst_ip=target),
                UDPHeader(),
                LambdaHeader(wid=route.wid, request_id=request_id),
            ]),
            payload=payload,
            payload_bytes=size,
        )
        if deadline is not None:
            packet.meta[DEADLINE_META] = self._attempt_deadline(deadline)
        if span is not None:
            Tracer.stamp_packet(packet, span)
        self.node.send(packet)

    def _attempt_deadline(self, deadline: float) -> float:
        """The deadline stamped into one attempt's packets.

        A response is useless to *this* attempt once its waiter times
        out (a retry or hedge carries a fresh stamp), so the backend
        should never work past ``min(overall deadline, now + timeout)``
        — the gRPC-style per-attempt deadline.
        """
        return min(deadline, self.env.now + self.request_timeout)

    def _send_rdma(self, route: Route, target: str, request_id: int,
                   payload: Any, size: int, span=None,
                   deadline: Optional[float] = None) -> None:
        """Segment a large payload into RDMA writes (paper D3): one
        message, sent as one train."""
        meta: Dict[str, Any] = {}
        if deadline is not None:
            meta[DEADLINE_META] = self._attempt_deadline(deadline)
        message = Message(
            self.name, target,
            (EthernetHeader(), IPv4Header(src_ip=self.name, dst_ip=target),
             UDPHeader()),
            route.wid, request_id, route.rdma_qp, size,
            self.rdma_segment_bytes,
            payload=(payload if isinstance(payload, (bytes, bytearray))
                     else None),
            meta=meta,
        )
        if span is not None:
            Tracer.stamp_packet(message, span)
        # Each link, the switch and the NIC take the whole message in
        # one event.
        self.node.send_train(message.segments())
