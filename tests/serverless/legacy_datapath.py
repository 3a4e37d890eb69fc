"""The generator-process request datapath, kept as a test oracle.

``repro`` runs each request through the gateway, the SmartNIC and the
host stack as timeouts plus callbacks over deque-and-counter servers.
These subclasses keep the earlier implementation of the same model, in
which every stage is a generator process: the gateway's ``_request``
races a response waiter against a timeout with ``AnyOf``, the NIC runs
``_serve`` and ``_complete_rdma`` (and each NPU thread's ``execute``)
as processes, and the host runs ``_handle``, ``RequestContext.compute``
and ``HostCPU.execute`` as processes over :class:`Resource` slots (the
generator-facing FIFO pool below, whose grants are events). :func:`legacy_datapath` makes a :class:`~repro.serverless.Testbed`
built inside it use them. ``tests/serverless/test_datapath_differential.py``
drives both with the same random traffic and faults. Only tests import
this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.host import HostCPU, HostServer
from repro.host.params import HostParams
from repro.host.server import RequestContext
from repro.hw import NPUCore, SmartNIC
from repro.hw.nic import PIPELINE_OVERHEAD_CYCLES, VERDICT_DROP, \
    VERDICT_FORWARD, VERDICT_TO_HOST, _dma
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RpcHeader,
    UDPHeader,
)
from repro.net.packet import DEADLINE_META
from repro.obs import Tracer
from repro.serverless import framework
from repro.serverless.gateway import (
    Gateway,
    GatewayTimeout,
    RequestExpired,
    RequestOutcome,
    RequestShed,
    RetryBudgetExhausted,
)
from repro.sim import Environment, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel() if not self.triggered else self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Slots currently held."""
        return len(self.users)

    @property
    def queue(self) -> List[Request]:
        """Requests still waiting (read-only view)."""
        return list(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot (or withdraw a waiting
        request); the oldest waiter's grant is scheduled at once."""
        if request in self.users:
            self.users.remove(request)
        elif request in self._queue:
            # Released before being granted.
            self._queue.remove(request)
        self._trigger_requests()

    def _trigger_requests(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.popleft()
            self.users.append(request)
            request.succeed()


class LegacyGateway(Gateway):
    """``request`` as one process per request over a ``Resource`` proxy."""

    def __init__(self, env, node, *args, proxy_concurrency: int = 1,
                 **kwargs) -> None:
        super().__init__(env, node, *args,
                         proxy_concurrency=proxy_concurrency, **kwargs)
        self._legacy_proxy = Resource(env, capacity=proxy_concurrency)

    def request(self, workload: str, payload: Any = None,
                payload_bytes: Optional[int] = None,
                deadline: Optional[float] = None):
        return self.env.process(
            self._legacy_request(workload, payload, payload_bytes, deadline)
        )

    def _legacy_request(self, workload: str, payload: Any,
                 payload_bytes: Optional[int],
                 deadline: Optional[float] = None):
        size = payload_bytes if payload_bytes is not None else (
            len(payload) if isinstance(payload, (bytes, bytearray)) else 64
        )
        ov = self.overload
        if deadline is None and ov is not None and \
                ov.deadline_seconds is not None:
            deadline = self.env.now + ov.deadline_seconds
        if self._shedder is not None and self._shedder.should_shed():
            # Admission control happens before any queueing or sends:
            # a shed request costs the system nothing downstream.
            self.shed_total.inc(labels={"workload": workload})
            self._fail(workload, "shed")
            tracer = self.env.tracer
            if tracer is not None:
                tracer.instant("gateway.shed", "gateway",
                               trace_id=tracer.new_trace(), node=self.name,
                               tags={"workload": workload})
            raise RequestShed(f"request to {workload!r} shed under overload")
        budget = self.retry_budget(workload)
        if budget is not None:
            budget.note_request()
        retries = 0
        start = None
        hold = self._holds.get(workload)
        if hold is not None and not hold.triggered:
            # A migration drain is in progress: queue behind it. The
            # wait counts toward measured latency (the client is
            # waiting), so draining shows up as a bounded p99 bump.
            self.held_requests_total.inc(labels={"workload": workload})
            start = self.env.now
            yield hold
            try:
                route = self.route_for(workload)
            except KeyError:
                self._fail(workload, "timeout")
                raise GatewayTimeout(
                    f"workload {workload!r} was undeployed mid-request"
                ) from None
        else:
            route = self.route_for(workload)
        tracer = self.env.tracer
        root = None
        if tracer is not None:
            root = tracer.begin(
                "gateway.request", "gateway", trace_id=tracer.new_trace(),
                node=self.name, tags={"workload": workload},
            )
        while True:
            request_id = next(self._ids)
            waiter = self.env.event()
            self._pending[request_id] = waiter
            self._outstanding[workload] = \
                self._outstanding.get(workload, 0) + 1
            proxy_span = None
            if tracer is not None:
                proxy_span = tracer.begin(
                    "gateway.proxy", "gateway", trace_id=root.trace_id,
                    parent=root, node=self.name,
                    tags={"request_id": request_id},
                )
            # Proxy (NAT / route lookup / header insertion) — serialised.
            queued_at = self.env.now
            with self._legacy_proxy.request() as slot:
                yield slot
                if self._shedder is not None:
                    # The proxy queue is the gateway's sojourn signal.
                    self._shedder.observe(self.env.now - queued_at,
                                          self.env.now)
                if deadline is not None and self.env.now > deadline:
                    # Dequeue check: the deadline passed while queued
                    # behind the proxy — drop instead of sending dead
                    # work downstream.
                    self._pending.pop(request_id, None)
                    self._drop_outstanding(workload)
                    self.expired_total.inc(labels={"workload": workload})
                    self._fail(workload, "expired")
                    if tracer is not None:
                        tracer.end(proxy_span, tags={"expired": 1})
                        tracer.end(root, tags={"ok": 0, "expired": 1,
                                               "retries": retries})
                    raise RequestExpired(
                        f"request to {workload!r} expired in the proxy queue"
                    )
                yield self.env.timeout(self.proxy_seconds)
                target = self._pick_target(route)
                if start is None:
                    # Latency is measured from the moment the gateway
                    # sends the request (paper §6.3.1), not including
                    # its own queued proxy time.
                    start = self.env.now
                if tracer is not None:
                    tracer.end(proxy_span, tags={"target": target})
                self._send_request(route, target, request_id, payload, size,
                                   span=root, deadline=deadline)
                mirror = self._mirrors.get(workload)
                if mirror is not None:
                    # Dual-route the same request id to the migration
                    # target; _receive dedups whichever answers second.
                    self._register_mirrored(request_id, 2)
                    self.mirrored_requests_total.inc(
                        labels={"workload": workload}
                    )
                    self._send_request(mirror, mirror.next_target(),
                                       request_id, payload, size, span=root,
                                       deadline=deadline)
            wait_timeout = self.request_timeout
            if deadline is not None:
                # Waiting past the deadline is pointless: the caller
                # has already given up on this request.
                wait_timeout = min(wait_timeout,
                                   max(0.0, deadline - self.env.now))
            hedge_delay = None
            if mirror is None and retries == 0 and len(route.targets) > 1:
                hedge_delay = self._hedge_delay(workload)
            if hedge_delay is not None and hedge_delay < wait_timeout:
                # Tail-at-scale hedging: wait out the configured
                # percentile first, then race a second copy (same
                # request id; _receive absorbs whichever loses).
                outcome = yield self.env.any_of(
                    [waiter, self.env.timeout(hedge_delay, value=None)]
                )
                if not waiter.triggered:
                    if budget is None or budget.withdraw():
                        hedge_target = self._pick_target(route)
                        self._register_mirrored(request_id, 2)
                        self.hedged_requests_total.inc(
                            labels={"workload": workload}
                        )
                        if tracer is not None:
                            tracer.instant(
                                "gateway.hedge", "gateway",
                                trace_id=root.trace_id, parent=root,
                                node=self.name,
                                tags={"target": hedge_target},
                            )
                        self._send_request(route, hedge_target, request_id,
                                           payload, size, span=root,
                                           deadline=deadline)
                    outcome = yield self.env.any_of(
                        [waiter,
                         self.env.timeout(wait_timeout - hedge_delay,
                                          value=None)]
                    )
                response = waiter.value if waiter.triggered else None
            else:
                outcome = yield self.env.any_of(
                    [waiter, self.env.timeout(wait_timeout, value=None)]
                )
                response = waiter.value if waiter in outcome else None
            self._pending.pop(request_id, None)
            self._drop_outstanding(workload)
            if response is not None:
                if target in self._breakers:
                    self._breakers[target].record_success(self.env.now)
                latency = self.env.now - start
                self.latency_histogram.observe(
                    latency, labels={"workload": workload}
                )
                self.requests_total.inc(labels={"workload": workload})
                if tracer is not None:
                    tracer.end(root, tags={"ok": 1, "target": target,
                                           "retries": retries})
                return RequestOutcome(workload, latency, response, True, retries)
            # Forget any mirror copies for the timed-out id: arrivals
            # from here on are late responses, not duplicates.
            self._mirrored.pop(request_id, None)
            if deadline is not None and self.env.now >= deadline:
                # The client's deadline passed while waiting: retrying
                # could only produce work nobody wants. The breaker is
                # left alone — the target was never given a full
                # request_timeout to answer.
                self.expired_total.inc(labels={"workload": workload})
                self._fail(workload, "expired")
                if tracer is not None:
                    tracer.end(root, tags={"ok": 0, "expired": 1,
                                           "retries": retries})
                raise RequestExpired(
                    f"request to {workload!r} passed its deadline unanswered"
                )
            self.breaker_for(target).record_failure(self.env.now)
            retries += 1
            self.retries_total.inc(labels={"workload": workload})
            if tracer is not None:
                tracer.instant(
                    "gateway.timeout", "gateway", trace_id=root.trace_id,
                    parent=root, node=self.name,
                    tags={"target": target, "attempt": retries},
                )
            if retries > self.max_retries:
                self._fail(workload, "timeout")
                if tracer is not None:
                    tracer.end(root, tags={"ok": 0, "retries": retries})
                raise GatewayTimeout(
                    f"request to {workload!r} unanswered after {retries - 1} retries"
                )
            if budget is not None and not budget.withdraw():
                # Fail fast: the workload has burned its retry
                # allowance, and piling on more load is exactly how
                # retry storms turn overload into collapse.
                self.retry_budget_exhausted_total.inc(
                    labels={"workload": workload}
                )
                self._fail(workload, "retry_budget_exhausted")
                if tracer is not None:
                    tracer.end(root, tags={"ok": 0, "retries": retries,
                                           "budget_exhausted": 1})
                raise RetryBudgetExhausted(
                    f"request to {workload!r}: retry budget exhausted"
                )
            backoff_span = None
            if tracer is not None:
                backoff_span = tracer.begin(
                    "gateway.backoff", "gateway", trace_id=root.trace_id,
                    parent=root, node=self.name, tags={"attempt": retries},
                )
            yield self.env.timeout(self._backoff_delay(retries))
            if tracer is not None:
                tracer.end(backoff_span)
            # Re-read the route: a failover may have re-pointed the
            # workload (new targets, new wid) while we were backing off.
            try:
                route = self.route_for(workload)
            except KeyError:
                self._fail(workload, "timeout")
                if tracer is not None:
                    tracer.end(root, tags={"ok": 0, "retries": retries,
                                           "undeployed": 1})
                raise GatewayTimeout(
                    f"workload {workload!r} was undeployed mid-request"
                ) from None


class LegacyNPUCore(NPUCore):
    """``execute`` as a process holding a ``Resource`` thread slot."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.slots = Resource(self.env, capacity=self.threads)

    @property
    def busy_threads(self) -> int:
        return self.slots.count

    @property
    def queue_depth(self) -> int:
        return len(self.slots.queue)

    def execute(self, cycles: int, trace=None, deadline=None,
                on_dequeue=None):
        start = self.env.now
        with self.slots.request() as slot:
            yield slot
            if on_dequeue is not None:
                on_dequeue(self.env.now - start)
            if (deadline is not None
                    and self.env.now + cycles / self.clock_hz > deadline):
                return None
            duration = cycles / self.clock_hz
            yield self.env.timeout(duration)
            self.stats.requests += 1
            self.stats.cycles += cycles
            self.stats.busy_seconds += duration
        tracer = self.env.tracer
        if tracer is not None and trace is not None:
            trace_id, parent_id = trace
            tracer.end(tracer.begin(
                "nic.npu", "nic", trace_id=trace_id, parent=parent_id,
                node=f"island{self.island_id}/core{self.core_id}",
                start=start, tags={"cycles": cycles},
            ))
        return self.env.now - start


class LegacySmartNIC(SmartNIC):
    """``_serve`` and ``_complete_rdma`` as processes on legacy cores."""

    def __init__(self, env, node, *args, **kwargs) -> None:
        super().__init__(env, node, *args, **kwargs)
        self.cores = []
        for island in self.islands:
            for core_id, core in list(island.cores.items()):
                island.cores[core_id] = LegacyNPUCore(
                    env, core.core_id, core.island_id, core.threads,
                    core.clock_hz)
                self.cores.append(island.cores[core_id])

    def _serve(self, packet: Packet,
               extra_meta: Optional[Dict[str, Any]] = None,
               extra_cycles: int = 0, rdma=None) -> None:
        self.env.process(self._legacy_serve(packet, extra_meta, extra_cycles))

    def _complete_rdma(self, ordered, total, last_packet: Packet) -> None:
        self.env.process(self._legacy_complete_rdma(ordered, total,
                                                    last_packet))

    def _legacy_serve(self, packet: Packet, extra_meta: Optional[Dict[str, Any]] = None,
               extra_cycles: int = 0):
        arrival = self.env.now
        tracer = self.env.tracer
        serve_span = None
        if tracer is not None:
            trace_id, parent = Tracer.context(packet)
            if trace_id:
                serve_span = tracer.begin(
                    "nic.serve", "nic", trace_id=trace_id, parent=parent,
                    node=self.name,
                )
        headers = {
            header.name: {
                name: getattr(header, name) for name in header.field_names()
            }
            for header in packet.headers
        }
        meta: Dict[str, Any] = {f"has_{name}": 1 for name in headers}
        meta["ingress_port"] = packet.meta.get("ingress_port", 0)
        if extra_meta:
            meta.update(extra_meta)

        lambda_header = headers.get("LambdaHeader")
        lambda_name = None
        if lambda_header is not None:
            lambda_name = self._wid_to_lambda.get(lambda_header.get("wid"))

        deadline = packet.meta.get(DEADLINE_META)
        # A service-response continuation resumes a request that already
        # paid for its first pass: dropping it now would waste those
        # cycles, so it bypasses the feasibility estimate and the
        # shedder — only provable lateness (here and at dequeue) kills it.
        continuation = bool(extra_meta and extra_meta.get("service_response"))
        if deadline is not None:
            if continuation:
                feasible = self.env.now <= deadline
            else:
                # WCET-aware arrival check: with the verifier's WCET
                # bound even an optimally scheduled execution takes
                # queue_delay + WCET — if that lands past the deadline
                # the work is dead on arrival and is dropped before
                # costing any NPU cycles. The bound is this lambda's
                # own (function-level WCET of the composed firmware),
                # so a heavyweight co-resident lambda does not doom a
                # lightweight one's packets.
                wcet = self.wcet_for(lambda_name)
                feasible_at = (self.env.now + self.queue_delay_estimate()
                               + (wcet if wcet is not None else 0.0))
                feasible = feasible_at <= deadline
            if not feasible:
                self.stats.expired_on_arrival += 1
                self._trace_drop(packet, "expired")
                if serve_span is not None:
                    tracer.end(serve_span, tags={"verdict": "expired"})
                return
        if (self.shedder is not None and not continuation
                and self.shedder.should_shed()):
            self.stats.shed += 1
            self._trace_drop(packet, "shed")
            if serve_span is not None:
                tracer.end(serve_span, tags={"verdict": "shed"})
            return

        if serve_span is not None:
            tracer.instant(
                "nic.parse", "nic", trace_id=serve_span.trace_id,
                parent=serve_span, node=self.name,
                tags={"headers": len(headers)},
            )
        exec_tags: Optional[Dict[str, Any]] = (
            {} if serve_span is not None else None
        )
        result = self._execute(headers, meta, trace_tags=exec_tags)
        cycles = result.cycles + PIPELINE_OVERHEAD_CYCLES + extra_cycles
        if serve_span is not None:
            exec_tags["lambda"] = lambda_name or "<none>"
            tracer.instant(
                "nic.execute", "nic", trace_id=serve_span.trace_id,
                parent=serve_span, node=self.name, tags=exec_tags,
            )

        cores = self.available_cores
        if not cores:
            # Every island is failed: nothing can execute the request.
            self.stats.dropped_nic_down += 1
            if serve_span is not None:
                tracer.end(serve_span, tags={"verdict": "dropped_no_cores"})
            return
        core = self.scheduler.pick_core(cores, lambda_name or "<none>")
        duration = cycles / self.clock_hz
        self._queued_service_seconds += duration

        def dequeued(waited, _duration=duration):
            # Thread granted (or dropped): the work is no longer queued.
            self._queued_service_seconds -= _duration
            if self.shedder is not None:
                self.shedder.observe(waited, self.env.now)

        elapsed = yield self.env.process(core.execute(
            cycles,
            trace=((serve_span.trace_id, serve_span.span_id)
                   if serve_span is not None else None),
            deadline=deadline,
            on_dequeue=dequeued,
        ))
        if elapsed is None:
            # Dequeue check: the deadline passed while queued for an
            # NPU thread — the core dropped the work without charging
            # cycles, so expired requests are never executed.
            self.stats.expired_on_dequeue += 1
            self._trace_drop(packet, "expired_dequeue")
            if serve_span is not None:
                tracer.end(serve_span, tags={"verdict": "expired_dequeue"})
            return
        if deadline is not None and self.env.now > deadline:
            # The in-flight race window: the execution had started (or
            # was committed) before the deadline passed. It is allowed
            # but counted — the overload gates bound this.
            self.stats.expired_completions += 1

        self.stats.total_cycles += cycles
        self.stats.busy_seconds += cycles / self.clock_hz
        if lambda_name is not None:
            self.stats.count_lambda(lambda_name)

        # Outbound service calls emitted by the lambda (kv client -> memcached).
        for emitted in result.emitted:
            dst = emitted.meta.get("emit_dst")
            if not dst:
                continue
            request_id = (lambda_header or {}).get("request_id", 0)
            self._pending_calls[request_id] = packet
            call = Packet(
                src=self.name,
                dst=dst,
                headers=HeaderStack([
                    EthernetHeader(),
                    IPv4Header(src_ip=self.name, dst_ip=dst),
                    UDPHeader(),
                    LambdaHeader(
                        wid=(lambda_header or {}).get("wid", 0),
                        request_id=request_id,
                    ),
                    RpcHeader(
                        method=str(emitted.meta.get("emit_method", "GET")),
                        key=str(emitted.meta.get("emit_key", "")),
                    ),
                ]),
                payload_bytes=int(emitted.meta.get("emit_bytes", 64)),
            )
            # The call outlives this serve pass, so it carries the
            # original (still-open) request context, not the serve span.
            # The deadline rides along too: the eventual response pass
            # is as useless past the deadline as the request itself.
            if deadline is not None:
                call.meta[DEADLINE_META] = deadline
            Tracer.propagate(packet, call)
            self.node.send(call)

        if result.verdict == VERDICT_FORWARD:
            self.stats.requests_served += 1
            self.stats.latencies.append(self.env.now - arrival)
            if serve_span is not None:
                tracer.end(serve_span,
                           tags={"verdict": "forward", "cycles": cycles})
            self._send_response(packet, result)
        elif result.verdict == VERDICT_TO_HOST:
            self.stats.sent_to_host += 1
            if serve_span is not None:
                tracer.end(serve_span,
                           tags={"verdict": "to_host", "cycles": cycles})
            if self.host_handler is not None:
                self.host_handler(packet)
        elif result.verdict == VERDICT_DROP:
            if serve_span is not None:
                tracer.end(serve_span,
                           tags={"verdict": "drop", "cycles": cycles})
        else:
            # Fallthrough without a verdict: treat as host-bound.
            self.stats.sent_to_host += 1
            if serve_span is not None:
                tracer.end(serve_span,
                           tags={"verdict": "to_host", "cycles": cycles})
            if self.host_handler is not None:
                self.host_handler(packet)

    def _legacy_complete_rdma(self, ordered, total, last_packet: Packet):
        binding = self._rdma_bindings.get(
            last_packet.headers.require("RdmaHeader").qp
        )
        reorder_cycles = self._reorder.instructions_for(total)
        tracer = self.env.tracer
        rdma_span = None
        if tracer is not None:
            trace_id, parent = Tracer.context(last_packet)
            if trace_id:
                rdma_span = tracer.begin(
                    "nic.rdma", "nic", trace_id=trace_id, parent=parent,
                    node=self.name,
                    tags={"segments": total,
                          "reorder_cycles": reorder_cycles},
                )
        if binding is None:
            # No binding: punt whole message to host.
            yield self.env.timeout(reorder_cycles / self.clock_hz)
            self.stats.sent_to_host += 1
            if tracer is not None:
                tracer.end(rdma_span, tags={"verdict": "to_host"})
            if self.host_handler is not None:
                self.host_handler(last_packet)
            return
        lambda_name, object_name = binding
        self._state_written()
        total_len = _dma(self._lambda_memory[object_name], ordered)
        # Trigger the lambda with an event RPC (paper D3): the request
        # header dispatches as usual but the data is already in memory.
        yield self.env.process(
            self._legacy_serve(
                last_packet,
                extra_meta={"rdma_len": total_len, "rdma_object": object_name},
                extra_cycles=reorder_cycles,
            )
        )
        if tracer is not None:
            tracer.end(rdma_span, tags={"bytes": total_len})


class _LifoThreadPool:
    """LIFO pool of hardware-thread ids with blocking acquire."""

    def __init__(self, env, n: int) -> None:
        self.env = env
        self._free: List[int] = list(range(n))[::-1]
        self._waiters: list = []

    def acquire(self):
        event = self.env.event()
        if self._free:
            event.succeed(self._free.pop())
        else:
            self._waiters.append(event)
        return event

    def release(self, thread_id: int) -> None:
        if self._waiters:
            self._waiters.pop(0).succeed(thread_id)
        else:
            self._free.append(thread_id)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class LegacyHostCPU(HostCPU):
    """``execute`` as a process over an event-granting thread pool."""

    def __init__(self, env, *args, **kwargs) -> None:
        super().__init__(env, *args, **kwargs)
        self._pool = _LifoThreadPool(env, self.n_threads)

    def execute(self, task_id: str, cpu_seconds: float, trace=None):
        queued_at = self.env.now
        thread_id = yield self._pool.acquire()
        cost = cpu_seconds
        if self._last_task[thread_id] != task_id:
            cost += self.params.context_switch_seconds
            self.stats.context_switches += 1
            self._last_task[thread_id] = task_id
        yield self.env.timeout(cost)
        self.stats.requests += 1
        self.stats.busy_seconds += cost
        self.stats.add_task_busy(task_id, cost)
        tracer = self.env.tracer
        if tracer is not None and trace is not None:
            trace_id, parent_id = trace
            tracer.end(tracer.begin(
                "host.cpu", "host", trace_id=trace_id, parent=parent_id,
                node=f"thread{thread_id}", start=queued_at,
                tags={"task": task_id},
            ))
        self._pool.release(thread_id)
        return cost


class LegacyRequestContext(RequestContext):
    """``compute`` as a process holding the ``Resource`` interpreter lock."""

    def compute(self, cpu_seconds: float, gil: bool = True):
        runtime = self.deployment.runtime
        scaled = cpu_seconds * runtime.compute_multiplier

        def run():
            if gil and self.deployment.compute_lock is not None:
                with self.deployment.compute_lock.request() as lock:
                    yield lock
                    result = yield self.env.process(
                        self.server.cpu.execute(self.deployment.name, scaled,
                                                trace=self.trace)
                    )
            else:
                result = yield self.env.process(
                    self.server.cpu.execute(self.deployment.name, scaled,
                                            trace=self.trace)
                )
            return result

        return self.env.process(run())


class LegacyHostServer(HostServer):
    """``_handle`` as one process per request, with ``Resource`` locks."""

    def __init__(self, env, node, params: Optional[HostParams] = None,
                 cpu: Optional[HostCPU] = None, metrics=None,
                 shedder=None) -> None:
        params = params or HostParams()
        cpu = cpu or LegacyHostCPU(env, params.cpu, metrics=metrics,
                                   node=node.name)
        super().__init__(env, node, params=params, cpu=cpu, metrics=metrics,
                         shedder=shedder)
        #: The new datapath's lock servers -> this oracle's Resources.
        self._legacy_locks: Dict[Any, Resource] = {}

    def deploy(self, name: str, wid: int, handler, runtime,
               code_bytes: int = 1024 * 1024,
               max_workers: Optional[int] = None, warm: bool = True):
        deployment = super().deploy(name, wid, handler, runtime,
                                    code_bytes=code_bytes,
                                    max_workers=max_workers, warm=warm)
        if deployment.semaphore is not None:
            deployment.semaphore = Resource(self.env, capacity=max_workers)
        lock = deployment.compute_lock
        if lock is not None:
            if lock not in self._legacy_locks:
                self._legacy_locks[lock] = Resource(self.env, capacity=1)
            deployment.compute_lock = self._legacy_locks[lock]
        return deployment

    def _handle(self, packet: Packet) -> None:
        self.env.process(self._legacy_handle(packet))

    def _legacy_handle(self, packet: Packet):
        arrival = self.env.now
        epoch = self._epoch
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            trace_id, parent = Tracer.context(packet)
            if trace_id:
                span = tracer.begin("host.handle", "host",
                                    trace_id=trace_id, parent=parent,
                                    node=self.name)
        kernel = self.params.kernel
        yield self.env.timeout(kernel.rx_seconds)
        self.cpu.account("kernel", kernel.cpu_per_packet_seconds)
        if span is not None:
            tracer.end(tracer.begin(
                "host.kernel_rx", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=arrival,
            ))

        header = packet.headers.get("LambdaHeader")
        deployment = self._by_wid.get(header.wid) if header is not None else None
        if deployment is None:
            self.stats.dropped_unknown += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "dropped_unknown"})
            return
        if not deployment.warm:
            self.stats.dropped_cold += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "dropped_cold"})
            return
        deadline = packet.meta.get(DEADLINE_META)
        if deadline is not None and self.env.now > deadline:
            # Kernel-rx dequeue check: the deadline passed before the
            # runtime ever saw the request.
            self.stats.expired += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "expired"})
            return
        if self.shedder is not None and self.shedder.should_shed():
            self.stats.shed += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "shed"})
            return

        # Runtime plumbing: overlay network / dispatch to the lambda.
        # For Python-based runtimes the dispatch path itself runs under
        # the interpreter (request parse, demux), so it is CPU work
        # under the GIL; for a raw runtime it is pure latency.
        ctx = LegacyRequestContext(self, deployment, packet)
        if span is not None:
            ctx.trace = (span.trace_id, span.span_id)
        dispatch_start = self.env.now
        if deployment.runtime.serialize_compute:
            yield ctx.compute(deployment.runtime.dispatch_seconds)
        else:
            yield self.env.timeout(deployment.runtime.dispatch_seconds)
        if deployment.runtime.cpu_overhead_seconds:
            self.cpu.account(
                deployment.name, deployment.runtime.cpu_overhead_seconds
            )
        if span is not None:
            tracer.end(tracer.begin(
                "host.dispatch", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=dispatch_start,
                tags={"runtime": deployment.runtime.name},
            ))
        if self.shedder is not None:
            # The dispatch wait (runtime demux, GIL queueing) is the
            # host's run-queue sojourn signal.
            self.shedder.observe(self.env.now - dispatch_start, self.env.now)
        if deadline is not None and self.env.now > deadline:
            # Run-queue dequeue check: the request aged out while
            # queued for dispatch — drop before running the handler.
            self.stats.expired += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "expired_dispatch"})
            return

        handler_span = None
        if span is not None:
            handler_span = tracer.begin(
                "host.handler", "host", trace_id=span.trace_id,
                parent=span, node=self.name,
                tags={"lambda": deployment.name},
            )
        try:
            if deployment.semaphore is not None:
                with deployment.semaphore.request() as slot:
                    yield slot
                    yield from deployment.handler(ctx)
            else:
                yield from deployment.handler(ctx)
        except Exception:
            # A crashing lambda must not take the worker down: the
            # request is dropped (the client's retry/timeout handles
            # it) and the failure is counted. Exceptions provoked by a
            # machine crash mid-request are the machine's fault, not
            # the handler's, and are not counted against it.
            if epoch == self._epoch:
                self.stats.handler_errors += 1
            if span is not None:
                tracer.end(handler_span, tags={"error": 1})
                tracer.end(span, tags={"verdict": "handler_error"})
            return
        if span is not None:
            tracer.end(handler_span)

        if epoch != self._epoch:
            # The machine crashed while this request was in flight:
            # the response died with it.
            if span is not None:
                tracer.end(span, tags={"verdict": "crashed"})
            return
        if deadline is not None and self.env.now > deadline:
            # In-flight race: the handler had started before the
            # deadline passed. Allowed but counted; the response still
            # goes out (the gateway absorbs it as late).
            self.stats.expired_completions += 1
        tx_start = self.env.now
        yield self.env.timeout(kernel.tx_seconds)
        self.cpu.account("kernel", kernel.cpu_per_packet_seconds)

        self.stats.requests_served += 1
        self.stats.count_lambda(deployment.name)
        self.stats.latencies.append(self.env.now - arrival)
        if span is not None:
            tracer.end(tracer.begin(
                "host.kernel_tx", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=tx_start,
            ))
            tracer.end(span, tags={"verdict": "ok"})
        self._respond(packet, ctx)


@contextmanager
def legacy_datapath():
    """Testbeds built inside use the generator-process datapath."""
    saved = (framework.Gateway, framework.SmartNIC, framework.HostServer)
    framework.Gateway = LegacyGateway
    framework.SmartNIC = LegacySmartNIC
    framework.HostServer = LegacyHostServer
    try:
        yield
    finally:
        framework.Gateway, framework.SmartNIC, framework.HostServer = saved
