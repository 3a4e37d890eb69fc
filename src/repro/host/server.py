"""Host worker node: the container and bare-metal serverless backends.

A :class:`HostServer` attaches to a network node and serves lambda
requests the way the paper's baselines do: kernel network stack in and
out, runtime dispatch overhead (container overlay / bare-metal thread
handoff), then the workload's handler on a CPU hardware thread — paying
context switches whenever distinct lambdas share threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from ..net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RpcHeader,
    UDPHeader,
)
from ..net.network import Node
from ..net.packet import DEADLINE_META
from ..obs import LambdaStats, MetricsRegistry, Tracer
from ..sim import Environment, Event, Server, SimulationError
from .cpu import HostCPU
from .params import HostParams
from .runtime import HostMemory, Runtime

#: Handler protocol: a generator function taking a RequestContext. It
#: yields ``ctx.compute(...)`` requests, which the server runs on a CPU
#: thread, or simulation events (``ctx.call``'s process), which it
#: awaits. Each ``yield`` evaluates to the CPU time charged or to the
#: event's value; a failed event's exception is raised at the ``yield``.
Handler = Callable[["RequestContext"], Generator]


class Compute:
    """A handler's request for CPU time (:meth:`RequestContext.compute`)."""

    __slots__ = ("seconds", "gil")

    def __init__(self, seconds: float, gil: bool) -> None:
        self.seconds = seconds
        self.gil = gil


@dataclass
class Deployment:
    """One workload deployed on this server."""

    name: str
    wid: int
    handler: Handler
    runtime: Runtime
    code_bytes: int = 1024 * 1024
    max_workers: Optional[int] = None
    warm: bool = False
    semaphore: Optional[Server] = None
    #: Interpreter lock (GIL) shared by all requests of this deployment.
    compute_lock: Optional[Server] = None

    @property
    def package_bytes(self) -> int:
        return self.runtime.package_bytes(self.code_bytes)


class ServerStats(LambdaStats):
    """Per-server accounting, backed by a typed metrics registry.

    Counters are plain numbers the registry reads when scraped — see
    :class:`repro.hw.nic.NicStats` for the pattern.
    """

    COUNTERS = (
        ("requests_served", "host_requests_served_total",
         "requests completed by handlers", 0),
        ("responses_sent", "host_responses_sent_total",
         "response packets emitted", 0),
        ("dropped_unknown", "host_dropped_unknown_total",
         "packets for unknown workloads", 0),
        ("dropped_cold", "host_dropped_cold_total",
         "packets hitting cold deployments", 0),
        ("dropped_down", "host_dropped_down_total",
         "packets dropped while crashed", 0),
        ("handler_errors", "host_handler_errors_total",
         "handlers that raised", 0),
        ("crashes", "host_crashes_total",
         "machine crashes", 0),
        ("expired", "host_expired_total",
         "requests dropped: deadline passed before the handler ran", 0),
        ("expired_completions", "host_expired_completions_total",
         "handlers that finished past their deadline (in-flight race)", 0),
        ("shed", "host_shed_total",
         "requests rejected by the host load shedder", 0),
    )

    LATENCY_METRIC = ("host_latency_seconds", "arrival-to-response latency")
    PER_LAMBDA_METRIC = ("host_lambda_requests_total",
                         "requests served per lambda")


class RequestContext:
    """What a workload handler gets to interact with the world."""

    def __init__(self, server: "HostServer", deployment: Deployment,
                 request: Packet) -> None:
        self.server = server
        self.env = server.env
        self.deployment = deployment
        self.request = request
        self.response_bytes = 64
        self.response_meta: Dict[str, Any] = {}
        #: (trace_id, parent_span_id) of the server's handle span, set
        #: by the server when tracing is on.
        self.trace = None

    @property
    def request_id(self) -> int:
        header = self.request.headers.get("LambdaHeader")
        return header.request_id if header else 0

    def compute(self, cpu_seconds: float, gil: bool = True) -> Compute:
        """Occupy a CPU hardware thread for ``cpu_seconds`` of work.

        The runtime's compute multiplier is applied, and if the runtime
        serialises compute (Python GIL), the deployment-wide interpreter
        lock is held for the duration. Pass ``gil=False`` for work done
        inside vectorised libraries that release the GIL (e.g. numpy
        pixel kernels) — such work runs in parallel across threads.
        The handler yields the returned request; the server runs it with
        :meth:`run`, and the ``yield`` evaluates to the CPU time charged.
        """
        return Compute(cpu_seconds, gil)

    def run(self, cpu_seconds: float, then: Callable[[float], None],
            gil: bool = True) -> None:
        """Run :meth:`compute`'s work: the interpreter lock (if any),
        then a CPU thread, then ``then(cost)`` once both are
        released."""
        scaled = cpu_seconds * self.deployment.runtime.compute_multiplier
        lock = self.deployment.compute_lock
        if gil and lock is not None:
            lock.acquire(self._locked, (lock, scaled, then))
        else:
            self.server.cpu.run(self.deployment.name, scaled, then,
                                trace=self.trace)

    def _locked(self, job: tuple) -> None:
        lock, scaled, then = job

        def unlock(cost: float) -> None:
            lock.release()
            then(cost)

        self.server.cpu.run(self.deployment.name, scaled, unlock,
                            trace=self.trace)

    def call(self, dst: str, method: str = "GET", key: str = "",
             request_bytes: int = 64, timeout: float = 0.05, retries: int = 3):
        """RPC to an external service; returns the response packet."""
        return self.env.process(
            self.server.call_service(
                dst, method=method, key=key, request_bytes=request_bytes,
                timeout=timeout, retries=retries, trace=self.trace,
            )
        )


class _Handling:
    """One request's state between the host stack's stages."""

    __slots__ = ("packet", "arrival", "epoch", "span", "deadline", "ctx",
                 "dispatch_start", "handler_span", "handler", "tx_start")

    def __init__(self, packet: Packet, arrival: float, epoch: int) -> None:
        self.packet = packet
        self.arrival = arrival
        self.epoch = epoch
        self.span = None
        self.deadline = None
        self.ctx: Optional[RequestContext] = None
        self.dispatch_start = arrival
        self.handler_span = None
        #: The workload's handler generator, once it runs.
        self.handler: Optional[Generator] = None
        self.tx_start = arrival


class ServiceTimeout(Exception):
    """An external service call exhausted its retries."""


class HostServer:
    """A worker node running container or bare-metal backends."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        params: Optional[HostParams] = None,
        cpu: Optional[HostCPU] = None,
        metrics: Optional[MetricsRegistry] = None,
        shedder=None,
    ) -> None:
        self.env = env
        self.node = node
        self.name = node.name
        self.params = params or HostParams()
        self.cpu = cpu or HostCPU(env, self.params.cpu, metrics=metrics,
                                  node=self.name)
        self.memory = HostMemory()
        self.stats = ServerStats(registry=metrics, node=self.name)
        #: Optional per-server load shedder (CoDel-style): fed the
        #: runtime-dispatch wait on every request, consulted at arrival.
        self.shedder = shedder
        #: False after :meth:`crash`: inbound packets are dropped and
        #: in-flight handlers die silently until :meth:`restart`.
        self.online = True
        self._epoch = 0
        self._deployments: Dict[str, Deployment] = {}
        self._by_wid: Dict[int, Deployment] = {}
        self._shared_locks: Dict[str, Server] = {}
        self._pending: Dict[int, Any] = {}
        self._call_ids = itertools.count(1_000_000)
        node.attach(self.receive)

    # -- deployment -----------------------------------------------------------

    def deploy(
        self,
        name: str,
        wid: int,
        handler: Handler,
        runtime: Runtime,
        code_bytes: int = 1024 * 1024,
        max_workers: Optional[int] = None,
        warm: bool = True,
    ) -> Deployment:
        """Install a workload; with ``warm=False`` it must be started."""
        if name in self._deployments:
            raise ValueError(f"workload {name!r} already deployed")
        if wid in self._by_wid:
            raise ValueError(f"wid {wid} already in use")
        deployment = Deployment(
            name=name, wid=wid, handler=handler, runtime=runtime,
            code_bytes=code_bytes, max_workers=max_workers, warm=warm,
        )
        if max_workers is not None:
            deployment.semaphore = Server(max_workers)
        if runtime.serialize_compute:
            if runtime.shared_interpreter:
                # One interpreter process hosts every workload of this
                # runtime on this server: one GIL for all of them.
                lock = self._shared_locks.get(runtime.name)
                if lock is None:
                    lock = Server(1)
                    self._shared_locks[runtime.name] = lock
                deployment.compute_lock = lock
            else:
                deployment.compute_lock = Server(1)
        self.memory.allocate(runtime.memory_overhead_bytes)
        self._deployments[name] = deployment
        self._by_wid[wid] = deployment
        return deployment

    def start(self, name: str):
        """Process: cold-start a deployment (download + boot)."""
        deployment = self._deployments[name]

        def starter():
            yield self.env.timeout(
                deployment.runtime.startup_seconds(deployment.package_bytes)
            )
            deployment.warm = True
            return deployment

        return self.env.process(starter())

    def undeploy(self, name: str) -> None:
        deployment = self._deployments.pop(name)
        del self._by_wid[deployment.wid]
        self.memory.free(deployment.runtime.memory_overhead_bytes)

    # -- failure injection -----------------------------------------------------

    def crash(self) -> None:
        """Kill the worker: drop inbound traffic, kill in-flight work.

        Deployments stay installed but go cold (their processes died
        with the machine); :meth:`restart` must re-boot them before the
        server serves again.
        """
        self.online = False
        self._epoch += 1
        self.stats.crashes += 1
        for deployment in self._deployments.values():
            deployment.warm = False
        # Outstanding service-call waiters died with their handlers.
        self._pending.clear()
        if self.env.tracer is not None:
            self.env.tracer.instant("host.crash", "fault", node=self.name)

    def restart(self, reboot_seconds: float = 1.0):
        """Process: power the machine back on and re-warm deployments."""

        def rebooter():
            yield self.env.timeout(reboot_seconds)
            self.online = True
            if self.env.tracer is not None:
                self.env.tracer.instant("host.restart", "fault",
                                        node=self.name)
            starts = [self.start(name) for name in sorted(self._deployments)]
            if starts:
                yield self.env.all_of(starts)
            return self

        return self.env.process(rebooter())

    # -- datapath --------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if not self.online:
            self.stats.dropped_down += 1
            tracer = self.env.tracer
            if tracer is not None:
                trace_id, parent = Tracer.context(packet)
                if trace_id:
                    tracer.instant("host.drop", "host", trace_id=trace_id,
                                   parent=parent, node=self.name,
                                   tags={"reason": "host_down"})
            return
        header = packet.headers.get("LambdaHeader")
        if header is not None and header.is_response and \
                header.request_id in self._pending:
            self._pending.pop(header.request_id).succeed(packet)
            return
        self._handle(packet)

    def _handle(self, packet: Packet) -> None:
        """Start one request: the kernel's receive path, then
        :meth:`_received`."""
        h = _Handling(packet, self.env.now, self._epoch)
        tracer = self.env.tracer
        if tracer is not None:
            trace_id, parent = Tracer.context(packet)
            if trace_id:
                h.span = tracer.begin("host.handle", "host",
                                      trace_id=trace_id, parent=parent,
                                      node=self.name)
        self.env.timeout_at(h.arrival + self.params.kernel.rx_seconds, h,
                            self._received)

    def _received(self, event) -> None:
        h = event._value
        packet, span = h.packet, h.span
        tracer = self.env.tracer
        kernel = self.params.kernel
        self.cpu.account("kernel", kernel.cpu_per_packet_seconds)
        if span is not None:
            tracer.end(tracer.begin(
                "host.kernel_rx", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=h.arrival,
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
        deadline = h.deadline = packet.meta.get(DEADLINE_META)
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
        ctx = h.ctx = RequestContext(self, deployment, packet)
        if span is not None:
            ctx.trace = (span.trace_id, span.span_id)
        h.dispatch_start = self.env.now
        if deployment.runtime.serialize_compute:
            ctx.run(deployment.runtime.dispatch_seconds,
                    lambda _cost: self._dispatched(h))
        else:
            self.env.timeout_at(
                h.dispatch_start + deployment.runtime.dispatch_seconds, h,
                lambda timeout: self._dispatched(timeout._value))

    def _dispatched(self, h: "_Handling") -> None:
        span, ctx, deadline = h.span, h.ctx, h.deadline
        deployment = ctx.deployment
        tracer = self.env.tracer
        if deployment.runtime.cpu_overhead_seconds:
            self.cpu.account(
                deployment.name, deployment.runtime.cpu_overhead_seconds
            )
        if span is not None:
            tracer.end(tracer.begin(
                "host.dispatch", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=h.dispatch_start,
                tags={"runtime": deployment.runtime.name},
            ))
        if self.shedder is not None:
            # The dispatch wait (runtime demux, GIL queueing) is the
            # host's run-queue sojourn signal.
            self.shedder.observe(self.env.now - h.dispatch_start,
                                 self.env.now)
        if deadline is not None and self.env.now > deadline:
            # Run-queue dequeue check: the request aged out while
            # queued for dispatch — drop before running the handler.
            self.stats.expired += 1
            if span is not None:
                tracer.end(span, tags={"verdict": "expired_dispatch"})
            return

        if span is not None:
            h.handler_span = tracer.begin(
                "host.handler", "host", trace_id=span.trace_id,
                parent=span, node=self.name,
                tags={"lambda": deployment.name},
            )
        if deployment.semaphore is not None:
            deployment.semaphore.acquire(self._run_handler, h)
        else:
            self._run_handler(h)

    def _run_handler(self, h: "_Handling") -> None:
        """Start the workload's handler generator; :meth:`_drive` runs
        it with no process of its own."""
        h.handler = h.ctx.deployment.handler(h.ctx)
        self._drive(h, True, None)

    def _drive(self, h: "_Handling", ok: bool, value: Any) -> None:
        """Resume ``h``'s handler with ``value`` (or, if not ``ok``,
        raise ``value`` at its ``yield``) and start what it yields
        next: a compute request on the CPU, or a wait on an event's
        callbacks."""
        try:
            step = h.handler.send(value) if ok else h.handler.throw(value)
        except StopIteration:
            self._handled(h, None)
            return
        except BaseException as error:
            self._handled(h, error)
            return
        if step.__class__ is Compute:
            h.ctx.run(step.seconds, lambda cost: self._drive(h, True, cost),
                      step.gil)
        elif not isinstance(step, Event):
            self._handled(h, SimulationError(
                f"handler yielded an invalid target {step!r}"))
        elif step.callbacks is None:
            # Already processed: resume at once with its outcome.
            self._woken(h, step)
        else:
            step.callbacks.append(lambda event: self._woken(h, event))

    def _woken(self, h: "_Handling", event: Event) -> None:
        if not event._ok:
            event.defused = True
        self._drive(h, event._ok, event._value)

    def _handled(self, h: "_Handling",
                 error: Optional[BaseException]) -> None:
        span, deployment = h.span, h.ctx.deployment
        tracer = self.env.tracer
        if deployment.semaphore is not None:
            deployment.semaphore.release()
        if error is not None:
            if not isinstance(error, Exception):
                raise error  # Not the handler's to contain.
            # A crashing lambda must not take the worker down: the
            # request is dropped (the client's retry/timeout handles
            # it) and the failure is counted. Exceptions provoked by a
            # machine crash mid-request are the machine's fault, not
            # the handler's, and are not counted against it.
            if h.epoch == self._epoch:
                self.stats.handler_errors += 1
            if span is not None:
                tracer.end(h.handler_span, tags={"error": 1})
                tracer.end(span, tags={"verdict": "handler_error"})
            return
        if span is not None:
            tracer.end(h.handler_span)

        if h.epoch != self._epoch:
            # The machine crashed while this request was in flight:
            # the response died with it.
            if span is not None:
                tracer.end(span, tags={"verdict": "crashed"})
            return
        if h.deadline is not None and self.env.now > h.deadline:
            # In-flight race: the handler had started before the
            # deadline passed. Allowed but counted; the response still
            # goes out (the gateway absorbs it as late).
            self.stats.expired_completions += 1
        h.tx_start = self.env.now
        self.env.timeout_at(h.tx_start + self.params.kernel.tx_seconds, h,
                            self._sent)

    def _sent(self, event) -> None:
        h = event._value
        span = h.span
        self.cpu.account("kernel", self.params.kernel.cpu_per_packet_seconds)
        self.stats.requests_served += 1
        self.stats.count_lambda(h.ctx.deployment.name)
        self.stats.latencies.append(self.env.now - h.arrival)
        if span is not None:
            tracer = self.env.tracer
            tracer.end(tracer.begin(
                "host.kernel_tx", "host", trace_id=span.trace_id,
                parent=span, node=self.name, start=h.tx_start,
            ))
            tracer.end(span, tags={"verdict": "ok"})
        self._respond(h.packet, h.ctx)

    def _respond(self, request: Packet, ctx: RequestContext) -> None:
        headers = request.headers.copy()
        header = headers.get("LambdaHeader")
        if header is not None:
            header.is_response = True
        response = Packet(
            src=self.name,
            dst=request.src,
            headers=headers,
            payload_bytes=ctx.response_bytes,
            meta={"lambda_meta": dict(ctx.response_meta)},
        )
        Tracer.propagate(request, response)
        self.stats.responses_sent += 1
        self.node.send(response)

    # -- outbound service calls --------------------------------------------------

    def call_service(self, dst: str, method: str = "GET", key: str = "",
                     request_bytes: int = 64, timeout: float = 0.05,
                     retries: int = 3, trace=None):
        """Process: RPC with sender-side tracking and retransmission.

        The weakly-consistent delivery semantic of the paper (§4.2.1-D3):
        the sender tracks outstanding RPCs and retransmits on timeout.
        """
        kernel = self.params.kernel
        call_id = next(self._call_ids)
        attempt = 0
        tracer = self.env.tracer
        call_span = None
        if tracer is not None and trace is not None:
            trace_id, parent_id = trace
            call_span = tracer.begin(
                "host.call", "host", trace_id=trace_id, parent=parent_id,
                node=self.name, tags={"dst": dst, "method": method},
            )
        while True:
            attempt += 1
            waiter = self.env.event()
            self._pending[call_id] = waiter
            yield self.env.timeout(kernel.tx_seconds)
            call = Packet(
                src=self.name,
                dst=dst,
                headers=HeaderStack([
                    EthernetHeader(),
                    IPv4Header(src_ip=self.name, dst_ip=dst),
                    UDPHeader(),
                    LambdaHeader(request_id=call_id),
                    RpcHeader(method=method, key=key),
                ]),
                payload_bytes=request_bytes,
            )
            if call_span is not None:
                Tracer.stamp_packet(call, call_span)
            self.node.send(call)
            result = yield self.env.any_of(
                [waiter, self.env.timeout(timeout, value="timeout")]
            )
            response = None
            for event in result.events:
                if event is waiter:
                    response = waiter.value
            if response is not None:
                yield self.env.timeout(kernel.rx_seconds)
                if call_span is not None:
                    tracer.end(call_span, tags={"ok": 1, "attempts": attempt})
                return response
            self._pending.pop(call_id, None)
            if attempt > retries:
                if call_span is not None:
                    tracer.end(call_span, tags={"ok": 0, "attempts": attempt})
                raise ServiceTimeout(
                    f"{dst!r} did not answer after {retries} retries"
                )
