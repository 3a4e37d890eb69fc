"""The λ-NIC SmartNIC: firmware execution, dispatch, RDMA, swap.

A :class:`SmartNIC` attaches to a network node and serves lambda
requests entirely on-NIC: packets are parsed, matched on the lambda ID
header, and executed run-to-completion on an NPU thread; responses go
straight back out the wire without host involvement (paper §4/§5).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..compiler import Firmware
from ..isa import (
    Interpreter,
    JitInterpreter,
    Region,
    VERDICT_DROP,
    VERDICT_FORWARD,
    VERDICT_TO_HOST,
)
from ..net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RdmaHeader,
    RpcHeader,
    UDPHeader,
)
from ..net.network import Node
from ..net.packet import DEADLINE_META
from ..obs import CounterAttribute, MetricsRegistry, Tracer
from ..sim import Environment
from ..transport import ReorderBuffer
from .memo import ExecutionMemoCache, make_key
from .memory import NicMemory
from .npu import Island, NPUCore
from .scheduler import Scheduler, UniformRandomScheduler

#: Fixed ingress/egress pipeline cost (MAC, DMA into CTM, egress DMA)
#: charged once per request, in NPU cycles.
PIPELINE_OVERHEAD_CYCLES = 300

#: Paper footnote 3: reordering four 100 B packets takes 120
#: instructions, i.e. 30 per segment.
REORDER_CYCLES_PER_SEGMENT = 30

#: Execution-engine tiers: the reference interpreter (the executable
#: specification) and the JIT. Both are cycle-exact and
#: verdict-identical (differentially proven); they only differ in host
#: wall-clock speed. "jit" transparently degrades to the interpreter
#: for programs it cannot lower.
ENGINE_TIERS = ("interpreter", "jit")


class NicStats:
    """Per-NIC accounting, backed by a typed metrics registry.

    Attribute-compatible with the dataclass it replaces: counters read
    and ``+=`` like plain ints/floats (:class:`CounterAttribute`),
    ``latencies`` is the live observation list of a registry histogram,
    and ``per_lambda_requests`` is a dict view over a labelled counter
    (writers use :meth:`count_lambda`). Passing a shared registry plus
    a ``node`` label folds many NICs into one scrape surface.
    """

    requests_served = CounterAttribute(
        "nic_requests_served_total", "requests answered on-NIC")
    responses_sent = CounterAttribute(
        "nic_responses_sent_total", "response packets emitted")
    sent_to_host = CounterAttribute(
        "nic_sent_to_host_total", "requests punted to the host CPU")
    dropped_no_firmware = CounterAttribute(
        "nic_dropped_no_firmware_total", "packets dropped: no firmware")
    dropped_during_swap = CounterAttribute(
        "nic_dropped_during_swap_total", "packets dropped mid-swap")
    dropped_nic_down = CounterAttribute(
        "nic_dropped_down_total", "packets dropped: NIC dark or coreless")
    rdma_segments = CounterAttribute(
        "nic_rdma_segments_total", "RDMA segments received")
    rdma_messages = CounterAttribute(
        "nic_rdma_messages_total", "RDMA messages reassembled")
    total_cycles = CounterAttribute(
        "nic_cycles_total", "NPU cycles charged")
    busy_seconds = CounterAttribute(
        "nic_busy_seconds_total", "NPU busy time", cast=float)
    firmware_swaps = CounterAttribute(
        "nic_firmware_swaps_total", "firmware installs")
    swap_downtime_seconds = CounterAttribute(
        "nic_swap_downtime_seconds_total", "time spent dark in swaps",
        cast=float)
    expired_on_arrival = CounterAttribute(
        "nic_expired_arrivals_total",
        "requests dropped on arrival: deadline unreachable (WCET-aware)")
    expired_on_dequeue = CounterAttribute(
        "nic_expired_dequeued_total",
        "requests dropped at the NPU thread grant: deadline passed")
    expired_completions = CounterAttribute(
        "nic_expired_completions_total",
        "executions that finished past their deadline (in-flight race)")
    shed = CounterAttribute(
        "nic_shed_total", "requests rejected by the NIC load shedder")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 node: str = "") -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = {"node": node} if node else None
        self._latency_histogram = self.registry.histogram(
            "nic_latency_seconds", "on-NIC serve latency")
        self._per_lambda = self.registry.counter(
            "nic_lambda_requests_total", "requests served per lambda")
        # Engine compile-cache statistics, per tier. The counters live
        # on the engine objects (CompileCacheStats); these gauges mirror
        # the current totals into the registry so tier behaviour —
        # including JIT lowering fallbacks — is observable in scrapes.
        self._compile_hits = self.registry.gauge(
            "nic_compile_cache_hits", "compile-cache hits per engine tier")
        self._compile_misses = self.registry.gauge(
            "nic_compile_cache_misses",
            "compile-cache misses (compilations) per engine tier")
        self._compile_fallbacks = self.registry.gauge(
            "nic_compile_cache_fallbacks",
            "programs an engine tier could not lower")

    def record_compile_stats(self, tier: str, stats) -> None:
        """Mirror one engine tier's CompileCacheStats into the registry."""
        labels = dict(self.labels or {})
        labels["tier"] = tier
        self._compile_hits.set(float(stats.hits), labels)
        self._compile_misses.set(float(stats.misses), labels)
        self._compile_fallbacks.set(float(stats.fallbacks), labels)

    def compile_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier compile-cache totals as plain dicts (tests/REPL)."""
        node = (self.labels or {}).get("node")
        out: Dict[str, Dict[str, int]] = {}
        for gauge, field in ((self._compile_hits, "hits"),
                             (self._compile_misses, "misses"),
                             (self._compile_fallbacks, "fallbacks")):
            for labels, value in gauge.items():
                if node is not None and labels.get("node") != node:
                    continue
                out.setdefault(labels["tier"], {})[field] = int(value)
        return out

    @property
    def latencies(self) -> List[float]:
        """Live latency list (a histogram view; appends flow through)."""
        return self._latency_histogram.raw(self.labels)

    def count_lambda(self, name: str) -> None:
        labels = dict(self.labels or {})
        labels["lambda"] = name
        self._per_lambda.inc(labels=labels)

    @property
    def per_lambda_requests(self) -> Dict[str, int]:
        node = (self.labels or {}).get("node")
        out: Dict[str, int] = {}
        for labels, value in self._per_lambda.items():
            if node is not None and labels.get("node") != node:
                continue
            out[labels["lambda"]] = int(value)
        return out


class SmartNIC:
    """An ASIC-based SmartNIC in the style of the Netronome Agilio CX.

    Parameters mirror the paper's testbed NIC: 56 cores x 8 threads at
    633 MHz with 2 GiB of on-board memory.
    """

    def __init__(
        self,
        env: Environment,
        node: Node,
        n_cores: int = 56,
        threads_per_core: int = 8,
        clock_hz: float = 633e6,
        cores_per_island: int = 8,
        scheduler: Optional[Scheduler] = None,
        host_handler: Optional[Callable[[Packet], None]] = None,
        rng=None,
        firmware_swap_seconds: float = 2.0,
        enable_memo: bool = True,
        memo_entries: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        engine: str = "jit",
        shedder=None,
    ) -> None:
        if scheduler is None:
            if rng is None:
                raise ValueError("UniformRandomScheduler requires an rng")
            scheduler = UniformRandomScheduler(rng)
        self.env = env
        self.node = node
        self.name = node.name
        self.clock_hz = clock_hz
        self.scheduler = scheduler
        self.host_handler = host_handler
        self.firmware_swap_seconds = firmware_swap_seconds
        self.memory = NicMemory()
        self.stats = NicStats(registry=metrics, node=self.name)
        #: Optional per-NIC load shedder (CoDel-style): fed the NPU
        #: thread-grant wait on every dispatch, consulted at arrival.
        self.shedder = shedder
        #: Verifier WCET of the installed firmware at this NIC's clock,
        #: cached at install time; powers the arrival-time deadline
        #: feasibility check. None when the firmware ships no report.
        self._wcet_seconds: Optional[float] = None
        #: Per-lambda WCET (seconds) from the composed firmware's
        #: function-level verifier bounds.
        self._lambda_wcet: Dict[str, float] = {}
        #: Service-seconds sitting in NPU run queues right now (cycle
        #: counts are known at dispatch, so this tally is exact).
        self._queued_service_seconds = 0.0
        if engine not in ENGINE_TIERS:
            raise ValueError(
                f"unknown engine {engine!r} (choose from {ENGINE_TIERS})"
            )
        self.engine_tier = engine
        #: The execution engine: "jit" compiles each lambda to Python
        #: source (falling back to the interpreter per program) and is
        #: cycle- and result-identical to the reference "interpreter"
        #: (proved by tests/isa/test_jit.py).
        self.engine = (JitInterpreter(clock_hz=clock_hz) if engine == "jit"
                       else Interpreter(clock_hz=clock_hz))
        #: Result memoization is only sound with the JIT, which reports
        #: whether an execution wrote persistent memory.
        self.memo: Optional[ExecutionMemoCache] = (
            ExecutionMemoCache(memo_entries)
            if (engine == "jit" and enable_memo) else None
        )

        self.islands: List[Island] = []
        self.cores: List[NPUCore] = []
        for core_id in range(n_cores):
            island_id = core_id // cores_per_island
            if island_id >= len(self.islands):
                self.islands.append(Island(island_id))
            core = NPUCore(env, core_id, island_id, threads_per_core, clock_hz)
            self.islands[island_id].add_core(core)
            self.cores.append(core)

        #: False after :meth:`fail`: the whole NIC is dark (power loss,
        #: PCIe fault) and drops every packet until :meth:`restore`.
        self.online = True
        self.firmware: Optional[Firmware] = None
        self._wid_to_lambda: Dict[int, str] = {}
        self._lambda_memory: Dict[str, bytearray] = {}
        #: Monotone persistent-state version: bumped by every write to
        #: lambda memory (impure executions, RDMA DMA, firmware
        #: installs, direct access). Live migration exports state at an
        #: epoch and re-checks it after the transfer — an unchanged
        #: epoch proves the snapshot is still current (the fence).
        self.state_epoch = 0
        self._swapping = False
        #: RDMA queue-pair bindings: qp -> (lambda name, object name).
        self._rdma_bindings: Dict[int, Tuple[str, str]] = {}
        #: In-flight multi-packet messages, reordered on the NIC (fn. 3).
        self._reorder = ReorderBuffer()
        #: Outstanding service calls (e.g. to memcached): the original
        #: client request, resumed when the service responds (§4.2.1-D3,
        #: "an event RPC triggers the lambda").
        self._pending_calls: Dict[int, Packet] = {}

        node.attach(self.receive)

    # -- firmware management -------------------------------------------------

    def load_firmware(self, firmware: Firmware, swap: bool = True,
                      hitless: bool = False):
        """Process: flash new firmware.

        With ``hitless=True`` (the partial-reconfiguration/versioning
        capability the paper expects from next-generation NICs, §7) the
        old firmware keeps serving during the flash and no packets are
        dropped; otherwise the swap window drops traffic.
        """
        def loader():
            if swap and self.firmware is not None and not hitless:
                self._swapping = True
                started = self.env.now
                yield self.env.timeout(self.firmware_swap_seconds)
                self.stats.swap_downtime_seconds += self.env.now - started
                self._swapping = False
            elif swap:
                yield self.env.timeout(self.firmware_swap_seconds)
            self._install(firmware)
            self.stats.firmware_swaps += 1
            return firmware

        return self.env.process(loader())

    def install_firmware(self, firmware: Firmware) -> None:
        """Install instantly (used by tests and cold deployments)."""
        self._install(firmware)
        self.stats.firmware_swaps += 1

    def _install(self, firmware: Firmware) -> None:
        if self.firmware is not None:
            self.memory.reset()
        program = firmware.program
        # Account code + static data into NIC memory.
        self.memory.allocate(Region.IMEM, min(
            firmware.code_bytes, self.memory.capacities[Region.IMEM]))
        for obj in program.objects.values():
            self.memory.allocate(obj.region, obj.size_bytes)
        self.firmware = firmware
        self._wid_to_lambda = {
            wid: name for name, wid in firmware.lambda_ids.items()
        }
        report = firmware.verifier_report
        self._wcet_seconds = (
            report.wcet_seconds(self.clock_hz)
            if report is not None and report.wcet_cycles is not None
            else None
        )
        # Per-lambda WCET at this NIC's clock: each lambda's entry is a
        # function of the composed program, so the verifier's
        # function-level bounds give a per-lambda figure that the
        # whole-firmware bound (the max across lambdas) would smear.
        self._lambda_wcet = {}
        if report is not None:
            for name in firmware.lambda_ids:
                cycles = report.function_wcet.get(name)
                if cycles is not None:
                    self._lambda_wcet[name] = cycles / self.clock_hz
        # Persistent global objects (state persists across runs, §4.1).
        self._lambda_memory = {
            obj.name: bytearray(obj.size_bytes)
            for obj in program.objects.values()
        }
        self._state_written()

    def bind_rdma(self, qp: int, lambda_name: str, object_name: str,
                  buffer_pool: int = 1) -> None:
        """Bind an RDMA queue pair to a lambda's memory object.

        ``buffer_pool`` models per-thread staging buffers for concurrent
        multi-packet messages: the extra copies are accounted in EMEM
        (this is where the image workload's ~60 MiB of NIC memory in
        Table 3 comes from). Functionally a single buffer is kept.
        """
        if self.firmware is None:
            raise RuntimeError("no firmware loaded")
        if object_name not in self._lambda_memory:
            raise KeyError(f"firmware has no object {object_name!r}")
        if buffer_pool > 1:
            size = len(self._lambda_memory[object_name])
            self.memory.allocate(Region.EMEM, (buffer_pool - 1) * size)
        self._rdma_bindings[qp] = (lambda_name, object_name)

    def lambda_memory(self, object_name: str) -> bytearray:
        """Direct access to a persistent object (tests/inspection).

        The returned bytearray is mutable, so this counts as a
        potential write for the memo cache.
        """
        data = self._lambda_memory[object_name]
        self._state_written()
        return data

    def _state_written(self) -> None:
        """Every persistent-memory write funnels through here: bump
        the migration epoch fence and drop memoised results."""
        self.state_epoch += 1
        if self.memo is not None:
            self.memo.invalidate()

    # -- live-migration state transfer ----------------------------------------

    def export_lambda_state(self, workload: str) -> \
            Optional[Tuple[int, Dict[str, bytes]]]:
        """Snapshot one lambda's persistent memory objects.

        Returns ``(epoch, {qualified_name: bytes})`` — the epoch is the
        NIC-wide :attr:`state_epoch` at snapshot time; the migration
        controller re-reads it after shipping the bytes and retries if
        anything wrote in between. Returns ``None`` when the NIC is
        dark (an offline NIC's DRAM cannot be read over PCIe) or has no
        firmware.
        """
        if not self.online or self.firmware is None:
            return None
        prefix = workload + "."
        objects = {
            name: bytes(data)
            for name, data in self._lambda_memory.items()
            if name.startswith(prefix)
        }
        return (self.state_epoch, objects)

    def import_lambda_state(self, workload: str,
                            objects: Dict[str, bytes]) -> int:
        """Install exported persistent state for ``workload``.

        Only objects the resident firmware actually declares are
        written (truncated to their declared size); unknown names are
        ignored so firmware-version skew degrades to a partial import,
        not corruption. Returns bytes written. The import is a fence:
        it bumps :attr:`state_epoch` and flushes the memo cache.
        """
        if not self.online:
            raise RuntimeError(f"{self.name} cannot import state while dark")
        if self.firmware is None:
            raise RuntimeError(f"{self.name} has no firmware to import into")
        written = 0
        for name, blob in objects.items():
            target = self._lambda_memory.get(name)
            if target is None:
                continue
            n = min(len(blob), len(target))
            target[:n] = blob[:n]
            written += n
        self.state_epoch += 1
        if self.memo is not None:
            self.memo.fence()
        return written

    @property
    def busy_threads(self) -> int:
        return sum(core.busy_threads for core in self.cores)

    @property
    def total_threads(self) -> int:
        return sum(core.threads for core in self.cores)

    def wcet_for(self, lambda_name: Optional[str]) -> Optional[float]:
        """The WCET bound (seconds) to assume for one request.

        Prefers the lambda's own function-level bound; falls back to
        the whole-firmware bound when the lambda is unknown.
        """
        if lambda_name is not None:
            wcet = self._lambda_wcet.get(lambda_name)
            if wcet is not None:
                return wcet
        return self._wcet_seconds

    def queue_delay_estimate(self) -> float:
        """Expected thread-grant wait for a new arrival, in seconds.

        Every dispatch's cycle count is known before it queues, so the
        NIC keeps an exact tally of queued service-seconds; a new
        arrival behind a work-conserving fleet of ``threads`` threads
        waits about ``queued_seconds / threads``. With a free thread
        the wait is zero. The estimate omits the running requests'
        remainders (slightly optimistic); the dequeue-time deadline
        check is the backstop and wastes no cycles.
        """
        cores = self.available_cores
        if not cores:
            return 0.0
        free = sum(core.threads - core.busy_threads for core in cores)
        if free > 0:
            return 0.0
        threads = sum(core.threads for core in cores)
        return self._queued_service_seconds / threads

    # -- failure injection ----------------------------------------------------

    @property
    def available_cores(self) -> List[NPUCore]:
        """Cores the dispatcher may schedule onto (online islands only)."""
        return [core for core in self.cores if core.online]

    @property
    def serving(self) -> bool:
        """True when the NIC can execute at least one request."""
        return self.online and bool(self.available_cores)

    def fail(self) -> None:
        """Kill the whole NIC: every packet is dropped until restore.

        Firmware and persistent lambda memory survive (they live in
        flash / DRAM that is reloaded on power-up), so a restored NIC
        resumes serving immediately — the failure model is loss of the
        datapath, not of the deployment.
        """
        self.online = False
        if self.env.tracer is not None:
            self.env.tracer.instant("nic.fail", "fault", node=self.name)

    def restore(self) -> None:
        """Bring a failed NIC back; it serves the instant power returns."""
        self.online = True
        if self.env.tracer is not None:
            self.env.tracer.instant("nic.restore", "fault", node=self.name)

    def fail_island(self, island_id: int) -> None:
        """Take one NPU island offline; its cores stop being scheduled.

        In-flight work on the island's cores is allowed to drain (the
        run-to-completion contract, paper D1); only new dispatch avoids
        the island.
        """
        for core in self._island_cores(island_id):
            core.online = False

    def restore_island(self, island_id: int) -> None:
        for core in self._island_cores(island_id):
            core.online = True

    def _island_cores(self, island_id: int) -> List[NPUCore]:
        if not 0 <= island_id < len(self.islands):
            raise ValueError(
                f"no island {island_id} (have {len(self.islands)})"
            )
        return list(self.islands[island_id].cores.values())

    # -- datapath -------------------------------------------------------------

    def _trace_drop(self, packet: Packet, reason: str) -> None:
        tracer = self.env.tracer
        if tracer is None:
            return
        trace_id, parent = Tracer.context(packet)
        if trace_id:
            tracer.instant("nic.drop", "nic", trace_id=trace_id,
                           parent=parent, node=self.name,
                           tags={"reason": reason})

    def receive(self, packet: Packet) -> None:
        """Network-node receive handler."""
        if not self.online:
            self.stats.dropped_nic_down += 1
            self._trace_drop(packet, "nic_down")
            return
        if self._swapping:
            self.stats.dropped_during_swap += 1
            self._trace_drop(packet, "swap")
            return
        if self.firmware is None:
            self.stats.dropped_no_firmware += 1
            self._trace_drop(packet, "no_firmware")
            return
        if "RdmaHeader" in packet.headers:
            self._receive_rdma(packet)
            return
        lam = packet.headers.get("LambdaHeader")
        if lam is not None and lam.is_response and \
                lam.request_id in self._pending_calls:
            # A response from an external service: resume the lambda
            # that issued the call, against the original client request.
            original = self._pending_calls.pop(lam.request_id)
            service_meta: Dict[str, Any] = {"service_response": 1}
            rpc = packet.headers.get("RpcHeader")
            if rpc is not None:
                service_meta["service_status"] = rpc.status
            self.env.process(self._serve(original, extra_meta=service_meta))
            return
        self.env.process(self._serve(packet))

    def _execute(self, packet: Packet, headers: Dict[str, Dict[str, Any]],
                 meta: Dict[str, Any],
                 trace_tags: Optional[Dict[str, Any]] = None):
        """Run the firmware against one parsed request.

        Uses the configured engine tier. Under the JIT, the execution
        memo cache is consulted first: a pure execution of a
        byte-identical request is replayed instead of re-run. The key
        is computed from the *pre-execution* inputs (the lambda mutates
        ``headers`` and ``meta`` in place) and any execution that
        writes persistent memory flushes the cache, so stateful lambdas
        never replay stale results.
        """
        program = self.firmware.program
        if self.engine_tier == "interpreter":
            if trace_tags is not None:
                trace_tags["engine"] = "interpreter"
                trace_tags["memo"] = "off"
            return self.engine.run(
                program, headers=headers, meta=meta,
                memory=self._lambda_memory,
            )
        if trace_tags is not None:
            trace_tags["engine"] = "jit"
            trace_tags["memo"] = "off" if self.memo is None else "miss"
        memo = self.memo
        key = None
        if memo is not None:
            key = make_key(program, program.entry, headers, meta,
                           self._payload_digest(packet))
            cached = memo.get(key)
            if cached is not None:
                if trace_tags is not None:
                    trace_tags["memo"] = "hit"
                return cached
        result, wrote_memory = self.engine.execute(
            program, headers=headers, meta=meta,
            memory=self._lambda_memory,
        )
        if trace_tags is not None:
            # The JIT may degrade to the interpreter per program; report
            # the tier that actually ran (memo hits keep "jit").
            trace_tags["engine"] = self.engine.last_tier
        self.stats.record_compile_stats(self.engine_tier, self.engine.stats)
        if wrote_memory:
            self._state_written()
        elif memo is not None:
            memo.put(key, result)
        return result

    @staticmethod
    def _payload_digest(packet: Packet) -> Any:
        payload = packet.payload
        if isinstance(payload, (bytes, bytearray, memoryview)):
            return (hashlib.sha256(bytes(payload)).digest(),
                    packet.payload_bytes)
        # Synthetic payloads with no byte representation: fold their
        # repr in; non-reprable objects make the request uncacheable.
        return (repr(payload), packet.payload_bytes)

    def _serve(self, packet: Packet, extra_meta: Optional[Dict[str, Any]] = None,
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
        result = self._execute(packet, headers, meta, trace_tags=exec_tags)
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

    def _send_response(self, request: Packet, result) -> None:
        headers = request.headers.copy()
        lambda_header = headers.get("LambdaHeader")
        if lambda_header is not None:
            lambda_header.is_response = True
        response_bytes = int(result.meta.get("response_bytes", 0)) or max(
            len(result.response_payload), 64
        )
        response = Packet(
            src=self.name,
            dst=request.src,
            headers=headers,
            payload=result.response_payload or result.meta.get("response", b""),
            payload_bytes=response_bytes,
            meta={"request_meta": dict(request.meta), "lambda_meta": result.meta},
        )
        Tracer.propagate(request, response)
        self.stats.responses_sent += 1
        self.node.send(response)

    # -- RDMA / multi-packet messages -----------------------------------------

    def _receive_rdma(self, packet: Packet) -> None:
        lam = packet.headers.get("LambdaHeader")
        request_id = lam.request_id if lam is not None else 0
        total = lam.total_segments if lam is not None else 1
        seq = lam.seq if lam is not None else 0
        key = (packet.src, request_id)
        ordered = self._reorder.add(key, seq, total, packet)
        self.stats.rdma_segments += 1
        if ordered is None:
            return
        self.stats.rdma_messages += 1
        self.env.process(self._complete_rdma(ordered, total, packet))

    def _complete_rdma(self, ordered, total, last_packet: Packet) -> Any:
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
        target = self._lambda_memory[object_name]
        # The DMA below writes persistent memory behind the engine's
        # back; cached results may depend on the old contents.
        self._state_written()
        offset = 0
        total_len = 0
        for segment in ordered:
            data = segment.payload if isinstance(segment.payload, (bytes, bytearray)) \
                else b"\x00" * segment.payload_bytes
            n = min(len(data) or segment.payload_bytes, len(target) - offset)
            if isinstance(data, (bytes, bytearray)) and len(data) >= n:
                target[offset:offset + n] = data[:n]
            offset += n
            total_len += segment.payload_bytes
        # Trigger the lambda with an event RPC (paper D3): the request
        # header dispatches as usual but the data is already in memory.
        yield self.env.process(
            self._serve(
                last_packet,
                extra_meta={"rdma_len": total_len, "rdma_object": object_name},
                extra_cycles=reorder_cycles,
            )
        )
        if tracer is not None:
            tracer.end(rdma_span, tags={"bytes": total_len})
