"""The λ-NIC SmartNIC: firmware execution, dispatch, RDMA, swap.

A :class:`SmartNIC` attaches to a network node and serves lambda
requests entirely on-NIC: packets are parsed, matched on the lambda ID
header, and executed run-to-completion on an NPU thread; responses go
straight back out the wire without host involvement (paper §4/§5).

Packets arrive in trains (see :mod:`repro.net.link`). A lone packet is
handled at once; a longer train's packets are handled lazily, each
under the NIC state at its own arrival instant. See
:meth:`SmartNIC.receive_train`.

An RDMA message usually arrives as a view of its segments
(:mod:`repro.net.message`): the NIC keys it from the message's fields,
the reorder buffer takes it as one run, and the DMA copies (or zeroes)
it in one write. Only the completing segment is made into a packet,
because the lambda is served, and answered, from it.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_right
from collections import deque
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
    RpcHeader,
    Segment,
    Segments,
    Train,
    UDPHeader,
)
from ..net.network import Node
from ..net.packet import DEADLINE_META
from ..obs import LambdaStats, MetricsRegistry, Tracer
from ..sim import Environment
from ..transport import ReorderBuffer
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

#: A finished serve span's ``verdict`` tag; anything else is host-bound.
_VERDICT_TAGS = {VERDICT_FORWARD: "forward", VERDICT_TO_HOST: "to_host",
                 VERDICT_DROP: "drop"}


class NicStats(LambdaStats):
    """Per-NIC accounting, backed by a typed metrics registry.

    Counters are plain ints/floats that the datapath ``+=``s; the
    registry reads them when it is read or scraped (``COUNTERS``, see
    :class:`~repro.obs.NodeStats`). ``latencies``, ``count_lambda`` and
    ``per_lambda_requests`` come from :class:`~repro.obs.LambdaStats`.
    """

    COUNTERS = (
        ("requests_served", "nic_requests_served_total",
         "requests answered on-NIC", 0),
        ("responses_sent", "nic_responses_sent_total",
         "response packets emitted", 0),
        ("sent_to_host", "nic_sent_to_host_total",
         "requests punted to the host CPU", 0),
        ("dropped_no_firmware", "nic_dropped_no_firmware_total",
         "packets dropped: no firmware", 0),
        ("dropped_during_swap", "nic_dropped_during_swap_total",
         "packets dropped mid-swap", 0),
        ("dropped_nic_down", "nic_dropped_down_total",
         "packets dropped: NIC dark or coreless", 0),
        ("rdma_segments", "nic_rdma_segments_total",
         "RDMA segments received", 0),
        ("rdma_messages", "nic_rdma_messages_total",
         "RDMA messages reassembled", 0),
        ("rdma_evicted", "nic_rdma_evicted_total",
         "partial RDMA messages evicted: their source moved on", 0),
        ("total_cycles", "nic_cycles_total",
         "NPU cycles charged", 0),
        ("busy_seconds", "nic_busy_seconds_total",
         "NPU busy time", 0.0),
        ("firmware_swaps", "nic_firmware_swaps_total",
         "firmware installs", 0),
        ("swap_downtime_seconds", "nic_swap_downtime_seconds_total",
         "time spent dark in swaps", 0.0),
        ("expired_on_arrival", "nic_expired_arrivals_total",
         "requests dropped on arrival: deadline unreachable (WCET-aware)", 0),
        ("expired_on_dequeue", "nic_expired_dequeued_total",
         "requests dropped at the NPU thread grant: deadline passed", 0),
        ("expired_completions", "nic_expired_completions_total",
         "executions that finished past their deadline (in-flight race)", 0),
        ("shed", "nic_shed_total",
         "requests rejected by the NIC load shedder", 0),
    )

    LATENCY_METRIC = ("nic_latency_seconds", "on-NIC serve latency")
    PER_LAMBDA_METRIC = ("nic_lambda_requests_total",
                         "requests served per lambda")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 node: str = "") -> None:
        super().__init__(registry, node)
        # Engine compile-cache statistics, per tier. The counters live
        # on the engine objects (CompileCacheStats); these gauges read
        # the current totals when scraped, so tier behaviour — including
        # JIT lowering fallbacks — is observable at no per-run cost.
        self._compile_fields = (
            (self.registry.gauge("nic_compile_cache_hits",
                                 "compile-cache hits per engine tier"),
             "hits"),
            (self.registry.gauge(
                "nic_compile_cache_misses",
                "compile-cache misses (compilations) per engine tier"),
             "misses"),
            (self.registry.gauge("nic_compile_cache_fallbacks",
                                 "programs an engine tier could not lower"),
             "fallbacks"),
        )

    def track_compile_stats(self, tier: str, stats) -> None:
        """Mirror one engine tier's CompileCacheStats into the registry:
        the gauges read its counters whenever they are read."""
        labels = {**(self.labels or {}), "tier": tier}
        for gauge, field in self._compile_fields:
            gauge.track(stats, field, labels)

    def compile_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier compile-cache totals as plain dicts (tests/REPL)."""
        out: Dict[str, Dict[str, int]] = {}
        for gauge, field in self._compile_fields:
            for tier, value in self._by_name(gauge, "tier", int).items():
                out.setdefault(tier, {})[field] = value
        return out


def _zero_fill(target: bytearray, offset: int, size: int) -> None:
    """Zero ``target[offset:offset + size]`` in place.

    A slice assignment would need a zero source as large as the run
    (a whole image), which raises the process's peak memory. A ctypes
    array type sized to the run would be a new class per size, and a
    class is a reference cycle: so memset starts at a one-byte view,
    which holds ``target`` while it runs.
    """
    if offset < 0 or size < 0 or offset + size > len(target):
        raise ValueError(f"zero fill of {size} bytes at {offset} is "
                         f"outside a {len(target)}-byte buffer")
    if size:
        start = ctypes.c_char.from_buffer(target, offset)
        ctypes.memset(ctypes.addressof(start), 0, size)


def _dma(target: bytearray, ordered) -> int:
    """Write a completed message into ``target``; returns its length.

    ``ordered`` holds the message's segments in seq order: packets, and
    views of a message (runs). A segment without bytes carries zeros:
    each run of them is one write, clipped to the object like the
    bytes. A view whose message's payload covers it is one write.
    """
    limit = len(target)
    offset = 0
    zeros = 0
    total_len = 0
    for entry in ordered:
        if entry.__class__ is Segments:
            message = entry.message
            size = entry.payload_bytes()
            start = entry.first * message.segment_bytes
            payload = message.payload
            if payload is None:
                total_len += size
                zeros = min(zeros + size, limit - offset)
                continue
            if len(payload) >= start + size:
                total_len += size
                if zeros:
                    _zero_fill(target, offset, zeros)
                    offset += zeros
                    zeros = 0
                n = min(size, limit - offset)
                target[offset:offset + n] = payload[start:start + n]
                offset += n
                continue
            segments = entry  # A short payload: segment by segment.
        else:
            segments = (entry,)
        for segment in segments:
            total_len += segment.payload_bytes
            data = segment.payload
            if not isinstance(data, (bytes, bytearray)):
                zeros = min(zeros + segment.payload_bytes, limit - offset)
                continue
            if zeros:
                _zero_fill(target, offset, zeros)
                offset += zeros
                zeros = 0
            n = min(len(data) or segment.payload_bytes, limit - offset)
            if len(data) >= n:
                target[offset:offset + n] = data[:n]
            offset += n
    if zeros:
        _zero_fill(target, offset, zeros)
    return total_len


class _Arrivals:
    """A train the NIC holds, and how far it has handled it.

    ``key`` is set when the train is one RDMA message's segments with
    consecutive seqs from ``first_seq`` and no later seq of that message
    can be buffered when they are handled: then only its last segment
    can complete the message, and one timeout at the last arrival
    suffices. Otherwise (``key`` None) a timeout waits for each packet.
    """

    __slots__ = ("train", "applied", "timeout", "key", "total", "first_seq")

    def __init__(self, train: Train, key, total: int, first_seq: int) -> None:
        self.train = train
        #: Packets handled so far (a prefix of the train).
        self.applied = 0
        self.timeout = None
        self.key = key
        self.total = total
        self.first_seq = first_seq


class SmartNIC:
    """An ASIC-based SmartNIC in the style of the Netronome Agilio CX.

    Parameters mirror the paper's testbed NIC: 56 cores x 8 threads at
    633 MHz with 2 GiB of on-board memory.
    """

    #: Always None: bench/repeat.py reads it until ROADMAP's memo PR A.
    memo = None

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
        #: ``(compiled_for(program),)`` of the installed firmware once
        #: the JIT first ran it; None until then.
        self._jit: Optional[tuple] = None
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
        #: Source node -> key of its message still being reassembled.
        self._rdma_open: Dict[str, Tuple[str, int]] = {}
        #: Trains with packets not yet handled, in arrival order.
        self._arriving: deque = deque()
        #: Outstanding service calls (e.g. to memcached): the original
        #: client request, resumed when the service responds (§4.2.1-D3,
        #: "an event RPC triggers the lambda").
        self._pending_calls: Dict[int, Packet] = {}

        node.attach(self.receive, self.receive_train, self.retract_train)

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
                self._catch_up()
                self._swapping = True
                started = self.env.now
                yield self.env.timeout(self.firmware_swap_seconds)
                self.stats.swap_downtime_seconds += self.env.now - started
                self._catch_up()
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
        self._catch_up()
        if self.firmware is not None:
            self.memory.reset()
        program = firmware.program
        # Account code + static data into NIC memory.
        self.memory.allocate(Region.IMEM, min(
            firmware.code_bytes, self.memory.capacities[Region.IMEM]))
        for obj in program.objects.values():
            self.memory.allocate(obj.region, obj.size_bytes)
        self.firmware = firmware
        self._jit = None
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
        potential write and bumps :attr:`state_epoch`.
        """
        data = self._lambda_memory[object_name]
        self._state_written()
        return data

    def _state_written(self) -> None:
        """Every persistent-memory write funnels through here: bump
        the migration epoch fence."""
        self.state_epoch += 1

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
        it bumps :attr:`state_epoch`.
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
        self._state_written()
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
        self._catch_up()
        self.online = False
        if self.env.tracer is not None:
            self.env.tracer.instant("nic.fail", "fault", node=self.name)

    def restore(self) -> None:
        """Bring a failed NIC back; it serves the instant power returns."""
        self._catch_up()
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

    def _trace_drop(self, packet: Packet, reason: str,
                    at: Optional[float] = None) -> None:
        tracer = self.env.tracer
        if tracer is None:
            return
        trace_id, parent = Tracer.context(packet)
        if trace_id:
            tracer.instant("nic.drop", "nic", trace_id=trace_id,
                           parent=parent, node=self.name,
                           tags={"reason": reason}, at=at)

    def receive(self, packet: Packet) -> None:
        """Network-node receive handler."""
        if self._arriving:
            self._catch_up()
        self._accept(packet)

    def receive_train(self, train: Train) -> None:
        """Network-node train handler.

        The node hands a lone packet to :meth:`receive`. A longer
        train's packets are handled lazily, in order, each under the NIC
        state at its own arrival: every state change (fail, restore,
        swap, install) and every later arrival first handles the
        packets due by then (those arriving in the same instant
        included), and a timeout handles the rest. A train of one RDMA
        message's segments (the usual case) needs one timeout, at its
        last arrival, where the message completes; any other train one
        per packet.
        """
        run = _Arrivals(train, *self._lazy_key(train))
        self._arriving.append(run)
        self._catch_up()
        if run.applied < len(train.packets):
            self._arm(run)

    def retract_train(self, train: Train, removed: List[Packet]) -> None:
        """The link took ``removed`` (not yet arrived) off ``train``."""
        for run in reversed(self._arriving):
            if run.train is train:
                break
        else:
            return
        if run.timeout is not None:
            run.timeout.cancel()
            run.timeout = None
        self._catch_up()
        if run.applied < len(train.packets):
            self._arm(run)

    def _lazy_key(self, train: Train) -> tuple:
        """``(key, total, first seq)`` if one timeout at the train's
        last arrival handles it exactly, else ``(None, 0, 0)``.

        The train must be consecutive segments of one RDMA message: a
        view of the message (the usual case), or its segments made into
        packets by a split or a cut on the way.
        """
        packets = train.packets
        if packets.__class__ is Segments:
            message = packets.message
            key, total, first_seq = message.key, message.total, packets.first
        else:
            first = packets[0]
            if first.__class__ is not Segment:
                return None, 0, 0
            key, total, first_seq = first.key, first.total, first.seq
            message_id = first.message_id
            for offset, packet in enumerate(packets):
                if packet.__class__ is not Segment \
                        or packet.message_id != message_id \
                        or packet.seq != first_seq + offset:
                    return None, 0, 0
        # No segment of the message at or past first_seq may be
        # buffered, or a segment before the last could complete it.
        if self._reorder.highest_seq(key) >= first_seq:
            return None, 0, 0
        for run in self._arriving:
            if run.key is None or (run.key == key and run.first_seq
                                   + len(run.train.packets) > first_seq):
                return None, 0, 0
        return key, total, first_seq

    def _arm(self, run: _Arrivals) -> None:
        """Wait for the next packet of ``run`` that needs an event."""
        times = run.train.times
        due = times[-1] if run.key is not None else times[run.applied]
        run.timeout = self.env.timeout_at(due, run, self._arrivals_due)

    def _arrivals_due(self, event) -> None:
        run = event.value
        run.timeout = None
        self._catch_up()
        if run.applied < len(run.train.packets):
            self._arm(run)

    def _catch_up(self) -> None:
        """Handle every held packet that has arrived by now, in order."""
        arriving = self._arriving
        now = self.env.now
        while arriving:
            run = arriving[0]
            train = run.train
            times = train.times
            start = run.applied
            count = len(times)
            end = bisect_right(times, now, start)
            if end > start:
                run.applied = end
                self._handle(run, start, end)
            if end < count:
                return
            arriving.popleft()
            if run.timeout is not None:
                run.timeout.cancel()
                run.timeout = None

    def _handle(self, run: _Arrivals, start: int, end: int) -> None:
        train = run.train
        if run.key is None:
            for index in range(start, end):
                self._accept(train.packets[index], train.times[index])
            return
        packets = train.packets[start:end]
        if not self._refused(packets, train.times[start:end]):
            self._receive_rdma(packets, run.key, run.total,
                               run.first_seq + start)

    def _refused(self, packets, times) -> bool:
        """Drop packets the NIC cannot take now (counted and traced)."""
        stats = self.stats
        if not self.online:
            stats.dropped_nic_down += len(packets)
            reason = "nic_down"
        elif self._swapping:
            stats.dropped_during_swap += len(packets)
            reason = "swap"
        elif self.firmware is None:
            stats.dropped_no_firmware += len(packets)
            reason = "no_firmware"
        else:
            return False
        if self.env.tracer is not None:
            for packet, at in zip(packets, times):
                self._trace_drop(packet, reason, at)
        return True

    def _accept(self, packet: Packet, at: Optional[float] = None) -> None:
        """Handle one packet arriving at ``at`` (default: now)."""
        if not (self.online and not self._swapping
                and self.firmware is not None) \
                and self._refused((packet,), (at,)):
            return
        if "RdmaHeader" in packet.headers:
            lam = packet.headers.get("LambdaHeader")
            if lam is None:
                key, total, seq = (packet.src, 0), 1, 0
            else:
                key = (packet.src, lam.request_id)
                total, seq = lam.total_segments, lam.seq
            self._receive_rdma([packet], key, total, seq)
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
            self._serve(original, extra_meta=service_meta)
            return
        self._serve(packet)

    def _execute(self, headers: Dict[str, Dict[str, Any]],
                 meta: Dict[str, Any],
                 trace_tags: Optional[Dict[str, Any]] = None):
        """Run the firmware against one parsed request.

        Uses the configured engine tier. An execution that writes
        persistent memory bumps :attr:`state_epoch`.
        """
        program = self.firmware.program
        if self.engine_tier == "interpreter":
            result, wrote_memory = self.engine.execute(
                program, headers=headers, meta=meta,
                memory=self._lambda_memory,
            )
            tier = "interpreter"
        else:
            jit = self._jit
            if jit is None:
                # Looked up once per install: an installed program is
                # never edited (DESIGN.md §10), so the JIT's staleness
                # guard holds until the next install.
                jit = self._jit = (self.engine.compiled_for(program),)
                self.stats.track_compile_stats(self.engine_tier,
                                               self.engine.stats)
            else:
                self.engine.stats.hits += 1
            result, wrote_memory = self.engine.execute_compiled(
                jit[0], program, headers=headers, meta=meta,
                memory=self._lambda_memory,
            )
            # The JIT may degrade to the interpreter per program; report
            # the tier that actually ran.
            tier = self.engine.last_tier
        if trace_tags is not None:
            trace_tags["engine"] = tier
        if wrote_memory:
            self._state_written()
        return result

    def _serve(self, packet: Packet, extra_meta: Optional[Dict[str, Any]] = None,
               extra_cycles: int = 0, rdma=None) -> None:
        """Parse, execute and dispatch one request to an NPU thread now;
        the rest runs when the thread finishes.

        ``rdma`` is the ``(span, bytes)`` of the RDMA message this pass
        completes: its span ends with the serve span.
        """
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
                    self._end_serve(serve_span, {"verdict": "expired"}, rdma)
                return
        if (self.shedder is not None and not continuation
                and self.shedder.should_shed()):
            self.stats.shed += 1
            self._trace_drop(packet, "shed")
            if serve_span is not None:
                self._end_serve(serve_span, {"verdict": "shed"}, rdma)
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
                self._end_serve(serve_span, {"verdict": "dropped_no_cores"},
                                rdma)
            return
        core = self.scheduler.pick_core(cores, lambda_name or "<none>")
        duration = cycles / self.clock_hz
        self._queued_service_seconds += duration

        def dequeued(waited, _duration=duration):
            # Thread granted (or dropped): the work is no longer queued.
            self._queued_service_seconds -= _duration
            if self.shedder is not None:
                self.shedder.observe(waited, self.env.now)

        def served(elapsed):
            # The thread is done (or dropped the work at its dequeue).
            if elapsed is None:
                # Dequeue check: the deadline passed while queued for an
                # NPU thread — the core dropped the work without
                # charging cycles, so expired requests never execute.
                self.stats.expired_on_dequeue += 1
                self._trace_drop(packet, "expired_dequeue")
                if serve_span is not None:
                    self._end_serve(serve_span,
                                    {"verdict": "expired_dequeue"}, rdma)
                return
            if deadline is not None and self.env.now > deadline:
                # The in-flight race window: the execution had started
                # (or was committed) before the deadline passed. It is
                # allowed but counted — the overload gates bound this.
                self.stats.expired_completions += 1

            self.stats.total_cycles += cycles
            self.stats.busy_seconds += cycles / self.clock_hz
            if lambda_name is not None:
                self.stats.count_lambda(lambda_name)
            # Outbound service calls (kv client -> memcached).
            for emitted in result.emitted:
                self._call_service(packet, lambda_header, emitted, deadline)

            verdict = result.verdict
            if verdict == VERDICT_FORWARD:
                self.stats.requests_served += 1
                self.stats.latencies.append(self.env.now - arrival)
            elif verdict != VERDICT_DROP:
                # To the host, or a fallthrough without a verdict.
                self.stats.sent_to_host += 1
            if serve_span is not None:
                self._end_serve(serve_span, {
                    "verdict": _VERDICT_TAGS.get(verdict, "to_host"),
                    "cycles": cycles,
                }, rdma)
            if verdict == VERDICT_FORWARD:
                self._send_response(packet, result)
            elif verdict != VERDICT_DROP and self.host_handler is not None:
                self.host_handler(packet)

        core.execute(
            cycles, served,
            trace=((serve_span.trace_id, serve_span.span_id)
                   if serve_span is not None else None),
            deadline=deadline,
            on_dequeue=dequeued,
        )

    def _end_serve(self, serve_span, tags: Dict[str, Any], rdma) -> None:
        """End a serve span and, after it, the RDMA message's span."""
        tracer = self.env.tracer
        tracer.end(serve_span, tags=tags)
        if rdma is not None:
            tracer.end(rdma[0], tags={"bytes": rdma[1]})

    def _call_service(self, packet: Packet, lambda_header, emitted,
                      deadline: Optional[float]) -> None:
        """Send one service call the lambda emitted; its response
        resumes the lambda against ``packet``."""
        dst = emitted.meta.get("emit_dst")
        if not dst:
            return
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
        # The call outlives this serve pass, so it carries the original
        # (still-open) request context, not the serve span. The deadline
        # rides along too: the eventual response pass is as useless
        # past the deadline as the request itself.
        if deadline is not None:
            call.meta[DEADLINE_META] = deadline
        Tracer.propagate(packet, call)
        self.node.send(call)

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

    def _receive_rdma(self, packets, key: Tuple[str, int], total: int,
                      first_seq: int) -> None:
        """Reassemble segments ``first_seq..`` of message ``key``, in
        arrival order: a message's view as one run, packets one by
        one."""
        src = key[0]
        # One source's segments arrive in order and its messages back
        # to back, so a segment of a new message means the source's
        # previous message lost segments that will never come (a cut
        # link, a gateway retry elsewhere): evict it.
        open_key = self._rdma_open.get(src)
        if open_key is not None and open_key != key \
                and self._reorder.evict(open_key):
            self.stats.rdma_evicted += 1
        if packets.__class__ is Segments:
            completed = self._reorder.add_run(key, total, first_seq, packets)
        else:
            completed = self._reorder.add_train(key, total, first_seq,
                                                packets)
        self.stats.rdma_segments += len(packets)
        if completed and completed[-1][0] == len(packets) - 1:
            self._rdma_open.pop(src, None)
        else:
            self._rdma_open[src] = key
        for index, ordered in completed:
            self.stats.rdma_messages += 1
            self._complete_rdma(ordered, total, packets[index])

    def _complete_rdma(self, ordered, total, last_packet: Packet) -> None:
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
            # No binding: punt whole message to host once reordered.
            self.env.timeout_at(
                self.env.now + reorder_cycles / self.clock_hz,
                (last_packet, rdma_span), self._punt_rdma)
            return
        lambda_name, object_name = binding
        # The DMA writes persistent memory behind the engine's back: it
        # moves the migration fence.
        self._state_written()
        total_len = _dma(self._lambda_memory[object_name], ordered)
        # Trigger the lambda with an event RPC (paper D3): the request
        # header dispatches as usual but the data is already in memory.
        self._serve(
            last_packet,
            extra_meta={"rdma_len": total_len, "rdma_object": object_name},
            extra_cycles=reorder_cycles,
            rdma=None if rdma_span is None else (rdma_span, total_len),
        )

    def _punt_rdma(self, event) -> None:
        last_packet, rdma_span = event._value
        self.stats.sent_to_host += 1
        if rdma_span is not None:
            self.env.tracer.end(rdma_span, tags={"verdict": "to_host"})
        if self.host_handler is not None:
            self.host_handler(last_packet)
