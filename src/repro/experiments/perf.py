"""Simulator performance benchmark: wall-clock throughput, not paper data.

Unlike the other experiment drivers, this one measures the *simulator
itself*: lambda executions per wall-clock second under the reference
interpreter, the pre-decoded fast-path engine, the source-codegen JIT,
and memoized replay, plus end-to-end simulation events per second. It
backs the perf-regression harness in ``benchmarks/test_sim_perf.py``
(which asserts the fast path stays at least 3x faster than the
reference interpreter, the JIT at least 2x faster than the fast path,
and writes ``BENCH_sim_perf.json``).

All numbers here are host wall-clock rates. Simulated results are
unaffected by the engine choice — the differential suites in
``tests/isa/test_fastpath.py`` and ``tests/isa/test_jit.py`` prove
result equality — so this driver never compares against paper figures;
its "paper" column is the reference engine.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from ..hw.memo import ExecutionMemoCache, make_key
from ..isa import FastInterpreter, Interpreter, JitInterpreter
from ..serverless import Testbed, closed_loop
from ..workloads import standard_workloads
from .calibration import DEFAULT_CONFIG, ExperimentConfig
from .harness import ExperimentReport

#: The regression gates enforced by benchmarks/test_sim_perf.py.
MIN_FASTPATH_SPEEDUP = 3.0
MIN_JIT_SPEEDUP = 2.0  # JIT over fastpath


def _webserver_inputs(n: int) -> List[Tuple[Dict, Dict]]:
    """Deterministic request stream for the web-server lambda."""
    return [
        (
            {"LambdaHeader": {"wid": 1, "request_id": i, "seq": 0,
                              "is_response": 0}},
            {"has_LambdaHeader": 1, "ingress_port": i % 4},
        )
        for i in range(n)
    ]


def _fresh_memory(program) -> Dict[str, bytearray]:
    return {
        obj.name: bytearray(obj.size_bytes)
        for obj in program.objects.values()
    }


def _time_executions(engine, program, inputs, memory) -> float:
    """Seconds of wall-clock to run every input through ``engine``."""
    run = engine.run
    started = time.perf_counter()
    for headers, meta in inputs:
        run(program, headers={k: dict(v) for k, v in headers.items()},
            meta=dict(meta), memory=memory)
    return time.perf_counter() - started


def measure_engine_rates(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """Lambda executions per second across all three engine tiers.

    Every engine runs the identical web-server request stream against
    its own persistent memory; the compiled tiers are warmed once so
    the one-time compile is not billed to the steady-state rate.
    """
    config = config or DEFAULT_CONFIG
    program = standard_workloads()["web_server"].nic_factory()
    inputs = _webserver_inputs(config.perf_requests)

    reference = Interpreter()
    fast = FastInterpreter()
    jit = JitInterpreter()
    warm_headers, warm_meta = _webserver_inputs(1)[0]
    for engine in (fast, jit):
        engine.run(program, headers={k: dict(v)
                                     for k, v in warm_headers.items()},
                   meta=dict(warm_meta), memory=_fresh_memory(program))

    runs = max(1, config.bench_runs)

    def median_seconds(engine) -> float:
        return statistics.median(
            _time_executions(engine, program, inputs,
                             _fresh_memory(program))
            for _ in range(runs)
        )

    reference_s = median_seconds(reference)
    fast_s = median_seconds(fast)
    jit_s = median_seconds(jit)
    n = float(len(inputs))
    return {
        "reference_exec_per_s": n / reference_s,
        "fastpath_exec_per_s": n / fast_s,
        "fastpath_speedup": reference_s / fast_s,
        "jit_exec_per_s": n / jit_s,
        "jit_speedup": fast_s / jit_s,
        "jit_fallbacks": float(jit.stats.fallbacks),
    }


def measure_memo_rates(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """Replay rate of the execution memo cache on a pure lambda.

    The KV-client lambda's lookup path never writes persistent memory,
    so a repeated identical request is the memo cache's best case: one
    real execution, then pure replays.
    """
    config = config or DEFAULT_CONFIG
    program = standard_workloads()["kv_client"].nic_factory()
    fast = FastInterpreter()
    memo = ExecutionMemoCache(max_entries=64)
    memory = _fresh_memory(program)
    headers = {"LambdaHeader": {"wid": 2, "request_id": 7, "seq": 0,
                                "is_response": 0}}
    meta = {"has_LambdaHeader": 1, "ingress_port": 0}
    n = config.perf_requests

    def serve_once() -> None:
        h = {k: dict(v) for k, v in headers.items()}
        m = dict(meta)
        key = make_key(program, program.entry, h, m, payload_digest=b"")
        if memo.get(key) is not None:
            return
        result, wrote = fast.execute(program, headers=h, meta=m,
                                     memory=memory)
        if wrote:
            memo.invalidate()
        else:
            memo.put(key, result)

    serve_once()  # populate (also warms the compile cache)

    def one_round() -> float:
        started = time.perf_counter()
        for _ in range(n):
            serve_once()
        return time.perf_counter() - started

    elapsed = statistics.median(one_round()
                                for _ in range(max(1, config.bench_runs)))
    return {
        "memo_replay_per_s": n / elapsed,
        "memo_hit_rate": memo.stats.hit_rate(),
    }


def measure_sim_event_rate(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """End-to-end simulator throughput on the web-server workload.

    Runs a closed loop through the full stack (gateway, network,
    SmartNIC, NPU cores) and reports scheduler events and completed
    requests per wall-clock second — as a **median of warm rounds**.
    The one-time deployment (compile, verifier dead-store analysis,
    firmware swap) used to sit inside the timed window and roughly
    halved the reported rate (the ~47k vs ~94k events/s drift between
    BENCH_sim_perf.json and the ROADMAP): deployment is now completed
    before timing starts, an untimed warm-up round absorbs remaining
    one-time costs, and ``config.bench_runs`` measured rounds are
    reduced to their median.

    A kernel event is not a fixed unit of work. Since the link and
    switch became callback-driven servers, a one-way packet costs 8
    events instead of 15 and each does more, so ``sim_events_per_s``
    cannot be compared with values measured before that change,
    including older ``BENCH_sim_perf.json`` files;
    ``sim_requests_per_s`` can.
    """
    config = config or DEFAULT_CONFIG
    spec = standard_workloads()["web_server"]
    tb = Testbed(seed=config.seed, n_workers=1)
    tb.add_backend("lambda-nic")

    def deploy(env):
        yield tb.manager.deploy(spec, "lambda-nic")

    deploy_process = tb.env.process(deploy(tb.env))
    tb.run(until=deploy_process)

    def one_round() -> Tuple[float, float]:
        def body(env):
            result = yield closed_loop(
                env, tb.gateway, spec.name,
                n_requests=config.perf_sim_requests, concurrency=4,
            )
            return result

        events_before = tb.env._eid
        started = time.perf_counter()
        process = tb.env.process(body(tb.env))
        tb.run(until=process)
        elapsed = time.perf_counter() - started
        load = process.value
        return ((tb.env._eid - events_before) / elapsed,
                len(load.latencies) / elapsed)

    one_round()  # warm-up: engine caches, allocator — not billed
    rounds = [one_round() for _ in range(max(1, config.bench_runs))]
    return {
        "sim_events_per_s": statistics.median(r[0] for r in rounds),
        "sim_requests_per_s": statistics.median(r[1] for r in rounds),
        "sim_events_total": float(tb.env._eid),
    }


def collect(config: Optional[ExperimentConfig] = None) -> Dict[str, Any]:
    """Every perf metric in one flat dict (the BENCH JSON payload)."""
    config = config or DEFAULT_CONFIG
    metrics: Dict[str, Any] = {}
    metrics.update(measure_engine_rates(config))
    metrics.update(measure_memo_rates(config))
    metrics.update(measure_sim_event_rate(config))
    metrics["perf_requests"] = config.perf_requests
    metrics["perf_sim_requests"] = config.perf_sim_requests
    metrics["min_required_speedup"] = MIN_FASTPATH_SPEEDUP
    metrics["min_required_jit_speedup"] = MIN_JIT_SPEEDUP
    # Methodology stamp: every rate above is the median of this many
    # warm rounds, with one-time deploy/compile cost excluded.
    metrics["bench_runs"] = config.bench_runs
    metrics["bench_stat"] = "median"
    return metrics


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Perf benchmark as a standard experiment report."""
    config = config or DEFAULT_CONFIG
    metrics = collect(config)
    rows = [
        ["reference interpreter (exec/s)",
         metrics["reference_exec_per_s"], "baseline"],
        ["fast-path engine (exec/s)",
         metrics["fastpath_exec_per_s"],
         f">= {MIN_FASTPATH_SPEEDUP:.0f}x baseline"],
        ["fast-path speedup (x)", metrics["fastpath_speedup"],
         f">= {MIN_FASTPATH_SPEEDUP:.0f}"],
        ["jit engine (exec/s)", metrics["jit_exec_per_s"],
         f">= {MIN_JIT_SPEEDUP:.0f}x fast path"],
        ["jit speedup over fast path (x)", metrics["jit_speedup"],
         f">= {MIN_JIT_SPEEDUP:.0f}"],
        ["memo replay (exec/s)", metrics["memo_replay_per_s"], "-"],
        ["memo hit rate", f"{metrics['memo_hit_rate'] * 100:.1f}%",
         "~100%"],
        ["simulation events/s", metrics["sim_events_per_s"], "-"],
        ["simulated requests/s", metrics["sim_requests_per_s"], "-"],
    ]
    return ExperimentReport(
        experiment="Perf",
        title="simulator throughput (wall-clock; engine vs reference)",
        headers=["metric", "measured", "target"],
        rows=rows,
        notes=[
            "wall-clock rates, machine-dependent; the regression gate "
            "is the speedup ratio, enforced by benchmarks/test_sim_perf.py",
        ],
    )
