"""Benchmark: simulator throughput and the JIT regression gate.

Unlike the table/figure benchmarks this one guards the simulator's own
wall-clock performance: the source-codegen JIT must stay at least
``MIN_JIT_SPEEDUP`` (6x) faster than the reference interpreter on the
web-server workload, and memoized replay must beat straight JIT
execution. The measured rates are
written to ``BENCH_sim_perf.json`` at the repository root so CI can
archive them and successive runs can be compared.
"""

import json
import platform
from pathlib import Path

from repro.experiments import perf

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sim_perf.json"


def test_sim_perf(benchmark, config):
    metrics = benchmark.pedantic(
        perf.collect, args=(config,), rounds=1, iterations=1,
    )
    print()
    print(perf.run(config).format())

    for key in ("reference_exec_per_s", "jit_exec_per_s", "jit_speedup",
                "memo_replay_per_s", "sim_events_per_s"):
        benchmark.extra_info[key] = round(metrics[key], 2)

    payload = dict(metrics)
    payload["python"] = platform.python_version()
    payload["machine"] = platform.machine()
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")

    # The regression gate: the JIT must keep paying for itself over
    # the reference interpreter.
    assert metrics["jit_speedup"] >= perf.MIN_JIT_SPEEDUP, (
        f"JIT only {metrics['jit_speedup']:.2f}x over the reference "
        f"interpreter (gate: {perf.MIN_JIT_SPEEDUP}x)"
    )
    # The gate must measure real JIT execution, not its fallback tier.
    assert metrics["jit_fallbacks"] == 0
    # Replaying a memoized pure execution must beat re-executing it.
    assert metrics["memo_replay_per_s"] > metrics["jit_exec_per_s"]
    assert metrics["memo_hit_rate"] > 0.9
    # The end-to-end loop actually simulated something.
    assert metrics["sim_events_per_s"] > 0
    assert metrics["sim_requests_per_s"] > 0
