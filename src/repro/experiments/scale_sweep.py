"""Sharded scale sweep: 10⁷-request experiments across processes.

The ROADMAP's "millions of users" target needs more simulated requests
than one discrete-event kernel can turn over in tolerable wall-clock.
This driver partitions one open-loop cluster experiment into
independent :class:`~repro.sim.ShardSpec` shards — each shard is a
full Testbed (its own kernel, NICs, gateway) serving only the arrivals
it owns out of a single deterministic plan — runs them across
``multiprocessing`` workers, and folds the per-shard metrics
registries back together with ``MetricsRegistry.merge_all``.

The partition is sound because shards share *nothing* at simulation
time: the arrival plan is a pure function of ``(rate, duration,
arrival_seed)`` that every worker regenerates locally (nothing large
is pickled in), ownership is ``request_id % n_shards``, and no packet
ever crosses between shards — each request's whole lifetime (gateway
hop, NIC execution, response) happens inside its owner's testbed.
Request-conserving counters therefore *sum exactly* to the monolithic
run's totals; latency percentiles agree in distribution (shards draw
service times from differently seeded streams), which the
differential harness checks within tolerance.

Wall-clock numbers (and anything derived from them, e.g. parallel
efficiency) live under the report's ``"timing"`` key; everything under
``"deterministic"`` is a pure function of the configuration and seed,
and :func:`canonical_report_bytes` serializes exactly that part — the
byte-stability tests compare it across runs and across inline vs
pooled execution.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional

from ..obs import Histogram, MetricsRegistry, percentile_of
from ..serverless import Testbed, iter_arrivals, scheduled_open_loop
from ..sim import ShardSpec, default_processes, make_shard_specs, run_shards
from ..workloads import standard_workloads
from .calibration import DEFAULT_CONFIG, ExperimentConfig
from .harness import ExperimentReport, deploy, run_scenario

#: Counters conserved by the request partition: each increments once
#: per request *inside the owning shard*, so sharded totals must equal
#: the monolithic run's exactly. Infrastructure counters (firmware
#: swaps, compile-cache stats, busy-seconds) scale with the number of
#: testbeds instead and are excluded by design — see DESIGN.md §14.
REQUEST_CONSERVED_COUNTERS = (
    "gateway_requests_total",
    "gateway_failures_total",
    "gateway_shed_total",
    "gateway_expired_total",
    "gateway_retries_total",
    "nic_lambda_requests_total",
    "nic_requests_served_total",
    "nic_responses_sent_total",
)

#: Relative tolerance for percentile agreement between a sharded run
#: and its monolithic twin. Shards draw service times from streams
#: seeded per-shard, so individual samples differ; the distributions
#: are identical, and nearest-rank percentiles over hundreds of
#: samples agree well inside this bound.
PERCENTILE_RTOL = 0.25

#: Default efficiency floor at 4 shards (enforced core-aware by
#: benchmarks/test_scale_sweep.py — a single-core box cannot exhibit
#: parallel speedup, so the gate only binds when cores >= 2).
MIN_PARALLEL_EFFICIENCY = 0.7


def _strip_histograms(registry: MetricsRegistry) -> MetricsRegistry:
    """A copy of ``registry`` without its histogram metrics.

    A 10⁷-request sweep accumulates millions of raw observations per
    shard; the scale profile ships only counters/gauges home and
    reports percentiles computed locally in the worker.
    """
    shipped = MetricsRegistry()
    for metric in registry.scrape().values():
        if not isinstance(metric, Histogram):
            shipped.register(metric.copy())
    return shipped


def shard_worker(spec: ShardSpec) -> Dict[str, Any]:
    """Run one shard (or, with ``n_shards == 1``, the monolithic twin).

    Module-level so it pickles into pool workers. Everything is
    rebuilt from the spec: the testbed from the per-shard seed, the
    arrival plan from the *experiment*-level ``arrival_seed`` in
    ``params`` (regenerated in full, then filtered down to owned
    request ids). No ambient state — inline and pooled execution must
    be indistinguishable.
    """
    params = spec.params
    spec_obj = standard_workloads()[params["workload"]]
    tb = Testbed(seed=spec.seed, n_workers=params["workers_per_shard"])
    tb.add_backend(params["backend"])

    def arrivals():
        rng = random.Random(params["arrival_seed"])
        stream = iter_arrivals(params["rate_rps"], params["duration"], rng)
        for record in stream:
            if spec.owns(record.request_id):
                yield record

    def scenario(env):
        yield from deploy(tb, [spec_obj], params["backend"])
        started = time.perf_counter()
        result = yield scheduled_open_loop(
            env, tb.gateway, spec_obj.name, arrivals(),
        )
        return result, time.perf_counter() - started

    total_started = time.perf_counter()
    load, replay_wall = run_scenario(tb, scenario)
    total_wall = time.perf_counter() - total_started

    latencies = sorted(load.latencies)
    ship_histograms = params.get("ship_histograms", True)
    registry = (tb.metrics.copy() if ship_histograms
                else _strip_histograms(tb.metrics))
    return {
        "shard": spec.index,
        "n_shards": spec.n_shards,
        "completed": load.completed,
        "failures": load.failures,
        "p50": percentile_of(latencies, 50.0),
        "p99": percentile_of(latencies, 99.0),
        "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "sim_duration": load.duration,
        "events": tb.env._eid,
        "registry": registry,
        "latencies": list(load.latencies) if params.get("ship_latencies")
        else None,
        "replay_wall_seconds": replay_wall,
        "total_wall_seconds": total_wall,
    }


def _params(config: ExperimentConfig, total_requests: int,
            rate_rps: float, workers_per_shard: int,
            ship_histograms: bool, ship_latencies: bool) -> Dict[str, Any]:
    return {
        "workload": config.scale_workload,
        "backend": "lambda-nic",
        "rate_rps": rate_rps,
        "duration": total_requests / rate_rps,
        "arrival_seed": config.seed,
        "workers_per_shard": workers_per_shard,
        "ship_histograms": ship_histograms,
        "ship_latencies": ship_latencies,
    }


def run_sweep(
    config: Optional[ExperimentConfig] = None,
    n_shards: Optional[int] = None,
    total_requests: Optional[int] = None,
    rate_rps: Optional[float] = None,
    processes: Optional[int] = None,
    inline: bool = False,
    ship_histograms: Optional[bool] = None,
    ship_latencies: bool = False,
    workers_per_shard: int = 1,
) -> Dict[str, Any]:
    """Run a sharded sweep and return the merged result dict.

    The result separates ``"deterministic"`` (counters, percentiles,
    per-shard summaries — identical across reruns and across
    inline/pooled execution on the same seed) from ``"timing"``
    (wall-clock, efficiency). ``"registry"`` carries the merged
    :class:`MetricsRegistry` for programmatic consumers.
    """
    config = config or DEFAULT_CONFIG
    n_shards = n_shards or config.scale_shards
    total_requests = total_requests or config.scale_requests
    rate_rps = rate_rps or config.scale_rate_rps
    if ship_histograms is None:
        # Histograms are cheap to ship on small runs, prohibitive at
        # scale; flip automatically past ~1M requests.
        ship_histograms = total_requests <= 1_000_000
    params = _params(config, total_requests, rate_rps, workers_per_shard,
                     ship_histograms, ship_latencies)
    specs = make_shard_specs(n_shards, config.seed, params)

    started = time.perf_counter()
    shard_results = run_shards(shard_worker, specs,
                               processes=processes, inline=inline)
    elapsed = time.perf_counter() - started

    merged = MetricsRegistry.merge_all(
        result["registry"] for result in shard_results
    )
    counters = {
        name: metric.total
        for name, metric in sorted(merged.scrape().items())
        if type(metric).__name__ == "Counter"
    }
    shard_rows = [
        {key: result[key] for key in
         ("shard", "completed", "failures", "p50", "p99", "mean",
          "events", "sim_duration")}
        for result in shard_results
    ]
    completed = sum(result["completed"] for result in shard_results)
    worker_wall = sum(result["total_wall_seconds"]
                      for result in shard_results)
    n_procs = (1 if inline or n_shards <= 1
               else (processes or default_processes(n_shards)))
    speedup = worker_wall / elapsed if elapsed > 0 else 0.0
    return {
        "deterministic": {
            "schema": "scale_sweep/v1",
            "config": {
                "n_shards": n_shards,
                "total_requests": total_requests,
                "rate_rps": rate_rps,
                "seed": config.seed,
                "workload": params["workload"],
                "backend": params["backend"],
                "workers_per_shard": workers_per_shard,
            },
            "totals": {
                "completed": completed,
                "failures": sum(r["failures"] for r in shard_results),
                "events": sum(r["events"] for r in shard_results),
            },
            "counters": counters,
            "latency": {
                "p50_max": max(r["p50"] for r in shard_results),
                "p99_max": max(r["p99"] for r in shard_results),
                "mean": (sum(r["mean"] * r["completed"]
                             for r in shard_results) / completed
                         if completed else 0.0),
            },
            "shards": shard_rows,
        },
        "timing": {
            "elapsed_seconds": elapsed,
            "worker_wall_seconds": worker_wall,
            "processes": n_procs,
            "speedup": speedup,
            "parallel_efficiency": speedup / n_procs if n_procs else 0.0,
            "requests_per_second": completed / elapsed if elapsed else 0.0,
        },
        "registry": merged,
        "shard_results": shard_results,
    }


def run_monolithic(
    config: Optional[ExperimentConfig] = None,
    total_requests: Optional[int] = None,
    rate_rps: Optional[float] = None,
    n_workers: int = 4,
    ship_latencies: bool = False,
) -> Dict[str, Any]:
    """The single-testbed twin of a sweep: one shard owning everything.

    ``n_workers`` should equal the sweep's shard count so the two
    cluster topologies match (4 shards × 1 worker ≙ 1 testbed × 4
    workers)."""
    config = config or DEFAULT_CONFIG
    total_requests = total_requests or config.scale_requests
    rate_rps = rate_rps or config.scale_rate_rps
    params = _params(config, total_requests, rate_rps, n_workers,
                     True, ship_latencies)
    spec = make_shard_specs(1, config.seed, params)[0]
    return shard_worker(spec)


def differential(
    config: Optional[ExperimentConfig] = None,
    n_shards: int = 4,
    total_requests: Optional[int] = None,
    rate_rps: Optional[float] = None,
    inline: bool = True,
) -> Dict[str, Any]:
    """Sharded-vs-monolithic equivalence check on one seed.

    Exact: request-conserving counter totals and completed/failure
    counts. Tolerance-bounded: latency percentiles (shards sample
    service times from differently seeded streams).
    """
    config = config or DEFAULT_CONFIG
    total_requests = total_requests or config.scale_differential_requests
    rate_rps = rate_rps or config.scale_rate_rps
    sweep = run_sweep(config, n_shards=n_shards,
                      total_requests=total_requests, rate_rps=rate_rps,
                      inline=inline, ship_histograms=True)
    mono = run_monolithic(config, total_requests=total_requests,
                          rate_rps=rate_rps, n_workers=n_shards)

    merged = sweep["registry"]
    mono_registry = mono["registry"]
    counter_pairs = {}
    for name in REQUEST_CONSERVED_COUNTERS:
        sharded_total = merged.counter(name).total
        mono_total = mono_registry.counter(name).total
        counter_pairs[name] = (sharded_total, mono_total)
    counters_match = all(a == b for a, b in counter_pairs.values())
    completed_match = (
        sweep["deterministic"]["totals"]["completed"] == mono["completed"]
        and sweep["deterministic"]["totals"]["failures"] == mono["failures"]
    )

    def close(a: float, b: float) -> bool:
        if a == b:
            return True
        scale = max(abs(a), abs(b))
        return scale > 0 and abs(a - b) / scale <= PERCENTILE_RTOL

    p50 = sweep["deterministic"]["latency"]["p50_max"]
    p99 = sweep["deterministic"]["latency"]["p99_max"]
    percentiles_match = close(p50, mono["p50"]) and close(p99, mono["p99"])
    return {
        "n_shards": n_shards,
        "total_requests": total_requests,
        "counters": counter_pairs,
        "counters_match": counters_match,
        "completed_match": completed_match,
        "sharded_p50": p50, "mono_p50": mono["p50"],
        "sharded_p99": p99, "mono_p99": mono["p99"],
        "percentiles_match": percentiles_match,
        "match": counters_match and completed_match and percentiles_match,
    }


def canonical_report_bytes(sweep: Dict[str, Any]) -> bytes:
    """The deterministic part of a sweep, canonically serialized.

    Same seed + same config ⇒ identical bytes, run to run and inline
    vs pooled — the byte-stability contract the harness enforces.
    """
    return json.dumps(sweep["deterministic"], sort_keys=True,
                      separators=(",", ":")).encode()


def write_report(sweep: Dict[str, Any], path: str) -> None:
    """Write the JSON artifact (deterministic + timing sections)."""
    payload = {
        "deterministic": sweep["deterministic"],
        "timing": sweep["timing"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Experiment-table entry: a small sweep plus the differential.

    Sized by ``config.scale_differential_requests`` so it finishes in
    seconds; the full ≥10⁷-request sweep is the CLI's job
    (``python -m repro.experiments.scale_sweep``).
    """
    config = config or DEFAULT_CONFIG
    diff = differential(config)
    sweep = run_sweep(config, n_shards=4,
                      total_requests=config.scale_differential_requests,
                      inline=True)
    rows = [
        ["shards", 4, "-"],
        ["requests completed",
         sweep["deterministic"]["totals"]["completed"],
         config.scale_differential_requests],
        ["merged gateway_requests_total",
         sweep["deterministic"]["counters"].get("gateway_requests_total",
                                                0.0),
         "== monolithic"],
        ["conserved counters match", str(diff["counters_match"]), "True"],
        ["completed/failures match", str(diff["completed_match"]), "True"],
        ["p99 sharded vs monolithic",
         f"{diff['sharded_p99']:.6f} / {diff['mono_p99']:.6f}",
         f"within {PERCENTILE_RTOL:.0%}"],
        ["differential verdict", str(diff["match"]), "True"],
    ]
    return ExperimentReport(
        experiment="ScaleSweep",
        title="sharded simulation: differential vs monolithic",
        headers=["metric", "measured", "target"],
        rows=rows,
        notes=[
            "full-scale runs: python -m repro.experiments.scale_sweep "
            "--requests 10000000 --shards 8",
        ],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scale_sweep",
        description="Sharded scale sweep (default: the 10^7-request "
                    "ROADMAP target; use --requests for smaller runs).",
    )
    parser.add_argument("--requests", type=int, default=10_000_000,
                        help="total simulated requests across shards")
    parser.add_argument("--shards", type=int, default=4,
                        help="number of independent testbed shards")
    parser.add_argument("--rate", type=float, default=None,
                        help="total open-loop arrival rate (req/s of "
                             "sim time); default from config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--processes", type=int, default=None,
                        help="pool size (default: min(shards, cores))")
    parser.add_argument("--inline", action="store_true",
                        help="run shards sequentially in-process")
    parser.add_argument("--differential", action="store_true",
                        help="also run the sharded-vs-monolithic check "
                             "(small fixed size) and fail on mismatch")
    parser.add_argument("--out", default="SCALE_sweep.json",
                        help="merged report artifact path")
    args = parser.parse_args(argv)

    config = ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.differential:
        diff = differential(config)
        print(f"differential (4 shards, "
              f"{diff['total_requests']} requests): "
              f"match={diff['match']} counters={diff['counters_match']} "
              f"completed={diff['completed_match']} "
              f"percentiles={diff['percentiles_match']}")
        if not diff["match"]:
            return 1
    sweep = run_sweep(config, n_shards=args.shards,
                      total_requests=args.requests, rate_rps=args.rate,
                      processes=args.processes, inline=args.inline)
    write_report(sweep, args.out)
    det = sweep["deterministic"]
    timing = sweep["timing"]
    print(f"completed {det['totals']['completed']} requests "
          f"({det['totals']['events']} events) across "
          f"{det['config']['n_shards']} shards in "
          f"{timing['elapsed_seconds']:.1f}s wall "
          f"({timing['requests_per_second']:.0f} req/s, "
          f"efficiency {timing['parallel_efficiency']:.2f} "
          f"over {timing['processes']} processes)")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
