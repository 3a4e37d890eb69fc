"""One benchmark repeat, run in its own fresh Python process.

``python -m bench.repeat WORKLOAD --seed N [--trace] [--smoke]`` sets
the workload up several times (timing each), warms it up, runs one
timed window, and prints a single JSON object describing it: host
times, the simulated outcome of every request, a digest of the
simulated results, and the program's counters over the window. With
``--trace`` one set-up and the window run under cProfile instead, and
the object carries the per-layer attribution.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import math
import resource
import time
from typing import Dict, List, Optional

from bench.layers import Profile
from bench.workloads import WORKLOADS, Outcomes, Workload
from repro.serverless import Testbed
from repro.workloads import standard_workloads

#: Untraced set-ups per repeat: at least this many, and at least
#: SETUP_MIN_SECONDS of them, so a ~1 ms set-up is timed many times.
SETUP_MIN_COUNT = 3
SETUP_MIN_SECONDS = 0.3
SETUP_MAX_COUNT = 50

#: Kernel events per timed slice of an untraced window. Slices are
#: deterministic for a seed, so the parent can take, slice by slice, the
#: fastest time any repeat needed (see ``bench.cli.reference_window``).
SLICE_EVENTS = 10_000


class HostProbe:
    """A fixed pure-Python event loop (heap, generators, dict updates),
    run for a few milliseconds after every window slice to sample how
    fast the host runs Python at that moment. It shares no state with
    the simulator, and the cyclic GC is paused while it runs so that
    collections of the simulator's garbage stay in the window."""

    STEPS = 4_000

    def __init__(self) -> None:
        self._box: Dict[int, int] = {}
        self._heap = [(0.0, k) for k in range(64)]
        self._procs = [self._proc(k) for k in range(64)]

    def _proc(self, k: int):
        box, i = self._box, 0
        while True:
            i += 1
            box[k % 7] = box.get(k % 7, 0) + i
            yield (i * 7919 + k) % 97 * 1e-6

    def chunk(self) -> float:
        """Host seconds one fixed chunk of the loop takes right now."""
        heap, procs = self._heap, self._procs
        gc.disable()
        started = time.perf_counter()
        for _ in range(self.STEPS):
            now, k = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(procs[k]), k))
        elapsed = time.perf_counter() - started
        gc.enable()
        return elapsed


def snapshot(tb: Testbed) -> Dict:
    """The program's public counters that the window's deltas come from."""
    network = tb.network
    switch = network.switch.name
    links = {}
    for name in network.nodes:
        link = network.link(name)
        for src, dst in ((name, switch), (switch, name)):
            stats = link.stats(src)
            links[f"{src}>{dst}"] = (stats.packets_sent, stats.bytes_sent,
                                     stats.packets_dropped)
    engines = [nic.engine.stats for nic in tb.nics
               if getattr(nic.engine, "stats", None) is not None]
    memos = [nic.memo.stats for nic in tb.nics if nic.memo is not None]
    return {
        "events": tb.env._eid,
        "sim_now": tb.env.now,
        "links": links,
        "gateway_tx": tb.gateway.node.tx_packets,
        "execs": sum(stats.lookups for stats in engines),
        "jit_compiles": sum(stats.misses for stats in engines),
        "fallbacks": sum(stats.fallbacks for stats in engines),
        "memo_lookups": sum(stats.lookups for stats in memos),
        "memo_hits": sum(stats.hits for stats in memos),
        "nic_busy_s": sum(nic.stats.busy_seconds for nic in tb.nics),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sim_results(outcomes: Outcomes) -> Dict:
    """Simulated statistics of the window; identical for a given seed."""
    ordered = sorted(outcomes.latencies)
    results = {
        "issued": outcomes.issued,
        "ok": outcomes.ok,
        "failed": outcomes.failed,
        "failures": dict(sorted(outcomes.failures.items())),
        "fail_ratio": outcomes.failed / outcomes.issued,
        "sim_p50_us": None, "sim_tail_us": None,
        "tail_pct": None, "tail_beyond": 0,
    }
    if ordered:
        results["sim_p50_us"] = percentile(ordered, 50) * 1e6
        # The highest of p99/p95/p90 with at least ten samples beyond it.
        for pct in (99, 95, 90, 50):
            beyond = len(ordered) - math.ceil(pct / 100.0 * len(ordered))
            if beyond >= 10 or pct == 50:
                break
        results.update(sim_tail_us=percentile(ordered, pct) * 1e6,
                       tail_pct=pct, tail_beyond=beyond)
    return results


def sim_digest(outcomes: Outcomes, events: int,
               links: Dict[str, tuple]) -> str:
    """SHA-256 over the window's simulated results: sorted latencies,
    failures by cause, kernel events and per-direction link counters."""
    payload = {
        "latencies": [x.hex() for x in sorted(outcomes.latencies)],
        "failures": sorted(outcomes.failures.items()),
        "events": events,
        "links": sorted(links.items()),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _timed_setups(workload: Workload, seed: int) -> tuple:
    """Set up repeatedly; returns (seconds of each set-up, last testbed)."""
    times: List[float] = []
    tb = None
    while (len(times) < SETUP_MIN_COUNT or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_COUNT:
        tb = None
        gc.collect()
        started = time.perf_counter()
        tb = workload.setup(seed)
        times.append(time.perf_counter() - started)
    return times, tb


def _sliced(tb: Testbed, window) -> tuple:
    """Run the window, timing every SLICE_EVENTS kernel events and
    sampling the host with a probe chunk after each full slice.

    Returns (outcomes, slice seconds, probe seconds). The kernel's
    ``step`` is wrapped for the window only; the wrapper neither
    schedules events nor touches simulated state, and probe time is
    left out of the slices.
    """
    env = tb.env
    inner = env.step
    probe = HostProbe()
    slices: List[float] = []
    probes: List[float] = []
    count = 0
    last = time.perf_counter()

    def step():
        nonlocal count, last
        inner()
        count += 1
        if count == SLICE_EVENTS:
            count = 0
            slices.append(time.perf_counter() - last)
            probes.append(probe.chunk())
            last = time.perf_counter()

    env.step = step
    try:
        outcomes = window()
    finally:
        del env.step
    slices.append(time.perf_counter() - last)
    return outcomes, slices, probes


def run_repeat(name: str, seed: int, trace: bool = False,
               smoke: bool = False) -> Dict:
    workload = WORKLOADS[name]
    out: Dict = {"workload": name, "seed": seed, "traced": trace}
    if trace:
        profile = cProfile.Profile()
        tb = profile.runcall(workload.setup, seed)
        setup = Profile(profile)
        out["setup_profile"] = {
            "total_s": setup.total_s,
            "compile_s": setup.inclusive_s("compiler/"),
            "verify_s": setup.inclusive_s("isa/verify/"),
            "jit_s": setup.inclusive_s("isa/jit.py"),
        }
    else:
        out["setups_s"], tb = _timed_setups(workload, seed)

    workload.warm_up(tb, smoke)
    window = workload.start(tb, smoke)
    gc.collect()
    before = snapshot(tb)
    if trace:
        profile = cProfile.Profile()
        started = time.perf_counter()
        outcomes = profile.runcall(window)
        out["window_s"] = time.perf_counter() - started
    else:
        outcomes, out["slices_s"], out["probes_s"] = _sliced(tb, window)
        out["window_s"] = sum(out["slices_s"])
    after = snapshot(tb)

    delta = {key: after[key] - before[key] for key in after
             if key not in ("links", "fallbacks")}
    links = {key: tuple(a - b for a, b in zip(counts, before["links"][key]))
             for key, counts in after["links"].items()}
    segments = 1
    spec = standard_workloads()[workload.lambdas[0]]
    if spec.uses_rdma:
        segments = -(-spec.request_bytes // tb.gateway.rdma_segment_bytes)
    out.update(
        sim=sim_results(outcomes),
        digest=sim_digest(outcomes, delta["events"], links),
        counters={
            "events": delta["events"],
            "sim_window_s": delta["sim_now"],
            "packets": sum(counts[0] for counts in links.values()),
            "gateway_sends": delta["gateway_tx"] / segments,
            "execs": delta["execs"],
            "jit_compiles": delta["jit_compiles"],
            "fallbacks": after["fallbacks"],
            "memo_lookups": delta["memo_lookups"],
            "memo_hits": delta["memo_hits"],
            "nic_busy_s": delta["nic_busy_s"],
            "nic_threads": sum(nic.total_threads for nic in tb.nics),
            "expired_completions": [nic.stats.expired_completions
                                    for nic in tb.nics],
        },
        tiers=_tier_stats(tb),
        peak_rss_mb=after["maxrss_kb"] / 1024.0,
        retained_kb=delta["maxrss_kb"],
    )
    if trace:
        window_profile = Profile(profile)
        out["profile"] = {
            "total_s": window_profile.total_s,
            "layers_s": window_profile.layer_s(),
            "memo_s": window_profile.module_s.get("hw/memo.py", 0.0),
            "exec_s": window_profile.function_s("isa/jit.py", "execute"),
        }
    return out


def _tier_stats(tb: Testbed) -> Dict[str, Dict[str, int]]:
    """Compile-cache totals per engine tier, summed over every NIC."""
    tiers: Dict[str, Dict[str, int]] = {}
    for nic in tb.nics:
        for tier, stats in nic.stats.compile_cache_stats().items():
            into = tiers.setdefault(tier, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return tiers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.repeat")
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run_repeat(args.workload, args.seed, trace=args.trace,
                        smoke=args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
