"""Run the benchmark: repeats in fresh processes, checks, metrics, tables.

``python -m bench [--workload NAME] [--seed N] [--seconds S] [--trace]``

Every repeat of a workload runs ``python -m bench.repeat`` in a fresh
Python process, one at a time. A workload gets up to ``REPEATS``
repeats; with ``--seconds`` it stops starting new ones once their timed
windows add up to that many seconds. ``--trace`` adds one cProfile'd
repeat per workload and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from bench import ROOT
from bench.layers import LAYERS
from bench.workloads import WORKLOADS

REPEATS = 5

#: Seconds a whole ``--seconds`` run may take before it gives up.
RUN_BUDGET_S = 170.0

#: Host seconds of one ``bench.repeat.HostProbe`` chunk on the reference
#: host (a 2-core Xeon KVM guest, idle). Window and set-up times are
#: reported as if the host ran Python at that speed.
PROBE_NOMINAL_S = 2.3e-3

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def catalogue() -> Dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    return json.loads(BENCHMARK_JSON.read_text())


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def spawn(workload: str, seed: int, trace: bool, smoke: bool,
          timeout: Optional[float]) -> Dict:
    """Run one repeat in a fresh interpreter and return its JSON."""
    command = [sys.executable, "-m", "bench.repeat", workload,
               "--seed", str(seed)]
    command += ["--trace"] * trace + ["--smoke"] * smoke
    # A fixed hash seed removes one source of host-time noise between
    # repeats (string hashing decides dict and set probe sequences).
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat exceeded {timeout:.0f} s"}
    if done.returncode != 0:
        return {"error": f"repeat exited with {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(repeats: List[Dict]) -> Dict[str, bool]:
    """The checks every run makes; marks each failing repeat ``bad``."""
    digests = [r["digest"] for r in repeats if "error" not in r]
    results = {"completed": True, "ledger": True, "digest": True,
               "no_fallbacks": True, "no_expired_completions": True}
    for r in repeats:
        if "error" in r:
            r["bad"], results["completed"] = True, False
            continue
        sim, counters = r["sim"], r["counters"]
        failing = {
            "ledger": sim["ok"] + sim["failed"] != sim["issued"],
            "digest": r["digest"] != digests[0],
            "no_fallbacks": counters["fallbacks"] != 0,
            "no_expired_completions": any(counters["expired_completions"]),
        }
        r["bad"] = any(failing.values())
        for name, failed in failing.items():
            results[name] = results[name] and not failed
    return results


def summarize(name: str, repeats: List[Dict], traced: Optional[Dict],
              smoke: bool = False) -> Dict:
    """Medians, quartiles, simulated results and (when traced) layers."""
    runs = [r for r in repeats if "error" not in r]
    everything = repeats + ([traced] if traced else [])
    size = WORKLOADS[name].size(smoke)
    summary: Dict = {
        "checks": check(everything),
        "repeats": len(repeats),
        "attempted": size * len(everything),
        "failed": size * sum(1 for r in everything if r["bad"]),
    }
    if not runs:
        return summary
    first = runs[0]
    window_s, slowness = reference_window(runs)
    samples = {
        "sim_req_per_s": [size / r["window_s"] for r in runs],
        "setup_s": [statistics.median(r["setups_s"]) for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    values = {
        "sim_req_per_s": size / window_s,
        "setup_s": statistics.median(
            [t for r in runs for t in r["setups_s"]]) / slowness,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    summary["end_to_end"] = {
        metric: dict(zip(("q1", "median", "q3"), quartiles(samples[metric])),
                     value=values[metric], values=samples[metric])
        for metric in samples
    }
    summary["sim"] = dict(first["sim"], digest=first["digest"])
    summary["window"] = {
        "requests": size,
        "warmup": WORKLOADS[name].warmup,
        "sim_seconds": first["counters"]["sim_window_s"],
        "floor_host_seconds": window_s * slowness,
        "host_slowness": slowness,
        "reference_seconds": window_s,
    }
    summary["tiers"] = first["tiers"]
    if traced and "error" not in traced:
        summary["per_layer"] = per_layer(runs, traced, window_s,
                                         samples["sim_req_per_s"])
    return summary


def reference_window(runs: List[Dict]) -> tuple:
    """(window seconds on the reference host, host slowness factor).

    Every untraced repeat times the same deterministic slices of the
    window (a fixed number of kernel events each) and a fixed probe
    chunk after each slice. Interference from other work on the host
    only ever slows a slice down, so the sum over slices of the fastest
    time any repeat took is the window's cost at the host's best speed
    during the run. The same floor over the probe chunks, against their
    reference time, measures how fast that best speed was; dividing by
    it cancels slowdowns that last the whole run.
    """
    def floor(key: str) -> float:
        return sum(map(min, zip(*(r[key] for r in runs))))

    window = floor("slices_s")
    chunks = min(len(r["probes_s"]) for r in runs)
    if not chunks:
        return window, 1.0
    slowness = floor("probes_s") / (chunks * PROBE_NOMINAL_S)
    return window / slowness, slowness


def per_layer(runs: List[Dict], traced: Dict, window_s: float,
              rates: List[float]) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced repeats, host-time
    shares from the traced one. Per-unit host costs scale a layer's
    traced share by the untraced window in reference-host seconds, which
    removes most of the profiler's inflation."""
    c = runs[0]["counters"]
    issued = runs[0]["sim"]["issued"]
    ok = runs[0]["sim"]["ok"]
    profile = traced["profile"]
    total = profile["total_s"]
    share = {layer: seconds / total
             for layer, seconds in profile["layers_s"].items()}
    setup = traced["setup_profile"]
    q1, median, q3 = quartiles(rates)
    metrics = {f"{layer}.self_share": share[layer]
               for layer in LAYERS + ("other",)}
    metrics.update({
        "sim.events_per_req": c["events"] / issued,
        "sim.host_ns_per_event": share["sim"] * window_s / c["events"] * 1e9,
        "net.packets_per_req": c["packets"] / issued,
        "net.host_us_per_packet":
            share["net"] * window_s / c["packets"] * 1e6,
        "hw.memo_self_share": profile["memo_s"] / total,
        "hw.memo_lookups_per_req": c["memo_lookups"] / issued,
        "hw.memo_hit_ratio":
            c["memo_hits"] / c["memo_lookups"] if c["memo_lookups"] else 0.0,
        "hw.nic_busy_share":
            c["nic_busy_s"] / (c["sim_window_s"] * c["nic_threads"])
            if c["nic_threads"] else 0.0,
        "isa.exec_per_req": c["execs"] / issued,
        "isa.exec_share": profile["exec_s"] / total,
        "isa.jit_compiles": c["jit_compiles"],
        "isa.fallbacks": c["fallbacks"],
        "gateway.attempts_per_req": c["gateway_sends"] / issued,
        "gateway.useful_ratio":
            ok / c["gateway_sends"] if c["gateway_sends"] else 0.0,
        "mem.retained_kb_per_req": statistics.median(
            r["retained_kb"] / r["sim"]["issued"] for r in runs),
        "setup.compile_share": setup["compile_s"] / setup["total_s"],
        "setup.verify_share": setup["verify_s"] / setup["total_s"],
        "setup.jit_share": setup["jit_s"] / setup["total_s"],
        "bench.trace_overhead_x": traced["window_s"] / window_s,
        "bench.rate_iqr_pct": (q3 - q1) / median * 100.0,
    })
    return metrics


def git_state() -> Dict:
    """Revision and dirty flag, or nulls outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": None, "dirty": None}
    return {"rev": rev.stdout.strip() or None,
            "dirty": bool(status.stdout.strip())}


def manifest(args, summaries: Dict[str, Dict]) -> Dict:
    return {
        "seed": args.seed,
        "repeats": {name: s["repeats"] for name, s in summaries.items()},
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "git": git_state(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "engine_tiers": {name: s.get("tiers") for name, s in summaries.items()},
        "windows": {name: s.get("window") for name, s in summaries.items()},
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(name: str, summary: Dict, catalog: Dict) -> None:
    """Human-readable tables for one workload."""
    print(f"== {name}: {summary['repeats']} repeat(s), checks "
          + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                      for k, v in summary["checks"].items()))
    if "end_to_end" not in summary:
        return
    window = summary["window"]
    print(f"   window: {window['requests']} requests after "
          f"{window['warmup']} warm-up, {window['sim_seconds']:.6g} sim s, "
          f"{window['floor_host_seconds']:.6g} floor host s; host at "
          f"{window['host_slowness']:.4g}x reference time, so "
          f"{window['reference_seconds']:.6g} reference s")
    print(f"   {'metric':<16}{'unit':<6}{'value':>12}   raw per repeat:"
          f"{'median':>11}{'q1':>12}{'q3':>12}")
    for spec in catalog["end_to_end"]:
        row = summary["end_to_end"][spec["name"]]
        print(f"   {spec['name']:<16}{spec['unit']:<6}{row['value']:>12.6g}"
              f"{'':>15}{row['median']:>11.6g}{row['q1']:>12.6g}"
              f"{row['q3']:>12.6g}")
    sim = summary["sim"]
    tail = (f"p{sim['tail_pct']} ({sim['tail_beyond']} samples beyond)"
            if sim["tail_pct"] is not None else "n/a")
    print(f"   simulated: fail_ratio {_fmt(sim['fail_ratio'])} "
          f"({sim['failed']}/{sim['issued']} {dict(sim['failures'])}), "
          f"sim_p50_us {_fmt(sim['sim_p50_us'])}, "
          f"sim_tail_us {_fmt(sim['sim_tail_us'])} at {tail}")
    if WORKLOADS[name].open_loop:
        print("   open-loop generator lateness: 0 s (sim-time schedule)")
    print(f"   sim_digest {sim['digest']}")
    if "per_layer" in summary:
        print(f"   {'per-layer metric':<28}{'unit':<12}{'value':>14}")
        for spec in catalog["per_layer"]:
            print(f"   {spec['name']:<28}{spec['unit']:<12}"
                  f"{summary['per_layer'][spec['name']]:>14.6g}")


def run(args) -> Dict[str, Dict]:
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = (time.monotonic() + RUN_BUDGET_S
                if args.seconds is not None else None)

    def remaining() -> Optional[float]:
        return None if deadline is None else max(1.0, deadline - time.monotonic())

    summaries = {}
    for name in names:
        repeats: List[Dict] = []
        measured = 0.0
        while len(repeats) < REPEATS:
            repeats.append(spawn(name, args.seed, False, args.smoke,
                                 remaining()))
            measured += repeats[-1].get("window_s", 0.0)
            if "error" in repeats[-1] or (
                    args.seconds is not None and measured >= args.seconds):
                break
        traced = (spawn(name, args.seed, True, args.smoke, remaining())
                  if args.trace else None)
        summaries[name] = summarize(name, repeats, traced, args.smoke)
    return summaries


def result_line(summaries: Dict[str, Dict], trace: bool,
                catalog: Dict) -> Dict:
    """The final JSON object; metric names are prefixed with the
    workload only when more than one workload ran."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, summary in summaries.items():
        prefix = f"{name}." if len(summaries) > 1 else ""
        values = summary.get(section)
        if values is None:
            continue
        for spec in catalog[section]:
            value = values[spec["name"]]
            if isinstance(value, dict):
                value = value["value"]
            metrics[prefix + spec["name"]] = {"value": value,
                                              "unit": spec["unit"]}
    correct = all(all(s["checks"].values()) for s in summaries.values())
    return {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop starting repeats once the timed windows "
                             f"add up to this (at most {REPEATS} repeats)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a cProfile'd repeat and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1%% window sizes, for the self-test")
    parser.add_argument("--out", help="append the run, with its manifest, "
                                      "to this JSON-lines file")
    args = parser.parse_args(argv)
    catalog = catalogue()
    summaries = run(args)
    stamp = manifest(args, summaries)
    print("manifest " + json.dumps(stamp))
    for name, summary in summaries.items():
        report(name, summary, catalog)
    line = result_line(summaries, bool(args.trace), catalog)
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"manifest": stamp,
                                  "workloads": summaries}) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1
