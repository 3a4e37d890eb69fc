"""A/B comparison of benchmark runs.

``python -m bench.compare A.jsonl B.jsonl`` where A holds the parent's
runs and B the change's, each written by ``python -m bench --out FILE``
(one JSON line per run). Run the two sides alternately, at least ten
times each, with identical settings; run ``i`` of A is paired with run
``i`` of B.

For every (workload, end-to-end metric) row it prints both medians and
quartiles over the runs, the pairs B won, and a verdict:

* ``better``: at least ten pairs, B won at least nine tenths of them,
  and the medians differ by more than A's interquartile range;
* ``unresolved``: either side has fewer than three runs, or either
  side's spread (IQR / median) is wider than the metric's bound, unless
  every B run beats every A run;
* ``worse beyond bound``: B's median is worse than A's by more than the
  bound fixed in BENCHMARK.json;
* ``within bound``: otherwise.

It also flags any workload whose simulated results (``sim_digest``)
differ between A and B runs of the same seed. The exit status is 1 when
a row is worse beyond its bound or a digest differs.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Tuple

from bench.cli import catalogue, quartiles

#: Runs per side below which a spread cannot be told from noise.
MIN_RUNS = 3


def load(path: str) -> List[Dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def samples(runs: List[Dict], workload: str, metric: str) -> List[float]:
    """Each run's value of ``metric`` on ``workload``."""
    return [run["workloads"][workload]["end_to_end"][metric]["value"]
            for run in runs
            if "end_to_end" in run["workloads"].get(workload, {})]


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, int, int]:
    """(verdict, pairs B won, pairs) for one row; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
            and gain > qa[2] - qa[0]:
        return "better", wins, len(pairs)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if min(len(a), len(b)) < MIN_RUNS:
        spread = float("inf")
    every_b_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not every_b_better:
        return "unresolved", wins, len(pairs)
    if -gain / qa[1] > bound:
        return "worse beyond bound", wins, len(pairs)
    return "within bound", wins, len(pairs)


def digests(runs: List[Dict], workload: str) -> Dict[int, set]:
    """sim_digest values seen per seed."""
    seen: Dict[int, set] = {}
    for run in runs:
        sim = run["workloads"].get(workload, {}).get("sim")
        if sim is not None:
            seen.setdefault(run["manifest"]["seed"], set()).add(sim["digest"])
    return seen


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent runs (JSON lines)")
    parser.add_argument("b", help="change runs (JSON lines)")
    args = parser.parse_args(argv)
    runs_a, runs_b = load(args.a), load(args.b)
    catalog = catalogue()
    workloads = [w["name"] for w in catalog["workloads"]]
    status = 0
    print(f"{'workload':<12} {'metric':<14} {'A median':>11} "
          f"{'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} "
          f"{'won':>6}  verdict")
    for workload in workloads:
        for spec in catalog["end_to_end"]:
            a = samples(runs_a, workload, spec["name"])
            b = samples(runs_b, workload, spec["name"])
            if not a or not b:
                continue
            result, wins, pairs = verdict(a, b, spec["better"], spec["bound"])
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<12} {spec['name']:<14} {qa[1]:>11.5g} "
                  f"{qa[0]:>11.5g}..{qa[2]:<10.5g} "
                  f"{qb[1]:>11.5g} {qb[0]:>11.5g}..{qb[2]:<10.5g} "
                  f"{wins:>3}/{pairs:<2}  {result}")
            if result == "worse beyond bound":
                status = 1
        seen_a, seen_b = digests(runs_a, workload), digests(runs_b, workload)
        for seed in sorted(set(seen_a) & set(seen_b)):
            if len(seen_a[seed] | seen_b[seed]) > 1:
                print(f"{workload:<12} SIM DIGEST MISMATCH at seed {seed}: "
                      f"A {sorted(seen_a[seed])} B {sorted(seen_b[seed])}")
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
