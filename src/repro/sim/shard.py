"""Sharded simulation: partition one experiment across processes.

A cluster experiment that is *partitionable* — no packet ever crosses
between two partitions — can be simulated as independent shards, one
discrete-event kernel per shard, executed across ``multiprocessing``
workers and merged afterwards. This module owns the generic machinery:

``ShardSpec``
    What one shard needs to reconstruct its slice of the experiment
    deterministically: its index, the shard count, a per-shard seed
    derived from the experiment seed, and the experiment parameters.

``owner_of`` / ``split_arrivals``
    The request-id ownership function. Every request id is owned by
    exactly one shard (``request_id % n_shards``), so any stream of
    requests splits into disjoint, covering sub-streams — the
    invariant the sharded-vs-monolithic differential harness rests on.

``run_shards``
    Executes a picklable worker over every spec, either inline in this
    process (the determinism baseline: shard results must not depend
    on *where* they ran) or across a process pool, and returns results
    in shard order so merges are reproducible byte-for-byte.

The aggregation layer is ``repro.obs``: each worker returns a
picklable payload (typically a :class:`~repro.obs.MetricsRegistry`
plus summary numbers) and the caller folds them with
``MetricsRegistry.merge`` / ``TraceCollection.extend`` — both
commutative, so shard completion order cannot leak into results.

This module deliberately knows nothing about testbeds or gateways:
the experiment layer (``repro.experiments.scale_sweep``) supplies the
worker function. Keeping the dependency one-way (experiments -> sim)
avoids an import cycle and keeps the kernel importable in worker
processes before the heavyweight packages load.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "ShardSpec",
    "make_shard_specs",
    "owner_of",
    "split_arrivals",
    "shard_seed",
    "run_shards",
    "default_processes",
]


def shard_seed(seed: int, index: int) -> int:
    """The derived seed for shard ``index`` of an experiment.

    Uses the same SHA-256 derivation as :class:`~repro.sim.rng.RngRegistry`
    namespacing, so shard seeds are independent of each other and of
    every in-shard stream name, and stable across platforms (unlike
    ``hash()``).
    """
    digest = hashlib.sha256(f"{seed}:shard:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard worker needs, picklable by construction."""

    index: int
    n_shards: int
    #: Per-shard seed (see :func:`shard_seed`); the *experiment* seed
    #: travels in ``params`` when workers need it (e.g. to regenerate
    #: the shared arrival stream).
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not 0 <= self.index < self.n_shards:
            raise ValueError(
                f"shard index {self.index} outside [0, {self.n_shards})"
            )

    def owns(self, request_id: int) -> bool:
        """True when this shard owns ``request_id``."""
        return request_id % self.n_shards == self.index


def make_shard_specs(n_shards: int, seed: int,
                     params: Optional[Dict[str, Any]] = None) -> List[ShardSpec]:
    """Specs for every shard of an ``n_shards``-way experiment."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return [
        ShardSpec(index=index, n_shards=n_shards,
                  seed=shard_seed(seed, index), params=dict(params or {}))
        for index in range(n_shards)
    ]


def owner_of(request_id: int, n_shards: int) -> int:
    """The shard owning ``request_id``: a total, deterministic map.

    Modulo assignment keeps per-shard load balanced for sequential
    request ids and — crucially — depends only on the id, never on
    time, shard state, or randomness, so ownership can be recomputed
    anywhere (parent process, worker, test harness) with no
    coordination.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return request_id % n_shards


def split_arrivals(arrivals: Iterable, n_shards: int,
                   key: Callable[[Any], int] = None) -> List[List]:
    """Partition an arrival stream into per-shard sub-streams.

    ``key`` extracts the request id from one arrival record (defaults
    to ``record.request_id``). The result is a true partition: every
    record lands in exactly one shard's list, in original stream
    order, so ``sum(len(s) for s in shards) == len(stream)`` always.
    """
    if key is None:
        key = lambda record: record.request_id
    shards: List[List] = [[] for _ in range(n_shards)]
    for record in arrivals:
        shards[key(record) % n_shards].append(record)
    return shards


def default_processes(n_shards: int) -> int:
    """Process-pool size: one worker per shard, capped by cores."""
    cores = os.cpu_count() or 1
    return max(1, min(n_shards, cores))


def run_shards(
    worker: Callable[[ShardSpec], Any],
    specs: Sequence[ShardSpec],
    processes: Optional[int] = None,
    method: Optional[str] = None,
    inline: bool = False,
) -> List[Any]:
    """Run ``worker`` over every spec; results in shard order.

    ``inline=True`` executes sequentially in this process — the
    differential baseline proving results are a pure function of the
    spec, not of the process they ran in. Otherwise a process pool of
    ``processes`` workers (default: one per shard, capped at the core
    count) runs them via the ``method`` start method (default:
    ``fork`` where available — workers inherit warm imports — else
    ``spawn``).

    ``worker`` must be picklable (a module-level function) and must
    build *all* of its state from the spec: any ambient state it reads
    would differ between inline and pooled execution and break the
    equivalence the harness checks.
    """
    specs = list(specs)
    if [spec.index for spec in specs] != list(range(len(specs))) or \
            any(spec.n_shards != len(specs) for spec in specs):
        raise ValueError("specs must be complete and in shard order")
    if inline or len(specs) <= 1:
        return [worker(spec) for spec in specs]
    if method is None:
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
    context = multiprocessing.get_context(method)
    n_procs = processes if processes is not None else default_processes(len(specs))
    with context.Pool(processes=max(1, n_procs)) as pool:
        # map() preserves input order, so merges downstream see shards
        # 0..N-1 regardless of completion order.
        return pool.map(worker, specs)
