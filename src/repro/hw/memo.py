"""Execution memoization for the NIC datapath.

Serverless traffic is heavily repetitive: the same lambda sees the same
request over and over (the web server's handful of URLs, a hot key in
the KV cache). A pure execution — one that does not write any
persistent memory object — is a deterministic function of (program,
request headers, match metadata, payload), so its
:class:`~repro.isa.interpreter.ExecutionResult` can be replayed instead
of re-executed.

Soundness rests on two rules enforced by :class:`SmartNIC`:

* **Only pure executions are cached.** The JIT engine reports
  whether a run wrote persistent memory (``STORE``/``STORED``/
  ``MEMCPY``/intrinsics declared with ``writes_memory=True``); impure
  runs are never memoised. A run the JIT could not lower falls back
  to the reference interpreter and always counts as impure.
* **Any write to persistent memory invalidates the whole cache.** That
  includes impure lambda executions, RDMA message completion, firmware
  installs, and direct test access via ``SmartNIC.lambda_memory`` —
  cached results may depend on memory contents through loads, so after
  any write no stale replay can survive.

Keys canonicalize the *full* pre-execution input (headers, metadata,
payload digest): results capture their entire input (headers and meta
are returned, and surface as ``lambda_meta`` on response packets), so
only byte-identical requests may share a result. Inputs containing
unhashable values are simply treated as uncacheable.

The cache itself is a small LRU so a long tail of distinct requests
cannot grow it without bound; simulated time is never consulted, so
memoization cannot change simulation results — only wall-clock speed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from ..isa.interpreter import EmittedPacket, ExecutionResult


@dataclass
class MemoCacheStats:
    """Counters for one :class:`ExecutionMemoCache`."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    invalidations: int = 0
    evictions: int = 0
    fences: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _freeze(value: Any) -> Hashable:
    """Canonical hashable form of a (possibly nested) input value.

    Raises ``TypeError`` for values with no canonical form; callers
    treat that as "uncacheable", never as an error.
    """
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _freeze(inner)) for key, inner in value.items()
        ))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(inner) for inner in value)
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    hash(value)  # raises TypeError for unhashable leaves
    return value


def make_key(
    program: Any,
    entry: Optional[str],
    headers: Dict[str, Dict[str, Any]],
    meta: Dict[str, Any],
    payload_digest: Hashable,
) -> Optional[Tuple]:
    """Canonical cache key for one execution, or ``None`` if the inputs
    cannot be canonicalized (unhashable header/meta values)."""
    try:
        return (
            id(program),
            program.name,
            entry,
            _freeze(headers),
            _freeze(meta),
            payload_digest,
        )
    except TypeError:
        return None


def _copy_result(result: ExecutionResult) -> ExecutionResult:
    """Deep-enough copy: cached results must be isolated from callers
    that mutate headers/meta in place (response construction does)."""
    return ExecutionResult(
        verdict=result.verdict,
        return_value=result.return_value,
        cycles=result.cycles,
        instructions_executed=result.instructions_executed,
        region_accesses=dict(result.region_accesses),
        emitted=[
            EmittedPacket(
                headers={k: dict(v) for k, v in emitted.headers.items()},
                meta=dict(emitted.meta),
                payload=emitted.payload,
            )
            for emitted in result.emitted
        ],
        headers={k: dict(v) for k, v in result.headers.items()},
        meta=dict(result.meta),
        response_payload=result.response_payload,
    )


class ExecutionMemoCache:
    """LRU cache of pure lambda :class:`ExecutionResult`s."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = MemoCacheStats()
        self._entries: "OrderedDict[Tuple, ExecutionResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Optional[Tuple]) -> Optional[ExecutionResult]:
        """A replayable copy of the cached result, or ``None``."""
        if key is None:
            self.stats.uncacheable += 1
            return None
        cached = self._entries.get(key)
        if cached is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return _copy_result(cached)

    def put(self, key: Optional[Tuple], result: ExecutionResult) -> None:
        """Cache a *pure* execution's result under ``key``."""
        if key is None:
            return
        self._entries[key] = _copy_result(result)
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop everything: persistent memory has changed."""
        if self._entries:
            self._entries.clear()
        self.stats.invalidations += 1

    def fence(self) -> None:
        """Migration epoch fence: a state import replaced persistent
        memory wholesale, so every cached result is suspect. Tracked
        separately from routine invalidations so migration tests can
        assert the fence actually fired."""
        self.stats.fences += 1
        self.invalidate()
