"""Structured tracing: sim-time spans across every hop of a request.

A :class:`Tracer` records :class:`Span` objects — named intervals of
simulated time with parent links, a component category, and free-form
tags — plus zero-duration *instant* events (faults, elections,
failover actions). Components find the tracer on their
``Environment`` (``env.tracer``); when it is ``None`` (the default)
instrumentation reduces to one attribute load and a ``None`` check, so
tracing is zero-cost when disabled and — crucially — never schedules
events or consumes randomness, so a traced run is behaviourally
identical to an untraced one (see tests/experiments/
test_trace_differential.py).

Trace context crosses the simulated network in ``packet.meta["trace"]``
as a ``(trace_id, parent_span_id)`` pair: the gateway opens a root span
per user request and stamps outgoing packets; links, switches, NICs,
hosts, and services attach their spans underneath, so one request's
full journey reassembles into a single tree.

Module-level helpers analyse finished traces: tree indices, invariant
checking (child interval inside parent, no orphan parents), root
coverage (what fraction of a request's end-to-end time its descendant
spans account for), shape summaries, and a deterministic digest used by
the golden-trace regression tests.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

TraceContext = Tuple[int, Optional[int]]

#: ``packet.meta`` key carrying the (trace_id, parent_span_id) pair.
META_KEY = "trace"


class Span:
    """One named interval of simulated time.

    ``end`` is ``None`` while the span is open; instants have
    ``end == start``.
    """

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "category",
                 "node", "start", "end", "tags")

    def __init__(self, span_id: int, trace_id: int, parent_id: Optional[int],
                 name: str, category: str, node: str, start: float,
                 end: Optional[float] = None,
                 tags: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = end
        self.tags: Dict[str, Any] = tags if tags is not None else {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.9f}" if self.end is not None else "open"
        return (f"<Span #{self.span_id} {self.name} trace={self.trace_id} "
                f"[{self.start:.9f}..{end}] node={self.node}>")


class Tracer:
    """Collects spans against one environment's simulated clock."""

    def __init__(self, env, max_spans: int = 2_000_000) -> None:
        self.env = env
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def new_trace(self) -> int:
        """A fresh trace id (one per user-visible request)."""
        return next(self._trace_ids)

    def begin(self, name: str, category: str = "", trace_id: int = 0,
              parent: Any = None, node: str = "",
              start: Optional[float] = None,
              tags: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Open a span; ``parent`` is a Span, a span id, or None.

        ``start`` defaults to the current sim time; pass an earlier
        time to account queueing that began before the span could be
        attributed (e.g. an NPU thread grant).
        """
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return None
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(
            next(self._span_ids), trace_id, parent_id, name, category,
            node, self.env.now if start is None else start, None, tags,
        )
        self.spans.append(span)
        return span

    def end(self, span: Optional[Span],
            tags: Optional[Dict[str, Any]] = None) -> None:
        """Close ``span`` at the current sim time (None-safe)."""
        if span is None:
            return
        span.end = self.env.now
        if tags:
            span.tags.update(tags)

    def instant(self, name: str, category: str = "", trace_id: int = 0,
                parent: Any = None, node: str = "",
                tags: Optional[Dict[str, Any]] = None,
                at: Optional[float] = None) -> Optional[Span]:
        """A zero-duration event (fault fired, leader elected, ...) at
        ``at`` (default: now)."""
        span = self.begin(name, category, trace_id, parent, node, start=at,
                          tags=tags)
        if span is not None:
            span.end = span.start
        return span

    def discard(self, spans: Iterable[Optional[Span]]) -> None:
        """Remove recorded spans (None entries are skipped).

        For work recorded ahead of time that turns out not to happen:
        packets of a train that will not arrive after all.
        """
        dead = {id(span) for span in spans if span is not None}
        recorded = self.spans
        # Such spans are recent: only the tail from the oldest of them
        # is rebuilt.
        start, left = len(recorded), len(dead)
        while left and start:
            start -= 1
            if id(recorded[start]) in dead:
                left -= 1
        recorded[start:] = [span for span in recorded[start:]
                            if id(span) not in dead]

    # -- packet context ----------------------------------------------------

    @staticmethod
    def stamp_packet(packet, span: Optional[Span]) -> None:
        """Attach ``span``'s context to a packet about to be sent."""
        if span is not None:
            packet.meta[META_KEY] = (span.trace_id, span.span_id)

    @staticmethod
    def propagate(source_packet, target_packet) -> None:
        """Copy trace context from a request onto its response."""
        ctx = source_packet.meta.get(META_KEY)
        if ctx is not None:
            target_packet.meta[META_KEY] = ctx

    @staticmethod
    def context(packet) -> TraceContext:
        """The (trace_id, parent_span_id) carried by ``packet``."""
        ctx = packet.meta.get(META_KEY)
        return ctx if ctx is not None else (0, None)


# -- trace analysis ---------------------------------------------------------


def spans_by_trace(spans: List[Span]) -> Dict[int, List[Span]]:
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    return by_trace


def roots(spans: List[Span]) -> List[Span]:
    """Spans with no parent (one per traced request, plus singletons)."""
    return [span for span in spans if span.parent_id is None]


def children_index(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    return index


def check_invariants(spans: List[Span]) -> List[str]:
    """Structural violations in a finished trace (empty == healthy).

    Checks: every span finished with ``end >= start``; no orphan
    parent ids; parent and child share a trace id; child intervals lie
    inside their parent's interval.
    """
    violations = []
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.end is None:
            violations.append(f"span #{span.span_id} {span.name} never ended")
            continue
        if span.end < span.start:
            violations.append(
                f"span #{span.span_id} {span.name} ends before it starts"
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            violations.append(
                f"span #{span.span_id} {span.name} has orphan parent "
                f"#{span.parent_id}"
            )
            continue
        if parent.trace_id != span.trace_id:
            violations.append(
                f"span #{span.span_id} {span.name} crosses traces "
                f"({span.trace_id} under {parent.trace_id})"
            )
        if parent.end is not None and (
                span.start < parent.start or span.end > parent.end):
            violations.append(
                f"span #{span.span_id} {span.name} "
                f"[{span.start}..{span.end}] escapes parent "
                f"#{parent.span_id} {parent.name} "
                f"[{parent.start}..{parent.end}]"
            )
    return violations


def coverage_of(root: Span, spans: List[Span]) -> float:
    """Fraction of ``root``'s interval covered by its trace's spans.

    The union of every *other* finished span in the same trace is
    intersected with the root interval; a zero-duration root counts as
    fully covered. This is the "no unaccounted gaps" acceptance check:
    if a request spends time somewhere no component opened a span, the
    coverage drops below 1.
    """
    if root.end is None:
        raise ValueError("root span still open")
    total = root.end - root.start
    if total <= 0:
        return 1.0
    intervals = []
    for span in spans:
        if span is root or span.trace_id != root.trace_id:
            continue
        if span.end is None:
            continue
        lo = max(span.start, root.start)
        hi = min(span.end, root.end)
        if hi > lo:
            intervals.append((lo, hi))
    intervals.sort()
    covered = 0.0
    cursor = root.start
    for lo, hi in intervals:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return covered / total


def tree_shape(spans: List[Span]) -> Dict[str, int]:
    """Span-name and parent>child edge counts (a trace's 'shape').

    The golden tests compare this alongside the exact digest so a
    mismatch report says *what* changed, not just that something did.
    """
    by_id = {span.span_id: span for span in spans}
    shape: Dict[str, int] = {}
    for span in spans:
        shape[span.name] = shape.get(span.name, 0) + 1
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is not None:
            edge = f"{parent.name}>{span.name}"
            shape[edge] = shape.get(edge, 0) + 1
    return shape


def trace_digest(spans: List[Span]) -> str:
    """Deterministic sha256 over the full trace, exact times included.

    Spans are canonicalised (sorted by trace, start time, id; parents
    referenced by their position-independent name-path) so the digest
    is a pure function of the simulation, not of Python object
    identity. Same seed, same code => same digest.
    """
    by_id = {span.span_id: span for span in spans}

    def path(span: Span) -> str:
        names = []
        seen = set()
        cursor: Optional[Span] = span
        while cursor is not None and cursor.span_id not in seen:
            seen.add(cursor.span_id)
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
        return "/".join(reversed(names))

    lines = []
    for span in spans:
        tags = ",".join(f"{key}={span.tags[key]!r}"
                        for key in sorted(span.tags))
        lines.append(
            f"{span.trace_id}|{path(span)}|{span.category}|{span.node}|"
            f"{span.start!r}|{span.end!r}|{tags}"
        )
    lines.sort()
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
