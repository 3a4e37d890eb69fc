"""Observability: structured tracing, typed metrics, trace export.

``repro.obs`` is the seeing-eye of the reproduction: spans record
where simulated time goes inside every request (gateway -> wire ->
NIC/host -> back), the metrics registry is the single home for
counters/gauges/histograms across the stack, and the exporters turn a
run into a Perfetto-loadable artifact. Tracing is opt-in per
environment (``env.tracer``), costs nothing when off, and never
perturbs the simulation when on.
"""

from .export import (
    TraceCollection,
    chrome_events,
    span_records,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelSet,
    LambdaStats,
    MetricsRegistry,
    NodeStats,
    percentile_of,
)
from .tracer import (
    META_KEY,
    Span,
    Tracer,
    check_invariants,
    children_index,
    coverage_of,
    roots,
    spans_by_trace,
    trace_digest,
    tree_shape,
)

__all__ = [
    "META_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "LambdaStats",
    "MetricsRegistry",
    "NodeStats",
    "Span",
    "TraceCollection",
    "Tracer",
    "check_invariants",
    "children_index",
    "chrome_events",
    "coverage_of",
    "percentile_of",
    "roots",
    "span_records",
    "spans_by_trace",
    "trace_digest",
    "tree_shape",
    "write_chrome_trace",
]
