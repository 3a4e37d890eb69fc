"""A Prometheus-style metrics registry.

The canonical implementation lives in :mod:`repro.obs.metrics`; this
module re-exports it so serverless-layer consumers (gateway, manager,
migration controller) keep their import surface. Compared to the old
in-module copy, histograms maintain a sorted cache instead of
re-sorting the raw observation list on every percentile call and merge
commutatively — and the nearest-rank percentile logic exists exactly
once (:func:`repro.obs.metrics.percentile_of`).
"""

from __future__ import annotations

from ..obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelSet,
    MetricsRegistry,
    percentile_of,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "MetricsRegistry",
    "percentile_of",
]
