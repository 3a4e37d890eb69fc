"""The typed metrics registry (single canonical implementation).

Counters, gauges, and histograms with label support, percentile and
ECDF queries, and commutative merging. Every consumer (gateway,
manager, migration controller, NIC/host stats) imports them from here;
``repro.serverless`` re-exports the public names. Percentiles come
from :func:`percentile_of` over a histogram-maintained sorted cache.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: ``(attribute, metric name, help, zero)`` per tracked counter.
CounterTable = Tuple[Tuple[str, str, str, float], ...]


def _labelset(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    if len(labels) == 1:
        return tuple(labels.items())
    return tuple(sorted(labels.items()))


def percentile_of(sorted_data: List[float], q: float) -> float:
    """Nearest-rank percentile over already-sorted data; q in [0, 100].

    The one percentile implementation in the repository: histograms,
    load results, and experiment cells all funnel through here.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if not sorted_data:
        return math.nan
    n = len(sorted_data)
    rank = max(0, min(n - 1, math.ceil(q / 100 * n) - 1))
    return sorted_data[rank]


class Counter:
    """Monotonically increasing count, optionally labelled.

    A labelset can instead be *tracked* (:meth:`track`): its value is a
    plain number on some object that the owner counts with ``+=``, and
    the counter reads it whenever the counter is read.
    """

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelSet, float] = {}
        #: Labelsets whose value is ``getattr(obj, attr)`` at read time.
        self._tracked: Dict[LabelSet, Tuple[object, str]] = {}

    def inc(self, amount: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        self.inc_key(_labelset(labels), amount)

    def inc_key(self, key: LabelSet, amount: float = 1.0) -> None:
        """:meth:`inc` with a prebuilt label key (hot callers cache it)."""
        if amount < 0:
            raise ValueError("counters only go up")
        if key in self._tracked:
            obj, attr = self._tracked[key]
            setattr(obj, attr, getattr(obj, attr) + amount)
            return
        self._values[key] = self._values.get(key, 0.0) + amount

    def track(self, obj: object, attr: str,
              labels: Optional[Dict[str, str]] = None) -> None:
        """Read this labelset's value from ``obj.attr`` whenever the
        counter is read, so the owner counts with a plain ``+=``.

        The labelset appears once the attribute is nonzero. A read
        that finds the attribute below its last read value raises
        :class:`ValueError`: counters are monotone.
        """
        self._tracked[_labelset(labels)] = (obj, attr)

    def _sync(self) -> Dict[LabelSet, float]:
        values = self._values
        for key, (obj, attr) in self._tracked.items():
            value = getattr(obj, attr)
            current = values.get(key, 0.0)
            if value != current:
                if value < current:
                    raise ValueError(
                        f"{attr} is a counter and can only increase: "
                        f"read {value} after {current}")
                values[key] = float(value)
        return values

    def value(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self._sync().get(_labelset(labels), 0.0)

    def items(self) -> List[Tuple[Dict[str, str], float]]:
        """(labels dict, value) pairs for every labelset seen."""
        return [(dict(key), value) for key, value in self._sync().items()]

    @property
    def total(self) -> float:
        return sum(self._sync().values())

    def copy(self) -> "Counter":
        """An independent counter with the same counts, tracked ones
        read now."""
        copied = Counter(self.name, self.help_text)
        copied._values = dict(self._sync())
        return copied

    def merge(self, other: "Counter") -> "Counter":
        """A new counter with both operands' counts (commutative)."""
        merged = Counter(self.name, self.help_text or other.help_text)
        for source in (self, other):
            for key, value in source._sync().items():
                merged._values[key] = merged._values.get(key, 0.0) + value
        return merged

    def __getstate__(self):
        # Tracked sources are live simulation objects: a counter that
        # crosses a process boundary carries their values as read now.
        state = dict(self.__dict__)
        state["_values"] = dict(self._sync())
        state["_tracked"] = {}
        return state


class Gauge:
    """A value that can go up and down."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelSet, float] = {}
        #: Labelsets whose value is ``getattr(obj, attr)`` at read time.
        self._tracked: Dict[LabelSet, Tuple[object, str]] = {}

    def set(self, value: float, labels: Optional[Dict[str, str]] = None) -> None:
        self._values[_labelset(labels)] = value

    def add(self, amount: float, labels: Optional[Dict[str, str]] = None) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def track(self, obj: object, attr: str,
              labels: Optional[Dict[str, str]] = None) -> None:
        """Read this labelset's value from ``obj.attr`` whenever the
        gauge is read, so a hot counter costs nothing to mirror."""
        self._tracked[_labelset(labels)] = (obj, attr)

    def _sync(self) -> Dict[LabelSet, float]:
        for key, (obj, attr) in self._tracked.items():
            self._values[key] = float(getattr(obj, attr))
        return self._values

    def value(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self._sync().get(_labelset(labels), 0.0)

    def items(self) -> List[Tuple[Dict[str, str], float]]:
        """(labels dict, value) pairs for every labelset seen."""
        return [(dict(key), value) for key, value in self._sync().items()]

    def copy(self) -> "Gauge":
        """An independent gauge with the same values, tracked ones read
        now."""
        copied = Gauge(self.name, self.help_text)
        copied._values = dict(self._sync())
        return copied

    def merge(self, other: "Gauge") -> "Gauge":
        """A new gauge summing both operands (commutative by design)."""
        merged = Gauge(self.name, self.help_text or other.help_text)
        for source in (self, other):
            for key, value in source._sync().items():
                merged._values[key] = merged._values.get(key, 0.0) + value
        return merged


class NodeStats:
    """Base of the per-node stats objects (NIC, host server, CPU).

    Each ``COUNTERS`` entry ``(attribute, metric, help, zero)`` is a
    plain number, starting at ``zero``, that the owner counts with
    ``+=``. The registry's counter ``metric`` tracks it under this
    node's labels and reads it whenever it is read or scraped
    (:meth:`MetricsRegistry.track_counters`). ``registry`` and the
    ``{"node": node}`` labels are fixed here, as the tracked counters
    and cached label keys need; a shared registry folds many nodes into
    one scrape surface.
    """

    COUNTERS: CounterTable = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Class-level zeros: an instance's first ``+=`` shadows them.
        for attr, _, _, zero in cls.__dict__.get("COUNTERS", ()):
            setattr(cls, attr, zero)

    def __init__(self, registry: Optional["MetricsRegistry"] = None,
                 node: str = "") -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = {"node": node} if node else None
        self._keys: Dict[Tuple[str, str], LabelSet] = {}
        if self.COUNTERS:
            self.registry.track_counters(self, self.COUNTERS, self.labels)

    def _count(self, counter: Counter, label: str, name: str,
               amount: float = 1.0) -> None:
        """Count under this node's labels plus ``label=name``."""
        key = self._keys.get((label, name))
        if key is None:
            key = self._keys[label, name] = _labelset(
                {**(self.labels or {}), label: name})
        counter.inc_key(key, amount)

    def _by_name(self, metric, label: str, cast=float) -> Dict:
        """``{name: value}`` of a counter or gauge over this node's
        labelsets."""
        node = (self.labels or {}).get("node")
        return {labels[label]: cast(value)
                for labels, value in metric.items()
                if node is None or labels.get("node") == node}


class LambdaStats(NodeStats):
    """Stats of a node that serves lambdas (NIC, host server).

    ``latencies`` is the live observation list of the histogram
    ``LATENCY_METRIC``; ``per_lambda_requests`` is a dict view over the
    counter ``PER_LAMBDA_METRIC``, written by :meth:`count_lambda`.
    Subclasses set both to ``(name, help)``.
    """

    def __init__(self, registry: Optional["MetricsRegistry"] = None,
                 node: str = "") -> None:
        super().__init__(registry, node)
        self._latency_histogram = self.registry.histogram(*self.LATENCY_METRIC)
        self._per_lambda = self.registry.counter(*self.PER_LAMBDA_METRIC)

    @cached_property
    def latencies(self) -> List[float]:
        return self._latency_histogram.raw(self.labels)

    def count_lambda(self, name: str) -> None:
        self._count(self._per_lambda, "lambda", name)

    @property
    def per_lambda_requests(self) -> Dict[str, int]:
        return self._by_name(self._per_lambda, "lambda", int)


class _Series:
    """One labelset's observations with a lazily maintained sort cache.

    Observations only ever append, so the cached sorted copy is valid
    exactly while its length matches the raw list — the check survives
    callers that append to the raw list directly (the NIC/host stats
    latency lists are such views).
    """

    __slots__ = ("values", "_sorted", "_sorted_len")

    def __init__(self) -> None:
        self.values: List[float] = []
        self._sorted: List[float] = []
        self._sorted_len = 0

    def sorted_values(self) -> List[float]:
        if self._sorted_len != len(self.values):
            self._sorted = sorted(self.values)
            self._sorted_len = len(self._sorted)
        return self._sorted


class Histogram:
    """Raw-observation histogram: percentiles, ECDF, merge.

    Each labelset keeps its observations as one list of values; every
    query covers all of them. Drivers that need a phase of a run on its
    own (e.g. during a fault storm and after it) measure each phase
    separately.
    """

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._series: Dict[LabelSet, _Series] = {}

    def _get(self, labels: Optional[Dict[str, str]]) -> Optional[_Series]:
        return self._series.get(_labelset(labels))

    def _get_or_create(self, labels: Optional[Dict[str, str]]) -> _Series:
        key = _labelset(labels)
        series = self._series.get(key)
        if series is None:
            series = _Series()
            self._series[key] = series
        return series

    def observe(self, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        self._get_or_create(labels).values.append(value)

    def raw(self, labels: Optional[Dict[str, str]] = None) -> List[float]:
        """The live observation list (a view, not a copy).

        Exists so legacy ``stats.latencies.append(...)`` call sites can
        be backed by the registry; an append through it is an
        observation like any other.
        """
        return self._get_or_create(labels).values

    def observations(self, labels: Optional[Dict[str, str]] = None) -> List[float]:
        series = self._get(labels)
        return list(series.values) if series else []

    def count(self, labels: Optional[Dict[str, str]] = None) -> int:
        series = self._get(labels)
        return len(series.values) if series else 0

    def mean(self, labels: Optional[Dict[str, str]] = None) -> float:
        series = self._get(labels)
        data = series.values if series else []
        return sum(data) / len(data) if data else math.nan

    def percentile(self, q: float,
                   labels: Optional[Dict[str, str]] = None) -> float:
        """Nearest-rank percentile; q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        series = self._get(labels)
        if series is None:
            return math.nan
        return percentile_of(series.sorted_values(), q)

    def ecdf(self, labels: Optional[Dict[str, str]] = None
             ) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs sorted by value."""
        series = self._get(labels)
        data = series.sorted_values() if series else []
        n = len(data)
        return [(value, (index + 1) / n) for index, value in enumerate(data)]

    def fraction_below(self, threshold: float,
                       labels: Optional[Dict[str, str]] = None) -> float:
        series = self._get(labels)
        data = series.sorted_values() if series else []
        if not data:
            return math.nan
        return bisect.bisect_right(data, threshold) / len(data)

    def copy(self) -> "Histogram":
        """An independent histogram with the same observations."""
        copied = Histogram(self.name, self.help_text)
        for key, series in self._series.items():
            target = copied._series[key] = _Series()
            target.values = list(series.values)
        return copied

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram with both operands' observations.

        Commutative up to observation order: counts, percentiles, and
        ECDFs of ``a.merge(b)`` and ``b.merge(a)`` are identical.
        """
        merged = Histogram(self.name, self.help_text or other.help_text)
        for source in (self, other):
            for key, series in source._series.items():
                target = merged._series.get(key)
                if target is None:
                    target = merged._series[key] = _Series()
                target.values.extend(series.values)
        return merged


class MetricsRegistry:
    """Named registry of metrics: one scrape surface for a testbed."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        #: ``(obj, counters, labels)`` registered by :meth:`track_counters`
        #: whose counters nobody has asked for yet, and those counters'
        #: names.
        self._pending: List[Tuple[object, CounterTable,
                                  Optional[Dict[str, str]]]] = []
        self._pending_names: Set[str] = set()
        #: Tracked counters whose values have all read zero so far.
        self._unlisted: Set[str] = set()

    def counter(self, name: str, help_text: str = "") -> Counter:
        counter = self._get_or_create(name, Counter, help_text)
        self._unlisted.discard(name)
        return counter

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        metric = self._existing(name, Histogram)
        if metric is None:
            metric = Histogram(name, help_text)
            self._metrics[name] = metric
        return metric

    def _get_or_create(self, name: str, cls, help_text: str):
        metric = self._existing(name, cls)
        if metric is None:
            metric = cls(name, help_text)
            self._metrics[name] = metric
        return metric

    def _existing(self, name: str, cls):
        if name in self._pending_names:
            self._track_pending()
        existing = self._metrics.get(name)
        if existing is not None and not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}"
            )
        return existing

    def track_counters(self, obj: object, counters: CounterTable,
                       labels: Optional[Dict[str, str]] = None) -> None:
        """Track ``obj``'s counter attributes: for each ``(attr, name,
        help, zero)`` of ``counters``, counter ``name`` reads
        ``obj.attr`` under ``labels`` (:meth:`Counter.track`).

        Until one of a table's counters is asked for by name or the
        registry is listed, registering an object is one append, so
        building a node costs no registry work. A counter that only
        tracks attributes is listed (by :meth:`names`, :meth:`scrape`,
        :meth:`copy` and :meth:`merge`) from the first listing that
        reads one of its values nonzero, as a counter created at its
        first increment would be.
        """
        if counters[0][1] in self._metrics:
            self._track(obj, counters, labels)
            return
        if counters[0][1] not in self._pending_names:
            self._pending_names.update([entry[1] for entry in counters])
        self._pending.append((obj, counters, labels))

    def _track_pending(self) -> None:
        pending, self._pending = self._pending, []
        self._pending_names = set()
        for obj, counters, labels in pending:
            self._track(obj, counters, labels)

    def _track(self, obj: object, counters: CounterTable,
               labels: Optional[Dict[str, str]]) -> None:
        for attr, name, help_text, _ in counters:
            if name not in self._metrics:
                self._unlisted.add(name)
            self._get_or_create(name, Counter, help_text).track(
                obj, attr, labels)

    def _listed(self) -> Dict[str, object]:
        if self._pending:
            self._track_pending()
        if self._unlisted:
            metrics = self._metrics
            self._unlisted = {name for name in self._unlisted
                              if not metrics[name]._sync()}
            if self._unlisted:
                return {name: metric for name, metric in metrics.items()
                        if name not in self._unlisted}
        return self._metrics

    def register(self, metric) -> None:
        """Adopt an existing metric object (shard-report assembly).

        The factory methods remain the normal path; this exists so
        aggregation code can rebuild a registry from copied metrics —
        e.g. stripping bulky histograms before shipping a shard's
        counters across a process boundary.
        """
        existing = self._listed().get(metric.name)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric

    def names(self) -> List[str]:
        return sorted(self._listed())

    def scrape(self) -> Dict[str, object]:
        """A snapshot of every listed metric, by name.

        Every counter reads its tracked values first, so a reader of
        the counters' labelled values sees them current.
        """
        listed = dict(self._listed())
        for metric in listed.values():
            if isinstance(metric, Counter):
                metric._sync()
        return listed

    def copy(self) -> "MetricsRegistry":
        """An independent registry with copies of every metric."""
        copied = MetricsRegistry()
        for name, metric in self._listed().items():
            copied._metrics[name] = metric.copy()
        return copied

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry merging both operands metric-by-metric.

        Metrics present in both registries must share a type (their
        own ``merge`` combines them — commutative for counters, gauges,
        and histograms alike); one-sided metrics are copied. Iteration
        is name-sorted so the merged registry's internal order — and
        therefore any serialized report built from it — is independent
        of insertion order on either side.
        """
        merged = MetricsRegistry()
        ours, others = self._listed(), other._listed()
        for name in sorted(set(ours) | set(others)):
            mine = ours.get(name)
            theirs = others.get(name)
            if mine is not None and theirs is not None:
                if type(mine) is not type(theirs):
                    raise TypeError(
                        f"metric {name!r} is {type(mine).__name__} on one "
                        f"side, {type(theirs).__name__} on the other"
                    )
                merged._metrics[name] = mine.merge(theirs)
            else:
                present = mine if mine is not None else theirs
                merged._metrics[name] = present.copy()
        return merged

    @classmethod
    def merge_all(cls, registries) -> "MetricsRegistry":
        """Fold any iterable of registries into one (the shard path).

        ``merge_all([])`` is an empty registry; a single registry is
        copied, never aliased, so callers can mutate the result freely.
        """
        merged = cls()
        for registry in registries:
            merged = merged.merge(registry)
        return merged

    def __getstate__(self):
        # Track pending stats objects first: metrics pickle themselves,
        # tracked counters as their values, never as live sources.
        self._listed()
        return self.__dict__
