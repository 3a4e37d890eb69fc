"""Trace exporters: Chrome ``trace_event`` JSON and flat JSONL.

The Chrome format loads directly into Perfetto (ui.perfetto.dev) or
``chrome://tracing``: each simulated node becomes a process row and
each trace (one user request) a thread row, so a request's hops line
up left-to-right across the components it visited. The JSONL export is
one span per line for ad-hoc ``jq``/pandas analysis.

Sim time is in seconds; Chrome wants microseconds, so timestamps are
scaled by 1e6.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .tracer import Span, Tracer

#: Sim seconds -> Chrome trace microseconds.
_US = 1e6


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_events(spans: List[Span], pid_offset: int = 0,
                  label: str = "") -> List[Dict[str, Any]]:
    """Chrome ``trace_event`` dicts (complete 'X' + instant 'i' events).

    ``pid_offset``/``label`` let multiple independent simulations (one
    per experiment cell) coexist in a single file without colliding
    process ids.
    """
    nodes = sorted({span.node or "(none)" for span in spans})
    pids = {node: pid_offset + index + 1 for index, node in enumerate(nodes)}
    events: List[Dict[str, Any]] = []
    for node, pid in pids.items():
        name = f"{label}:{node}" if label else node
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    for span in spans:
        if span.end is None:
            continue
        args = {key: _jsonable(value) for key, value in sorted(span.tags.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category or "span",
            "pid": pids[span.node or "(none)"],
            "tid": span.trace_id,
            "ts": span.start * _US,
            "args": args,
        }
        if span.end > span.start:
            event["ph"] = "X"
            event["dur"] = (span.end - span.start) * _US
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return events


def span_records(spans: List[Span], label: str = "") -> List[Dict[str, Any]]:
    """Flat dicts (one per finished span) for the JSONL export."""
    records = []
    for span in spans:
        if span.end is None:
            continue
        record: Dict[str, Any] = {
            "span_id": span.span_id,
            "trace_id": span.trace_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "category": span.category,
            "node": span.node,
            "start": span.start,
            "end": span.end,
            "tags": {key: _jsonable(value)
                     for key, value in sorted(span.tags.items())},
        }
        if label:
            record["run"] = label
        records.append(record)
    return records


class TraceCollection:
    """Traces from one or more simulations, exported as one artifact.

    Experiment drivers that build a fresh testbed per cell (fig6 runs
    nine) add each cell's tracer under a label; the Chrome export keeps
    them apart via per-run process ids.
    """

    #: Process-id stride between runs (few simulations have more nodes).
    PID_STRIDE = 1000

    def __init__(self) -> None:
        self.runs: List[Tuple[str, List[Span]]] = []

    def add(self, label: str, tracer_or_spans) -> None:
        spans = (tracer_or_spans.spans
                 if isinstance(tracer_or_spans, Tracer) else tracer_or_spans)
        self.runs.append((label, list(spans)))

    def extend(self, other: "TraceCollection") -> None:
        """Concatenate another collection's runs onto this one.

        The shard aggregation path: each worker ships its own
        collection home (spans are plain picklable dataclasses) and the
        parent folds them in shard order, so the combined artifact is
        reproducible run-to-run.
        """
        for label, spans in other.runs:
            self.runs.append((label, list(spans)))

    @property
    def n_spans(self) -> int:
        return sum(len(spans) for _, spans in self.runs)

    def spans_for(self, label: str) -> List[Span]:
        for run_label, spans in self.runs:
            if run_label == label:
                return spans
        raise KeyError(f"no trace run labelled {label!r}")

    def labels(self) -> List[str]:
        return [label for label, _ in self.runs]

    def to_chrome(self) -> Dict[str, Any]:
        events: List[Dict[str, Any]] = []
        for index, (label, spans) in enumerate(self.runs):
            events.extend(chrome_events(
                spans, pid_offset=index * self.PID_STRIDE, label=label,
            ))
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome(self, path: str) -> None:
        """Write a Perfetto-loadable Chrome trace JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh, separators=(",", ":"))
            fh.write("\n")

    def write_jsonl(self, path: str) -> None:
        """Write one finished span per line (flat JSON records)."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, spans in self.runs:
                for record in span_records(spans, label=label):
                    fh.write(json.dumps(record, separators=(",", ":")))
                    fh.write("\n")


def write_chrome_trace(spans: List[Span], path: str) -> None:
    """One-shot Chrome export for a single tracer's spans."""
    collection = TraceCollection()
    collection.add("", spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": chrome_events(spans),
                   "displayTimeUnit": "ns"}, fh, separators=(",", ":"))
        fh.write("\n")
