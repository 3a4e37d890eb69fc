"""Shared experiment machinery: every driver builds, runs and reports
its testbed scenarios through here.

A scenario *body* is a generator function of the environment. It
yields kernel events (a load generator, an etcd leader wait) and
delegates with ``yield from`` to the harness's own steps
(:func:`deploy`, :func:`open_loop_phase`). :func:`run_scenario` runs
one body to completion on its testbed and returns the body's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import TraceCollection
from ..serverless import LoadResult, Testbed, closed_loop, open_loop
from ..workloads import WorkloadSpec


def run_scenario(tb: Testbed, body: Callable) -> Any:
    """Run ``body(env)`` as one process to completion; return its value.
    An exception raised inside the body propagates out of here."""
    return tb.run(until=tb.env.process(body(tb.env)))


def deploy(tb: Testbed, specs: Sequence[WorkloadSpec], backend_kind: str):
    """Scenario step: deploy ``specs`` on ``backend_kind``, one by one;
    returns their deploy records in order."""
    records = []
    for spec in specs:
        records.append((yield tb.manager.deploy(spec, backend_kind)))
    return records


def request_bytes(spec: WorkloadSpec) -> Optional[int]:
    """Payload size a client sends to ``spec`` (RDMA workloads only)."""
    return spec.request_bytes if spec.uses_rdma else None


def open_loop_phase(tb: Testbed, phase: str,
                    loads: Iterable[Tuple[WorkloadSpec, float]],
                    duration: float, **open_loop_kwargs):
    """Scenario step: one open loop per ``(spec, rate_rps)``, run together.

    Each loop draws its arrivals from the rng stream
    ``load:<phase>:<workload>``. Returns ``{workload: LoadResult}``
    once every loop has finished.
    """
    procs = {}
    for spec, rate_rps in loads:
        procs[spec.name] = open_loop(
            tb.env, tb.gateway, spec.name,
            rate_rps=rate_rps, duration=duration,
            rng=tb.rng.stream(f"load:{phase}:{spec.name}"),
            payload_bytes=request_bytes(spec),
            **open_loop_kwargs,
        )
    yield tb.env.all_of(list(procs.values()))
    return {name: proc.value for name, proc in procs.items()}


@dataclass
class Cell:
    """One (workload, backend) measurement in a table/figure."""

    workload: str
    backend: str
    mean: float = 0.0
    p50: float = 0.0
    p99: float = 0.0
    throughput: float = 0.0
    samples: List[float] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """A formatted, paper-vs-measured experiment result."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    notes: List[str] = field(default_factory=list)
    cells: Dict[Any, Cell] = field(default_factory=dict)
    #: Spans collected across the experiment's cells when the config
    #: asked for tracing (``ExperimentConfig.trace``); None otherwise.
    trace: Optional[TraceCollection] = None

    def format(self) -> str:
        widths = [len(str(h)) for h in self.headers]
        rendered_rows = []
        for row in self.rows:
            rendered = [_render(value) for value in row]
            widths = [max(w, len(r)) for w, r in zip(widths, rendered)]
            rendered_rows.append(rendered)
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for rendered in rendered_rows:
            lines.append("  ".join(r.ljust(w)
                                   for r, w in zip(rendered, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def load_cell(workload: str, backend: str, load: LoadResult,
              **extra: Any) -> Cell:
    """A :class:`Cell` summarising one load run's latencies and rate."""
    return Cell(
        workload=workload,
        backend=backend,
        mean=load.mean_latency,
        p50=load.percentile(50),
        p99=load.percentile(99),
        throughput=load.throughput_rps,
        samples=sorted(load.latencies),
        extra=extra,
    )


def closed_loop_cell(spec: WorkloadSpec, backend: str, n_requests: int,
                     concurrency: int, seed: int,
                     collection: Optional[TraceCollection] = None,
                     label: str = "") -> Cell:
    """One warm workload alone on a fresh one-worker testbed, measured
    by a closed loop of ``n_requests`` at ``concurrency``.

    With a ``collection``, the testbed traces and its spans are added
    under ``label``.
    """
    tb = Testbed(seed=seed, n_workers=1, with_tracing=collection is not None)
    tb.add_backend(backend)

    def body(env):
        yield from deploy(tb, [spec], backend)
        return (yield closed_loop(
            env, tb.gateway, spec.name,
            n_requests=n_requests, concurrency=concurrency,
            payload_bytes=request_bytes(spec),
        ))

    load = run_scenario(tb, body)
    if collection is not None:
        collection.add(label, tb.tracer)
    return load_cell(spec.name, backend, load,
                     concurrency=concurrency, completed=load.completed)


def _render(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        if abs(value) >= 1e-3:
            return f"{value * 1e3:.3f}m"
        return f"{value * 1e6:.2f}u"
    return str(value)


def mib(value_bytes: float) -> float:
    return value_bytes / (1024.0 * 1024.0)
