"""Host CPU model: hardware threads, affinity, context switches.

The pool hands out hardware threads LIFO (most-recently-freed first),
which models the scheduler's cache-affinity preference: a single lambda
in a closed loop keeps hitting the same warm thread and pays no context
switches, while several lambdas interleaving on the same threads switch
constantly — exactly the contrast the paper's Figure 8 measures.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..obs import MetricsRegistry, NodeStats
from ..sim import Environment, Event
from .params import CpuParams


class CpuStats(NodeStats):
    """CPU accounting, backed by a typed metrics registry.

    Counters are plain numbers the registry reads when scraped — see
    :class:`repro.hw.nic.NicStats` for the pattern. ``per_task_busy``
    is a dict view over a labelled counter; writers use
    :meth:`add_task_busy`.
    """

    COUNTERS = (
        ("context_switches", "cpu_context_switches_total",
         "task switches on hardware threads", 0),
        ("busy_seconds", "cpu_busy_seconds_total",
         "CPU time charged", 0.0),
        ("requests", "cpu_requests_total",
         "execute() grants", 0),
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 node: str = "") -> None:
        super().__init__(registry, node)
        self._per_task = self.registry.counter(
            "cpu_task_busy_seconds_total", "CPU time charged per task")

    def add_task_busy(self, task: str, cpu_seconds: float) -> None:
        self._count(self._per_task, "task", task, cpu_seconds)

    @property
    def per_task_busy(self) -> Dict[str, float]:
        return self._by_name(self._per_task, "task")

    def utilization(self, elapsed: float, n_threads: int) -> float:
        """Machine-wide CPU utilisation over ``elapsed`` (0..1)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * n_threads))

    def task_utilization(self, task: str, elapsed: float, n_threads: int) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.per_task_busy.get(task, 0.0) / (elapsed * n_threads))


class _LifoThreadPool:
    """LIFO pool of hardware-thread ids; waiters are served in FIFO order."""

    def __init__(self, n: int) -> None:
        self._free: List[int] = list(range(n))[::-1]
        self._waiting: Deque[tuple] = deque()

    def acquire(self, then: Callable[[int, Any], None], value: Any) -> None:
        """Run ``then(thread_id, value)`` once a thread is free."""
        if self._free:
            then(self._free.pop(), value)
        else:
            self._waiting.append((then, value))

    def release(self, thread_id: int) -> None:
        """Hand ``thread_id`` to the oldest waiter, or free it."""
        if self._waiting:
            then, value = self._waiting.popleft()
            then(thread_id, value)
        else:
            self._free.append(thread_id)


class HostCPU:
    """A multi-threaded server CPU."""

    def __init__(self, env: Environment, params: Optional[CpuParams] = None,
                 n_threads: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 node: str = "") -> None:
        self.env = env
        self.params = params or CpuParams()
        self.n_threads = n_threads if n_threads is not None else self.params.n_threads
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")
        self._pool = _LifoThreadPool(self.n_threads)
        self._last_task: List[Optional[str]] = [None] * self.n_threads
        self.stats = CpuStats(registry=metrics, node=node)

    def execute(self, task_id: str, cpu_seconds: float, trace=None) -> Event:
        """Occupy one hardware thread for ``cpu_seconds``.

        Charges a context switch if the thread last ran a different
        task. The returned event fires with the total time occupied
        (including the switch). ``trace`` is an optional
        ``(trace_id, parent_span_id)`` pair; the span then covers
        run-queue wait plus occupancy.
        """
        done = self.env.event()
        self.run(task_id, cpu_seconds, done.succeed, trace)
        return done

    def run(self, task_id: str, cpu_seconds: float,
            then: Callable[[float], None], trace=None) -> None:
        """:meth:`execute` with a callback: ``then(cost)`` runs once the
        thread is released."""
        self._pool.acquire(self._granted, (task_id, cpu_seconds, then, trace,
                                           self.env.now))

    def _granted(self, thread_id: int, job: tuple) -> None:
        task_id, cost = job[0], job[1]
        if self._last_task[thread_id] != task_id:
            cost += self.params.context_switch_seconds
            self.stats.context_switches += 1
            self._last_task[thread_id] = task_id
        self.env.timeout_at(self.env.now + cost, (thread_id, cost, job),
                            self._ran)

    def _ran(self, event) -> None:
        thread_id, cost, (task_id, _, then, trace, queued_at) = event._value
        self.stats.requests += 1
        self.stats.busy_seconds += cost
        self.stats.add_task_busy(task_id, cost)
        tracer = self.env.tracer
        if tracer is not None and trace is not None:
            trace_id, parent_id = trace
            tracer.end(tracer.begin(
                "host.cpu", "host", trace_id=trace_id, parent=parent_id,
                node=f"thread{thread_id}", start=queued_at,
                tags={"task": task_id},
            ))
        self._pool.release(thread_id)
        then(cost)

    def account(self, task_id: str, cpu_seconds: float) -> None:
        """Attribute CPU time without occupying a thread (kernel work)."""
        self.stats.busy_seconds += cpu_seconds
        self.stats.add_task_busy(task_id, cpu_seconds)
