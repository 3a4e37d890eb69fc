"""NPU cores: the compute fabric of the ASIC-based SmartNIC.

Each core has a private instruction store, local memory, and a fixed
number of hardware threads; lambdas run to completion on one thread
(paper D1). A core is modelled as a capacity-``threads`` FIFO server
whose holders charge simulated time equal to ``cycles / clock_hz``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..sim import Environment, Server


@dataclass
class CoreStats:
    """Per-core accounting."""

    requests: int = 0
    busy_seconds: float = 0.0
    cycles: int = 0


class NPUCore:
    """One multi-threaded RISC core."""

    def __init__(
        self,
        env: Environment,
        core_id: int,
        island_id: int,
        threads: int = 8,
        clock_hz: float = 633e6,
    ) -> None:
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.env = env
        self.core_id = core_id
        self.island_id = island_id
        self.threads = threads
        self.clock_hz = clock_hz
        self._threads = Server(threads)
        self.stats = CoreStats()
        #: False while the core's island is failed (fault injection);
        #: the NIC dispatcher never schedules onto an offline core.
        self.online = True

    @property
    def busy_threads(self) -> int:
        return self._threads.busy

    @property
    def queue_depth(self) -> int:
        return self._threads.waiting

    def execute(self, cycles: int, then: Callable[[Optional[float]], None],
                trace=None, deadline=None, on_dequeue=None) -> None:
        """Occupy one thread for ``cycles``, then call ``then(elapsed)``.

        Run-to-completion: once started, the work is never preempted.
        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair; a
        span then covers the thread-grant queueing plus the busy time.

        ``deadline`` (absolute sim time) is checked at the thread
        grant — the dequeue point of the NPU run queue. Run-to-
        completion with a known cycle count makes lateness provable
        before any cycle is charged: work that cannot finish by its
        deadline gets ``then(None)`` without executing. ``on_dequeue``
        (optional callable) receives the thread-grant queue wait in
        seconds, the sojourn signal the load shedders watch. Otherwise
        ``elapsed`` is the queue plus busy seconds.
        """
        self._threads.acquire(self._granted, (cycles, then, trace, deadline,
                                              on_dequeue, self.env.now))

    def _granted(self, job: tuple) -> None:
        cycles, then, _, deadline, on_dequeue, start = job
        now = self.env.now
        if on_dequeue is not None:
            on_dequeue(now - start)
        duration = cycles / self.clock_hz
        if deadline is not None and now + duration > deadline:
            self._threads.release()
            then(None)
            return
        self.env.timeout_at(now + duration, job, self._finished)

    def _finished(self, event) -> None:
        cycles, then, trace, _, _, start = event._value
        stats = self.stats
        stats.requests += 1
        stats.cycles += cycles
        stats.busy_seconds += cycles / self.clock_hz
        self._threads.release()
        tracer = self.env.tracer
        if tracer is not None and trace is not None:
            trace_id, parent_id = trace
            tracer.end(tracer.begin(
                "nic.npu", "nic", trace_id=trace_id, parent=parent_id,
                node=f"island{self.island_id}/core{self.core_id}",
                start=start, tags={"cycles": cycles},
            ))
        then(self.env.now - start)

    def __repr__(self) -> str:
        return (
            f"<NPUCore {self.core_id} island={self.island_id} "
            f"busy={self.busy_threads}/{self.threads}>"
        )


class Island:
    """A cluster of cores sharing a Cluster Target Memory (CTM)."""

    def __init__(self, island_id: int) -> None:
        self.island_id = island_id
        self.cores: Dict[int, NPUCore] = {}

    def add_core(self, core: NPUCore) -> None:
        self.cores[core.core_id] = core

    def __repr__(self) -> str:
        return f"<Island {self.island_id} cores={len(self.cores)}>"
