"""Shared, capacity-limited resources.

:class:`Server` is the request datapath's stage server (the gateway
proxy, NPU threads, interpreter locks, worker limits): a stage hands it
a callback, which runs at once while a slot is free and otherwise when
an earlier holder releases one, in FIFO order. It schedules no events.
A granted slot is held until its holder releases it; nothing is ever
evicted, matching the run-to-completion lambdas of the model.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque


class Server:
    """``capacity`` slots handed to callbacks in FIFO order.

    ``acquire(then, value)`` runs ``then(value)`` at once when a slot is
    free and nobody waits, else when a release reaches it. ``release()``
    passes the slot straight to the oldest waiter. A waiter's callback
    that releases again (work dropped at its dequeue) does not recurse:
    the outermost release grants the next waiter, so a long queue of
    dropped work costs no stack.
    """

    __slots__ = ("capacity", "busy", "_waiting", "_handing")

    def __init__(self, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Slots currently held.
        self.busy = 0
        self._waiting: Deque[tuple] = deque()
        self._handing = False

    @property
    def waiting(self) -> int:
        """Callbacks queued for a slot."""
        return len(self._waiting)

    def acquire(self, then: Callable[[Any], None], value: Any = None) -> None:
        """Run ``then(value)`` holding one slot."""
        if self.busy < self.capacity and not self._waiting:
            self.busy += 1
            then(value)
        else:
            self._waiting.append((then, value))

    def release(self) -> None:
        """Free one slot; queued callbacks take free slots in order."""
        self.busy -= 1
        waiting = self._waiting
        if not waiting or self._handing:
            return
        self._handing = True
        try:
            while waiting and self.busy < self.capacity:
                self.busy += 1
                then, value = waiting.popleft()
                then(value)
        finally:
            self._handing = False
