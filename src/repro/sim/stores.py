"""A FIFO message store.

A :class:`Store` is a bounded producer/consumer channel: ``put(item)``
and ``get()`` return events that fire once the operation completes.
Items leave in the order they were put, waiting putters and getters are
served first-come first-served, and a pending ``get()`` can be withdrawn
with ``cancel()``.
"""

from __future__ import annotations

from typing import Any, List

from .core import Event, Environment


class StorePut(Event):
    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the wait queue."""
        waiters = getattr(self, "_waiters", None)
        if waiters is not None and self in waiters:
            waiters.remove(self)


class Store:
    """FIFO item queue with bounded capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the next item; fires once one exists."""
        event = StoreGet(self)
        event._waiters = self._get_waiters
        return event

    # -- internal ----------------------------------------------------------

    def _do_put(self, put: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(put.item)
            put.succeed()
            return True
        return False

    def _do_get(self, get: StoreGet) -> bool:
        if self.items:
            get.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.pop(0)
                progressed = True
            if self._get_waiters and self._do_get(self._get_waiters[0]):
                self._get_waiters.pop(0)
                progressed = True
