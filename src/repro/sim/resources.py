"""Shared, capacity-limited resources.

:class:`Resource` models a pool of identical servers (e.g. CPU cores or
NPU threads): processes ``request()`` a slot, wait in FIFO order, and
``release()`` it when done. A granted slot is held until its holder
releases it; nothing is ever evicted, matching the run-to-completion
lambdas of the model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .core import Event, Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel() if not self.triggered else self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Release(Event):
    """Immediate event confirming a slot release."""

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(request)
        self.succeed()


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Slots currently held."""
        return len(self.users)

    @property
    def queue(self) -> List[Request]:
        """Requests still waiting (read-only view)."""
        return list(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return a previously granted slot."""
        return Release(self, request)

    def _do_release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self._queue:
            # Released before being granted.
            self._queue.remove(request)
        self._trigger_requests()

    def _trigger_requests(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.popleft()
            self.users.append(request)
            request.succeed()
