"""Discrete-event simulation kernel.

This module provides the event loop at the heart of the reproduction: a
deterministic, priority-ordered event calendar (:class:`Environment`) and
the base :class:`Event` type. The design follows the classic
process-interaction style (as popularised by SimPy) but is implemented
from scratch so the repository has no runtime dependencies beyond numpy.

All simulated time is a ``float`` in **seconds**. Events scheduled at the
same timestamp are processed in (priority, insertion-order) order, which
makes every run bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, List, Optional

#: Hoisted heapq entry points: the scheduler touches these once per
#: event, so the module-attribute lookups are worth avoiding.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Scheduling priority for bookkeeping events that must run before any
#: ordinary event at the same timestamp (e.g. process initialisation).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at ``until``."""


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once it has a value
    (or an exception) and has been scheduled, and becomes *processed*
    once its callbacks have run.

    Events are the highest-churn allocation in the simulator (every
    timeout, resource grant, and process step creates one), so the core
    event types declare ``__slots__``. Subclasses defined elsewhere
    (resource requests, store operations) still get a ``__dict__`` and
    may attach ad-hoc attributes as before.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: When an event fails, somebody must "defuse" it (handle the
        #: exception) or the environment re-raises it at process time.
        self.defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are the single highest-churn allocation in the simulator
    (every service time, link delay, and think-time gap creates one),
    so the class declares ``__slots__``; every
    :meth:`Environment.timeout` call builds a fresh object, and a
    processed timeout is freed as soon as its last holder drops it.
    """

    __slots__ = ("_delay", "_cancelled")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ inlined: one call frame less on the kernel's
        # highest-churn allocation.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._delay = delay
        self._cancelled = False
        env.schedule(self, delay=delay)

    def cancel(self) -> None:
        """Cancel a pending timeout: its callbacks will never run.

        The scheduler discards a cancelled timeout without invoking
        callbacks or advancing the clock for it: at its timestamp, or
        earlier, when cancelled entries come to outnumber the live ones
        and the calendar is rebuilt without them
        (:meth:`Environment._drop_cancelled`). Only the exclusive owner
        of a timeout may cancel it — anything still waiting on the event
        (a parked process, a condition) would wait forever.
        """
        if self.callbacks is None:
            raise SimulationError("cannot cancel a processed timeout")
        if not self._cancelled:
            self._cancelled = True
            env = self.env
            env._n_cancelled += 1
            if 2 * env._n_cancelled > (len(env._queue) + len(env._now_normal)
                                       + len(env._now_urgent)):
                env._drop_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class ConditionValue:
    """Ordered mapping of events to values for condition results.

    Iteration order is the condition's sub-event order; membership is
    answered from a parallel set so ``in`` and ``[]`` stay O(1) even
    for wide fan-in conditions.
    """

    __slots__ = ("events", "_members")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._members: set = set()

    def add(self, event: Event) -> None:
        """Append ``event`` preserving order (idempotent)."""
        if event not in self._members:
            self.events.append(event)
            self._members.add(event)

    def __getitem__(self, key: Event) -> Any:
        if key not in self._members:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self._members

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[Event]:
        return iter(self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a set of sub-events.

    ``evaluate`` receives (events, triggered_count) and returns True when
    the condition is met. :class:`AllOf` and :class:`AnyOf` are the two
    standard instantiations.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        if self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())
            return
        # One bound-method lookup for the whole fan-in, not one per event.
        check = self._check
        for event in self._events:
            if event.processed:
                check(event)
            else:
                event.callbacks.append(check)

    def _collect_values(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            if event.triggered:
                value.add(event)
        return value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Fires once every sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires once any sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class Environment:
    """The simulation environment: clock plus event calendar.

    The calendar is split in two: a timestamp-keyed heap for events in
    the future, and two FIFO "immediate" queues (one per priority) for
    the zero-delay schedules that dominate event traffic — every
    ``succeed``/``fail``, process resume, and resource grant lands at
    the current instant. Immediate events bypass the heap entirely
    (O(1) deque ops instead of O(log n) sifts) while preserving the
    exact global (time, priority, insertion-order) processing order,
    so runs remain bit-for-bit identical to the single-heap kernel.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        #: Immediate (delay == 0) events, processed at ``_now`` in
        #: (priority, eid) order ahead of any later heap entry.
        self._now_urgent: "deque" = deque()
        self._now_normal: "deque" = deque()
        #: Count of not-yet-reaped cancelled timeouts; lets the hot
        #: loop skip the cancellation check entirely in the (typical)
        #: run where nothing is ever cancelled.
        self._n_cancelled = 0
        self._eid = 0
        self._active_process = None
        #: Observability hook: a :class:`repro.obs.Tracer` reading this
        #: clock, or None (the default — instrumented components guard
        #: with one attribute load + None check, so tracing is
        #: zero-cost when disabled). The tracer only *reads* ``now``;
        #: it never schedules events, so enabling it cannot perturb
        #: the simulation.
        self.tracer = None

    def set_tracer(self, tracer) -> None:
        """Install (or, with ``None``, remove) the span tracer."""
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Place a triggered event on the calendar."""
        self._eid += 1
        if delay == 0.0:
            if priority == NORMAL:
                self._now_normal.append((self._eid, event))
            elif priority == URGENT:
                self._now_urgent.append((self._eid, event))
            else:
                _heappush(self._queue,
                          (self._now, priority, self._eid, event))
        else:
            _heappush(self._queue,
                      (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next event that will run, or ``inf``.

        Cancelled timeouts at a queue head are discarded first, as
        :meth:`step` would discard them.
        """
        queue = self._queue
        if self._n_cancelled:
            for pending in (self._now_urgent, self._now_normal):
                while pending and pending[0][1].__class__ is Timeout \
                        and pending[0][1]._cancelled:
                    pending.popleft()
                    self._n_cancelled -= 1
            while queue and queue[0][3].__class__ is Timeout \
                    and queue[0][3]._cancelled:
                _heappop(queue)
                self._n_cancelled -= 1
        if self._now_urgent or self._now_normal:
            return self._now
        return queue[0][0] if queue else float("inf")

    def _drop_cancelled(self) -> None:
        """Rebuild the calendar without its cancelled timeouts.

        :meth:`Timeout.cancel` calls this once cancelled entries are more
        than half of the calendar, so a rebuild (O(entries)) follows at
        least as many cancellations as it keeps live entries: O(1) per
        cancel, amortised. Processing order cannot change: the deques
        keep their order, and every heap key (time, priority, eid) is
        unique, so the heap pops the same sequence whatever its shape.
        The lists and deques are filtered in place, so a caller holding
        them (:meth:`step` mid-callback) sees the rebuilt calendar.
        """
        dropped = 0
        for entries in (self._queue, self._now_urgent, self._now_normal):
            # The event is the last field of heap and deque entries alike.
            kept = [entry for entry in entries
                    if entry[-1].__class__ is not Timeout
                    or not entry[-1]._cancelled]
            dropped += len(entries) - len(kept)
            entries.clear()
            entries.extend(kept)
        heapq.heapify(self._queue)
        self._n_cancelled -= dropped

    def step(self) -> None:
        """Process the next event on the calendar."""
        queue = self._queue
        urgent = self._now_urgent
        normal = self._now_normal
        while True:
            from_heap = False
            if queue:
                head = queue[0]
                if urgent:
                    cand, cprio = urgent, URGENT
                elif normal:
                    cand, cprio = normal, NORMAL
                else:
                    cand = None
                # The heap entry runs first only when it is due *now*
                # and its (priority, eid) beats the best immediate
                # event; immediate queues are always at the current
                # instant, so a future-dated heap head cannot win.
                if cand is None or (
                    head[0] == self._now
                    and (head[1] < cprio
                         or (head[1] == cprio and head[2] < cand[0][0]))
                ):
                    event = _heappop(queue)[3]
                    etime = head[0]
                    from_heap = True
                else:
                    event = cand.popleft()[1]
            elif urgent:
                event = urgent.popleft()[1]
            elif normal:
                event = normal.popleft()[1]
            else:
                raise EmptySchedule()
            if self._n_cancelled and event.__class__ is Timeout \
                    and event._cancelled:
                # Discarded without running callbacks or advancing the
                # clock — a cancelled timeout was never here.
                self._n_cancelled -= 1
                continue
            if from_heap:
                self._now = etime
            break
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody handled the failure: surface it to the caller of run().
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until the calendar empties, time ``until``, or event ``until``.

        If ``until`` is an :class:`Event`, returns its value once it fires,
        or raises its exception if it failed (a crashed process).
        """
        stop_value = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is not None:
                    until.callbacks.append(self._stop_callback)
                elif until.triggered:
                    if not until._ok:
                        raise until._value
                    return until._value
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until ({at}) must be >= now ({self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks = [self._stop_callback]
                self.schedule(stop_event, URGENT, at - self._now)
        step = self.step  # hot loop: one bound-method lookup total
        try:
            while True:
                step()
        except StopSimulation as stop:
            stop_value = stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "no scheduled events left but until event was not triggered"
                ) from None
        return stop_value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if not event._ok:
            raise event._value
        raise StopSimulation(event._value)

    # -- convenience constructors -----------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value: Any = None,
                   callback: Optional[Callable[[Event], None]] = None
                   ) -> Timeout:
        """A timeout firing at the absolute instant ``at`` (``>= now``).

        ``timeout(at - now)`` lands on ``now + (at - now)``, which can
        differ from ``at`` in the last bit; this one lands on ``at``.
        ``callback``, if given, is the event's first callback.
        """
        now = self._now
        if at < now:
            raise ValueError(f"instant {at} is before now ({now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = [] if callback is None else [callback]
        event._value = value
        event._ok = True
        event.defused = False
        event._delay = at - now
        event._cancelled = False
        self._eid += 1
        if at == now:
            self._now_normal.append((self._eid, event))
        else:
            _heappush(self._queue, (at, NORMAL, self._eid, event))
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator) -> "Process":
        """Start a process from a generator of events."""
        from .process import Process

        return Process(self, generator)
