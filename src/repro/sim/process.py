"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator that yields :class:`Event`
objects. The process suspends on each yielded event and resumes when that
event fires; the event's value becomes the value of the ``yield``
expression. A process is itself an event that fires when the generator
returns, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from .core import Event, Environment, SimulationError, URGENT, _PENDING


class Initialize(Event):
    """Starts a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: Environment, process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, URGENT)


class Process(Event):
    """An active component driven by a generator of events."""

    __slots__ = ("_generator",)

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env.schedule(self)
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                self.defused = False
                self.env.schedule(self)
                break

            if not isinstance(target, Event):
                self._fail_bad_yield(target)
                break
            if target is self:
                self._fail_bad_yield(target)
                break
            if target.callbacks is not None:
                # Not yet processed: park until it fires.
                target.callbacks.append(self._resume)
                break
            # Already processed: continue immediately with its value.
            event = target

        self.env._active_process = None

    def _fail_bad_yield(self, target: Any) -> None:
        error = SimulationError(f"process yielded an invalid target {target!r}")
        self._ok = False
        self._value = error
        self.defused = False
        self.env.schedule(self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process({name})>"
