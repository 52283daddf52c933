"""The simulation kernel: a clock, timeouts and generator processes.

Time only advances between events.  The queue is ordered by
``(time, priority, insertion id)``: at one instant a process wake-up
(``URGENT``) runs before any timeout due then (``NORMAL``), however
early that timeout was scheduled, and events of one priority run in the
order they were scheduled.  So a session started at ``t`` runs before a
departure due at ``t``, and a run is fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Generator, Optional

URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot occurrence a process waits on by yielding it.

    It is *triggered* once it is on the queue with its outcome (a value,
    or an exception) and *processed* once its callbacks have run, which
    the engine marks by setting ``callbacks`` to None.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None

    @property
    def value(self) -> Any:
        """The event's value; raises until triggered, re-raises a failure."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError("value of a pending event is not available")
        return self._value

    def _trigger(self, value: Any, exception: Optional[BaseException], priority: int) -> None:
        self._value, self._exception = value, exception
        self.env._schedule(self, 0.0, priority)


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._value = None
        env._schedule(self, delay, NORMAL)


class Process(Event):
    """A generator driven by the event loop.

    Each value the generator yields must be an :class:`Event` (a
    :class:`Timeout` or another process); the process sleeps until it
    fires, then is resumed with its value or has its exception thrown
    in.  The process is itself an event: it fires with the generator's
    return value, or fails with what the generator raised.  A failure no
    process waits on propagates out of :meth:`Environment.run`.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        super().__init__(env)
        self._generator = generator
        self._wake(None, None)

    def _wake(self, value: Any, exception: Optional[BaseException]) -> None:
        """Resume at this instant, ahead of the timeouts due now."""
        wakeup = Event(self.env)
        wakeup.callbacks.append(self._resume)
        wakeup._trigger(value, exception, URGENT)

    def _resume(self, event: Event) -> None:
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._trigger(stop.value, None, NORMAL)
            return
        except Exception as exc:
            self._trigger(None, exc, NORMAL)
            return
        if not isinstance(target, Event):
            # Thrown into the generator, so its cleanup runs.
            self._wake(None, RuntimeError(
                f"process yielded a non-event: {target!r}; processes may only "
                "wait on Event instances (Timeout, Process)"
            ))
        elif target.env is not self.env:
            raise RuntimeError("process yielded an event from a different environment")
        elif target.callbacks is None:
            self._wake(target._value, target._exception)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {getattr(self._generator, '__name__', 'process')}>"


class Environment:
    """The simulation clock and its event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._eid = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        """Start a process from a generator; it first runs at this instant."""
        return Process(self, generator)

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else math.inf

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue is empty, or through time ``until``.

        With ``until`` the clock ends at ``until`` even when idle; events
        due later stay queued.
        """
        horizon = math.inf if until is None else float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon!r}, which is in the past")
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            self._now, _priority, _eid, event = heapq.heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._exception is not None and not callbacks:
                raise event._exception
        if until is not None:
            self._now = horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment t={self._now} queued={len(self._queue)}>"
