"""Causal reservation event log (the *why* behind the span timings).

Spans (:mod:`repro.obs.trace`) answer "where did the time go"; this
module answers "why was this reservation rejected or downgraded, and
which broker was the bottleneck".  An :class:`EventLog` records *typed*
reservation-lifecycle events:

* ``session.planned`` / ``session.admitted`` / ``session.degraded`` /
  ``session.rejected`` -- one causal record per establishment attempt,
  carrying the requested-vs-available resource vectors and the plan's
  contention index psi;
* ``broker.probe`` / ``broker.grant`` / ``broker.reject`` /
  ``broker.release`` -- every admission decision with the requested
  amount against the broker's availability at that instant;
* ``proxy.segment_applied`` / ``proxy.segment_rejected`` -- phase-3
  segment outcomes per QoSProxy;
* ``planner.tradeoff_backoff`` -- the §4.3.1 policy choosing a lower
  end-to-end level than the best feasible one;
* ``fault.injected`` / ``segment.timeout`` / ``segment.retry`` /
  ``session.replanned`` / ``lease.expired`` -- the fault-injection and
  recovery lifecycle of :mod:`repro.faults`: every fired fault, every
  per-phase timeout and bounded retry of the fault-tolerant
  coordinator, every re-plan after a failed host or admission loss, and
  every orphaned reserve/commit lease reclaimed by the reaper;
* ``broker.observed`` / ``session.drift`` / ``session.renegotiated`` --
  the online monitoring plane of :mod:`repro.obs.monitor`: periodic
  rolling-estimate digests per broker, detected divergence between a
  session's planned-against availability and the live one, and the §5
  adaptation loop's renegotiations.

Like the tracer and the metrics registry, instrumented code dispatches
through the module-level :func:`emit` helper, which is a single global
read plus an early return when no log is installed -- the disabled path
stays effectively free.  Events are causally ordered by a monotonic
``seq`` counter; broker-side events additionally carry the simulation
clock (``time``) so per-resource timelines can be reconstructed from an
exported trace document (see :mod:`repro.obs.analyze`).

A bounded log is a ring: it holds the most recent ``capacity`` events
and counts the ones it evicted, which is all the service daemon's
flight recorder is (see :mod:`repro.obs.flight`).  The log holds each
event as one flat row -- ``(kind, wall, time, session, resource,
trace_id, request_id, keys, *values)``, with one shared ``keys`` tuple
per distinct attribute-name set and ``seq`` implied by the row's
position -- and builds a :class:`ReservationEvent` only for a reader
(iterating it, :meth:`~EventLog.to_dicts`, the ``for_*`` filters) or a
live subscriber.  A full 16,384-event ring is about 4.0 MiB, where a
record plus an attribute dict per event was 7.0.

Live consumers can :meth:`~EventLog.subscribe` a callback to an
:class:`EventLog`; subscribers see *every* emitted event -- including
the ones a bounded log has since evicted -- which is what the online
monitoring plane builds on.  Dispatch is one event built at ``emit``
and one call per subscriber, so what a subscriber is matters: consumers
that only need *how many* events they were handed read the
:attr:`~EventLog.next_seq` watermark instead of counting in a callback.
The service daemon subscribes nothing, so a started daemon runs no
Python code per event beyond :meth:`~EventLog.emit` itself; the
disabled path is untouched.

When a request-scoped :class:`~repro.obs.context.TraceContext` is bound
(the service daemon binds one per admission), every emitted event is
stamped with its ``trace_id``/``request_id``, linking the causal record
to the client request that caused it.  Outside any request the fields
stay None and the serialized shape is unchanged.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.obs import context as _context

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "ReservationEvent",
    "active_event_log",
    "emit",
    "event_logging",
    "install",
    "uninstall",
]

#: The closed set of event kinds; :meth:`EventLog.emit` rejects others so
#: the trace document's event vocabulary stays a stable, documented schema.
EVENT_KINDS = frozenset(
    {
        "session.planned",
        "session.admitted",
        "session.degraded",
        "session.rejected",
        "broker.probe",
        "broker.grant",
        "broker.reject",
        "broker.release",
        "proxy.segment_applied",
        "proxy.segment_rejected",
        "planner.tradeoff_backoff",
        "fault.injected",
        "segment.timeout",
        "segment.retry",
        "session.replanned",
        "lease.reserved",
        "lease.committed",
        "lease.aborted",
        "lease.expired",
        "broker.observed",
        "session.drift",
        "session.renegotiated",
    }
)


@dataclass(slots=True)
class ReservationEvent:
    """One recorded lifecycle event.

    ``seq`` is the log-wide causal order; ``wall`` is seconds since the
    log was created (monotonic clock); ``time`` is the simulation clock
    of the emitter when it has one (brokers do, the coordinator reports
    the observation instant of its snapshot), else None.
    """

    kind: str
    seq: int
    wall: float
    time: Optional[float] = None
    session: Optional[str] = None
    resource: Optional[str] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    trace_id: Optional[str] = None
    request_id: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-compatible representation (the trace document's schema).

        The trace-context keys appear only when stamped, so documents
        from un-contexted runs keep the pre-v4 shape byte-for-byte.
        """
        payload = {
            "kind": self.kind,
            "seq": self.seq,
            "wall": self.wall,
            "time": self.time,
            "session": self.session,
            "resource": self.resource,
            "attributes": dict(self.attributes),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReservationEvent":
        """Rebuild an event from its :meth:`to_dict` form (trace loading)."""
        return cls(
            kind=payload["kind"],
            seq=int(payload["seq"]),
            wall=float(payload.get("wall", 0.0)),
            time=payload.get("time"),
            session=payload.get("session"),
            resource=payload.get("resource"),
            attributes=dict(payload.get("attributes", {})),
            trace_id=payload.get("trace_id"),
            request_id=payload.get("request_id"),
        )


class EventLog:
    """Collects reservation-lifecycle events for one run.

    ``capacity`` bounds memory on long-lived processes: the log is then
    a ring of the ``capacity`` most recent events, and the older ones it
    evicts are counted in :attr:`dropped`.  A log that dropped events is
    a tail, told apart from a quiet one by ``dropped`` (and, in an
    exported document, ``events_dropped``).  Subscribers (see
    :meth:`subscribe`) are exempt from the bound: they receive every
    emitted event.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        #: The held events as rows, oldest first (a ring when bounded):
        #: ``(kind, wall, time, session, resource, trace_id, request_id,
        #: keys, *values)``.  A row's ``seq`` is its position plus
        #: :attr:`dropped`; ``keys`` is the attribute names, one shared
        #: tuple per distinct key set (:attr:`_key_sets`).
        self._rows: Deque[tuple] = deque(maxlen=capacity)
        self._key_sets: Dict[tuple, tuple] = {}
        self._next_seq = 0
        self._epoch = _time.perf_counter()
        self._subscribers: List[Callable[[ReservationEvent], None]] = []

    @property
    def capacity(self) -> Optional[int]:
        """The ring's bound (None = unbounded)."""
        return self._rows.maxlen

    @property
    def dropped(self) -> int:
        """Events emitted but no longer held (evicted by the bound)."""
        return self._next_seq - len(self._rows)

    # -- live subscribers --------------------------------------------------

    def subscribe(self, callback: Callable[[ReservationEvent], None]):
        """Deliver every subsequently emitted event to ``callback``.

        Callbacks run synchronously inside :meth:`emit`, in subscription
        order, and see the full stream even when the capacity bound
        has since evicted events from the ring.  Returns ``callback`` so
        the caller can keep the handle for :meth:`unsubscribe`.
        """
        if not callable(callback):
            raise TypeError(f"subscriber must be callable, got {callback!r}")
        if callback not in self._subscribers:
            self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[ReservationEvent], None]) -> None:
        """Stop delivering events to ``callback`` (no-op when unknown)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        """Number of live subscribers."""
        return len(self._subscribers)

    @property
    def next_seq(self) -> int:
        """The ``seq`` the next event will get -- a delivery watermark.

        Every ``seq`` below it was handed to each subscriber of its
        moment (events the ring has since evicted included), so a
        consumer that subscribed at watermark ``w`` has been handed
        ``next_seq - w`` events.
        """
        return self._next_seq

    # -- recording ---------------------------------------------------------

    def emit(
        self,
        kind: str,
        *,
        session: Optional[str] = None,
        resource: Optional[str] = None,
        time: Optional[float] = None,
        **attributes: object,
    ) -> None:
        """Record one event; raises ValueError on unknown kinds."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known kinds: {sorted(EVENT_KINDS)}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        context = _context.current_trace_context()
        keys = tuple(attributes)
        # One flat row per event, and no record: a ``ReservationEvent``
        # is built only for a subscriber (here) or a reader (below).
        row = (
            kind,
            _time.perf_counter() - self._epoch,
            time,
            session,
            resource,
            context.trace_id if context is not None else None,
            context.request_id if context is not None else None,
            self._key_sets.setdefault(keys, keys),
            *attributes.values(),
        )
        self._rows.append(row)
        if self._subscribers:
            # Positional on purpose: keyword construction of a
            # nine-field record costs 2.5x as much.
            event = ReservationEvent(
                kind, seq, row[1], time, session, resource, attributes, row[5], row[6]
            )
            for callback in self._subscribers:
                callback(event)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ReservationEvent]:
        return map(_event, itertools.count(self.dropped), self._rows)

    def _where(self, field: int, value: object) -> List[ReservationEvent]:
        """The held events whose row has ``value`` at ``field``."""
        return [
            _event(seq, row)
            for seq, row in enumerate(self._rows, self.dropped)
            if row[field] == value
        ]

    def count(self, kind: str) -> int:
        """Number of recorded events of the given kind."""
        return sum(1 for row in self._rows if row[0] == kind)

    def kinds(self) -> List[str]:
        """Distinct event kinds, in first-seen order."""
        return list(dict.fromkeys(row[0] for row in self._rows))

    def kind_counts(self) -> Dict[str, int]:
        """kind -> number of recorded events (sorted by kind)."""
        return dict(sorted(Counter(row[0] for row in self._rows).items()))

    def for_session(self, session_id: str) -> List[ReservationEvent]:
        """Every event tagged with the given session id, in causal order."""
        return self._where(3, session_id)

    def for_resource(self, resource_id: str) -> List[ReservationEvent]:
        """Every event tagged with the given resource id, in causal order."""
        return self._where(4, resource_id)

    def for_trace(self, trace_id: str) -> List[ReservationEvent]:
        """Every event stamped with the given trace id, in causal order."""
        return self._where(5, trace_id)

    def to_dicts(self) -> List[dict]:
        """Every event as a JSON-compatible dict, in causal order."""
        return [event.to_dict() for event in self]


def _event(seq: int, row: tuple) -> ReservationEvent:
    """The event an :class:`EventLog` row holds, given its ``seq``."""
    kind, wall, time, session, resource, trace_id, request_id, keys = row[:8]
    return ReservationEvent(
        kind, seq, wall, time, session, resource,
        dict(zip(keys, row[8:])), trace_id, request_id,
    )


#: The installed event log; None means event logging is disabled (default).
_ACTIVE: Optional[EventLog] = None


def install(log: EventLog, *, force: bool = False) -> None:
    """Make ``log`` receive every event from instrumented code.

    Installing over a *different* already-installed log raises: silently
    replacing it would detach that log's consumers (e.g. a subscribed
    online monitor) mid-run.  Re-installing the same log is idempotent.
    ``force=True`` is for callers that deliberately manage a save/restore
    stack of handles (:class:`~repro.obs.ObservationSession`).
    """
    global _ACTIVE
    if not force and _ACTIVE is not None and _ACTIVE is not log:
        raise RuntimeError(
            "an EventLog is already installed; uninstall() it first "
            "(or use event_logging()/ObservationSession, which save and "
            "restore the previous log)"
        )
    _ACTIVE = log


def uninstall() -> None:
    """Disable event logging (instrumentation reverts to the no-op path)."""
    global _ACTIVE
    _ACTIVE = None


def active_event_log() -> Optional[EventLog]:
    """The installed event log, or None when event logging is disabled."""
    return _ACTIVE


@contextmanager
def event_logging(log: EventLog) -> Iterator[EventLog]:
    """Install ``log`` for the duration of the block, then restore."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous


def emit(
    kind: str,
    *,
    session: Optional[str] = None,
    resource: Optional[str] = None,
    time: Optional[float] = None,
    **attributes: object,
) -> None:
    """Record an event on the installed log (no-op when disabled)."""
    log = _ACTIVE
    if log is not None:
        log.emit(kind, session=session, resource=resource, time=time, **attributes)
