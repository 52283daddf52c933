"""Structured span tracing for the planning and reservation hot paths.

A :class:`Tracer` records *spans*: named enter/exit intervals timed with
the monotonic :func:`time.perf_counter` clock.  Spans nest -- a span
opened while another is active becomes its child -- so one
``establish`` span contains the ``qrg_build``, ``dijkstra`` and
``plan`` spans of the session it admitted, each with its own wall time.
The nesting stack lives in a :class:`contextvars.ContextVar`, so spans
opened by concurrent asyncio tasks (the service daemon, the open-loop
load generator's clients) nest within their own task only and never
corrupt each other's parentage.

When a request-scoped :class:`~repro.obs.context.TraceContext` is bound
(see :mod:`repro.obs.context`), every finished span is stamped with its
``trace_id``/``request_id`` -- the linkage ``repro-obs stitch`` uses to
merge client- and daemon-side trace documents into one cross-process
timeline.  Outside any request nothing is stamped and the record shape
is unchanged.

Instrumented code never talks to a tracer directly; it calls the
module-level :func:`span` helper, which dispatches to the *installed*
tracer or, when none is installed (the default), to a no-op singleton.
The disabled path is a single module-global read plus an empty context
manager, so instrumentation stays effectively free in production runs
and benchmarks (< 1 microsecond per call site).

Typical use::

    tracer = Tracer()
    with tracing(tracer):
        run_simulation(config)
    for record in tracer.records:
        print(record.name, record.duration)

The tracer holds each finished span as one flat row -- ``(name, start,
duration, depth, index, parent, trace_id, request_id, keys, *values)``,
with one shared ``keys`` tuple per distinct attribute-name set -- and
builds a :class:`SpanRecord` only for a reader: :attr:`Tracer.records`,
:meth:`~Tracer.to_dicts` and :meth:`~Tracer.records_for_trace` are read
paths, while :meth:`~Tracer.count`, :meth:`~Tracer.names`,
:meth:`~Tracer.total_time` and :meth:`~Tracer.durations_since` read the
rows.  A ``Tracer(capacity=N)`` keeps only the N most recent spans (a
ring buffer) -- the always-on flight recorder of the service daemon
runs on one so a long-lived process never grows without bound (full
at 4,096 spans, about 0.9 MiB).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs import context as _context

__all__ = [
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "install",
    "span",
    "tracing",
    "uninstall",
]


@dataclass(slots=True)
class SpanRecord:
    """One finished span, as a reader sees it.

    ``start`` is seconds since the tracer was created (monotonic clock);
    ``index`` is the span's enter order; ``parent_index`` links a nested
    span to its enclosing one (None at top level).  ``trace_id`` /
    ``request_id`` carry the request context active when the span
    finished (None outside any request).
    """

    name: str
    start: float
    duration: float
    depth: int
    index: int
    parent_index: Optional[int]
    attributes: Dict[str, object] = field(default_factory=dict)
    trace_id: Optional[str] = None
    request_id: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-compatible representation (the exporter's event schema).

        The trace-context keys appear only when stamped, so documents
        from un-contexted runs are byte-identical to the pre-v4 shape.
        """
        payload = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "index": self.index,
            "parent": self.parent_index,
            "attributes": dict(self.attributes),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload


class _ActiveSpan:
    """Context manager for one live span of a real tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_start", "_index", "_parent", "_depth", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def set(self, **attributes: object) -> None:
        """Attach (or overwrite) attributes while the span is running."""
        self._attributes.update(attributes)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._index = tracer._next_index
        tracer._next_index += 1
        stack = tracer._stack.get()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        self._token = tracer._stack.set(stack + (self._index,))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.reset(self._token)
        attributes = self._attributes
        if exc_type is not None:
            attributes["error"] = f"{exc_type.__name__}: {exc}"
        context = _context.current_trace_context()
        keys = tuple(attributes)
        # One flat row per span, and no record: a ``SpanRecord`` is
        # built only for a reader.
        tracer._rows.append(
            (
                self._name,
                self._start - tracer._epoch,
                end - self._start,
                self._depth,
                self._index,
                self._parent,
                context.trace_id if context is not None else None,
                context.request_id if context is not None else None,
                tracer._key_sets.setdefault(keys, keys),
                *attributes.values(),
            )
        )
        return False


class _NullSpan:
    """Shared do-nothing span used whenever tracing is disabled."""

    __slots__ = ()

    def set(self, **_attributes: object) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans for one run.

    The tracer itself is always "on"; disabling tracing means not
    installing any tracer (see :func:`install` / :func:`tracing`).
    ``capacity`` turns the span store into a ring buffer keeping only
    the most recent spans -- the flight-recorder mode of the service
    daemon; None (the default) keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        #: The finished spans as rows, in completion order (a ring when
        #: bounded): ``(name, start, duration, depth, index, parent,
        #: trace_id, request_id, keys, *values)``; ``keys`` is the
        #: attribute names, one shared tuple per distinct key set
        #: (:attr:`_key_sets`).
        self._rows: Deque[tuple] = deque(maxlen=capacity)
        self._key_sets: Dict[tuple, tuple] = {}
        # The span nesting stack is task-local: concurrent asyncio tasks
        # each see only their own open spans.
        self._stack: ContextVar[Tuple[int, ...]] = ContextVar(
            "repro_tracer_stack", default=()
        )
        self._next_index = 0
        self._epoch = time.perf_counter()

    @property
    def capacity(self) -> Optional[int]:
        """The ring's bound (None = unbounded)."""
        return self._rows.maxlen

    # -- recording ---------------------------------------------------------

    @property
    def next_index(self) -> int:
        """The ``index`` the next span to open will get.

        A watermark: a caller that runs to completion without yielding
        reads it, does its work, and then owns exactly the spans whose
        ``index`` is at or past it -- they are the newest held (see
        :meth:`durations_since`).
        """
        return self._next_index

    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        """A context manager timing one named span."""
        return _ActiveSpan(self, name, attributes)

    def clear(self) -> None:
        """Drop every recorded span (the epoch is kept)."""
        self._rows.clear()

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> List[SpanRecord]:
        """Every held span as a :class:`SpanRecord`, in completion order."""
        return list(map(_record, self._rows))

    def count(self, name: str) -> int:
        """Number of finished spans with the given name."""
        return sum(1 for row in self._rows if row[0] == name)

    def total_time(self, name: str) -> float:
        """Summed duration of every span with the given name (seconds)."""
        return sum(row[2] for row in self._rows if row[0] == name)

    def names(self) -> List[str]:
        """Distinct span names, in first-seen order."""
        return list(dict.fromkeys(row[0] for row in self._rows))

    def durations_since(self, first_index: int, *names: str) -> Tuple[float, ...]:
        """Summed duration per name of the spans indexed ``first_index`` on.

        Walks the newest rows backwards and stops at the first span that
        opened before ``first_index``: a caller that ran without
        yielding after reading :attr:`next_index` owns a contiguous tail.
        """
        totals = dict.fromkeys(names, 0.0)
        for row in reversed(self._rows):
            if row[4] < first_index:
                break
            if row[0] in totals:
                totals[row[0]] += row[2]
        return tuple(totals.values())

    def records_for_trace(self, trace_id: str) -> List[SpanRecord]:
        """Every record stamped with the given trace id, oldest first."""
        return [_record(row) for row in self._rows if row[6] == trace_id]

    def to_dicts(self) -> List[dict]:
        """Every record as a JSON-compatible dict, in completion order."""
        return [record.to_dict() for record in map(_record, self._rows)]


def _record(row: tuple) -> SpanRecord:
    """The record a :class:`Tracer` row holds."""
    name, start, duration, depth, index, parent, trace_id, request_id, keys = row[:9]
    return SpanRecord(
        name, start, duration, depth, index, parent,
        dict(zip(keys, row[9:])), trace_id, request_id,
    )


#: The installed tracer; None means tracing is disabled (the default).
_ACTIVE: Optional[Tracer] = None


def install(tracer: Tracer) -> None:
    """Make ``tracer`` receive every span from instrumented code."""
    global _ACTIVE
    _ACTIVE = tracer


def uninstall() -> None:
    """Disable tracing (instrumentation reverts to the no-op path)."""
    global _ACTIVE
    _ACTIVE = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block, then restore."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: object):
    """Open a span on the installed tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _ActiveSpan(tracer, name, attributes)

