"""Request-scoped trace context: W3C-style ids across the service boundary.

A :class:`TraceContext` carries the identity of one end-to-end request:
a 128-bit ``trace_id`` shared by every process that touches the request,
a 64-bit ``span_id`` naming the current hop, and an optional
human-oriented ``request_id`` (the daemon's per-request tag, or the
load generator's session id).  The context travels between processes as
a W3C ``traceparent`` header (``00-<trace_id>-<span_id>-<flags>``) and
within a process as a :class:`contextvars.ContextVar`, so every asyncio
task sees exactly the context its request bound -- two concurrent
admissions can never observe each other's ids.

The tracer (:mod:`repro.obs.trace`) and the event log
(:mod:`repro.obs.events`) read the current context at record time and
stamp ``trace_id``/``request_id`` onto every :class:`SpanRecord` and
:class:`ReservationEvent` emitted while a context is bound.  Nothing is
stamped when no context is active, so run-to-completion simulations are
byte-identical to their pre-tracing selves.

Parsing is deliberately lenient: a malformed or truncated
``traceparent`` yields ``None`` and the caller starts a fresh root
trace -- a bad header must never fail a request.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple, Optional

__all__ = [
    "TRACEPARENT_HEADER",
    "REQUEST_ID_HEADER",
    "TraceContext",
    "bind_trace_context",
    "child_context",
    "current_trace_context",
    "format_traceparent",
    "new_trace_context",
    "parse_traceparent",
    "reset_trace_context",
    "trace_context",
]

#: The propagation headers (lowercase, as :mod:`repro.service.http`
#: normalises inbound header names).
TRACEPARENT_HEADER = "traceparent"
REQUEST_ID_HEADER = "x-request-id"

_SUPPORTED_VERSION = "00"
#: version - trace_id - parent_id - flags, lowercase hex of exact widths.
_TRACEPARENT = re.compile(
    r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}"
)
_ZERO_TRACE_ID = "0" * 32
_ZERO_SPAN_ID = "0" * 16


class TraceContext(NamedTuple):
    """One request's identity (immutable; derive children, never mutate)."""

    #: 32 lowercase hex chars shared across every hop of the request.
    trace_id: str
    #: 16 lowercase hex chars naming this hop.
    span_id: str
    #: The upstream hop's span id (None at the root).
    parent_id: Optional[str] = None
    #: Free-form request tag stamped onto spans/events alongside trace_id.
    request_id: Optional[str] = None

    def traceparent(self) -> str:
        """This context as an outbound ``traceparent`` header value."""
        return format_traceparent(self)


def _hex_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


def new_trace_context(request_id: Optional[str] = None) -> TraceContext:
    """A fresh root context (new trace_id, no parent)."""
    ids = _hex_id(24)  # one read of the entropy pool for both ids
    return TraceContext(trace_id=ids[:32], span_id=ids[32:], request_id=request_id)


def child_context(
    parent: TraceContext, request_id: Optional[str] = None
) -> TraceContext:
    """A new hop within ``parent``'s trace (fresh span_id, same trace_id)."""
    return TraceContext(
        parent.trace_id,
        _hex_id(8),
        parent.span_id,
        request_id if request_id is not None else parent.request_id,
    )


def parse_traceparent(
    header: Optional[str], request_id: Optional[str] = None
) -> Optional[TraceContext]:
    """Decode a ``traceparent`` header; None on anything malformed.

    Accepts exactly the W3C shape
    ``<2 hex version>-<32 hex trace_id>-<16 hex parent_id>-<2 hex flags>``
    with lowercase hex digits; all-zero trace or span ids are invalid per
    the spec and also yield None.  Callers treat None as "start a fresh
    root trace" -- a truncated or garbage header never errors.  The
    continued context carries ``request_id``.
    """
    if not header or not isinstance(header, str):
        return None
    match = _TRACEPARENT.fullmatch(header.strip())
    if match is None:
        return None
    version, trace_id, parent_id = match.groups()
    if version == "ff" or trace_id == _ZERO_TRACE_ID or parent_id == _ZERO_SPAN_ID:
        return None
    return TraceContext(trace_id, _hex_id(8), parent_id, request_id)


def format_traceparent(context: TraceContext) -> str:
    """Encode a context as an outbound ``traceparent`` header value."""
    return f"{_SUPPORTED_VERSION}-{context.trace_id}-{context.span_id}-01"


#: The bound context of the current task/thread; None outside a request.
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


#: ``current_trace_context()``: the context bound in this task, or None
#: outside any request.  The ContextVar's own ``get`` -- every recorded
#: span and event asks, and a C method spares each one a Python frame.
current_trace_context = _CURRENT.get


#: ``bind_trace_context(context)``: bind ``context`` in the current task
#: and return the reset token; ``reset_trace_context(token)`` undoes it.
#: The ContextVar's own methods, as above: the serving shell binds a
#: context around every request it serves.
bind_trace_context = _CURRENT.set
reset_trace_context = _CURRENT.reset


@contextmanager
def trace_context(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Bind ``context`` for the duration of the block, then restore."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
