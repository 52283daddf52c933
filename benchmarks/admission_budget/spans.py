"""The benchmark's own spans: recorded around calls it makes, kept in memory.

A span is ``(id, name, start, end, parent, rid)``; spans of one request
share ``rid``.  Nothing here touches the program under test -- layers are
timed from outside by interposing on the public callables one layer hands
to the next (:func:`interpose`), or by wrapping the calls the benchmark
itself makes (:meth:`SpanRecorder.span`).
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import List, Optional, Sequence


class SpanRecorder:
    """One caller's spans, with a parent stack for the calls nested in its own.

    Concurrent callers each own a recorder (a shared stack would pair one
    caller's child with another's parent); :func:`merge` joins them.
    While recording, a span is the list ``[name, start, end, parent, rid]``
    at the index that is its id -- the cheapest thing to append on a path
    whose own cost is reported as ``trace.overhead_ratio``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[int]:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    @property
    def rid(self) -> Optional[str]:
        """Request id of the innermost open span."""
        return self.spans[self._stack[-1]][4] if self._stack else None

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a finished span under ``parent`` (whose request id it shares)."""
        rid = self.spans[parent][4] if parent is not None else None
        self.spans.append([name, start, end, parent, rid])

    def open(self, name: str, rid: Optional[str] = None) -> list:
        """Start a span as a child of the innermost open one; see :meth:`close`."""
        stack, spans = self._stack, self.spans
        if stack:
            parent = stack[-1]
            if rid is None:
                rid = spans[parent][4]
        else:
            parent = None
        stack.append(len(spans))
        span = [name, 0.0, 0.0, parent, rid]
        spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> float:
        """End the innermost open span; returns its seconds."""
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]


def merge(recorders: Sequence[SpanRecorder]) -> List[dict]:
    """All recorders' spans as dicts in one list, ids made unique.

    ``conn`` numbers the recorder a span came from: one per caller, which
    for the HTTP workloads is one per keep-alive connection.
    """
    merged: List[dict] = []
    for conn, recorder in enumerate(recorders):
        offset = len(merged)
        for name, start, end, parent, rid in recorder.spans:
            merged.append({
                "id": len(merged), "name": name, "start": start, "end": end,
                "parent": parent + offset if parent is not None else None, "rid": rid,
                "conn": conn,
            })
    return merged


def interpose(recorder: SpanRecorder, owner, attribute: str, name: str) -> None:
    """Replace ``owner.attribute`` with a wrapper that records a span per call.

    ``owner`` is a module or an object whose attribute is the public
    callable one layer uses to enter the next, so the span sits exactly on
    the layer boundary while the program's own code stays as committed.
    """
    inner = getattr(owner, attribute)

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        span = recorder.open(name)
        try:
            return inner(*args, **kwargs)
        finally:
            recorder.close(span)

    setattr(owner, attribute, timed)


def durations(spans: List[dict], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]
