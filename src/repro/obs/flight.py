"""Always-on flight recorder: the daemon's black box for postmortems.

A :class:`FlightRecorder` keeps a bounded ring of the most recent
telemetry -- spans (a :class:`~repro.obs.trace.Tracer` ring of
:data:`SPAN_CAPACITY`), causal reservation events, and the daemon's
wire counters (requests, bytes, errors) -- the one dict its
:class:`~repro.service.server.ServingShell` counts into, not a copy.
Memory stays constant no matter how long the daemon runs.  The event
ring is not a copy either: it *is* the daemon's
:class:`~repro.obs.events.EventLog`, bounded at
:data:`EVENT_CAPACITY`, so recording an event is the log's own
``deque.append`` of one flat row and :attr:`~FlightRecorder.events_seen`
is the log's ``seq`` watermark.  The span ring holds the tracer's
rows and the event ring the log's rows, and nothing is rendered until a
dump is asked for.

:meth:`snapshot` materialises the rings as a schema-v4 trace document
(the same shape :func:`repro.obs.export.write_trace_json` produces, so
``repro-obs summarize``/``stitch`` consume dumps directly), and
:meth:`dump` writes it to a JSON artifact.  The service daemon dumps on
SIGQUIT, on an unhandled handler exception, and on demand via
``POST /v1/debug/dump`` -- the three moments a postmortem needs the
last few thousand spans and events that led up to *now*.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.events import EventLog
from repro.obs.export import observability_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["EVENT_CAPACITY", "FlightRecorder", "SPAN_CAPACITY"]

#: Ring sizes: generous enough to cover a multi-hundred-request burst
#: while keeping a dump comfortably under a few megabytes.  Measured
#: over a 600-arrival script on a seed-7 daemon: an establish records
#: 7.5 spans and 12.7 events (refusals included), a teardown 1 span and
#: 6 events; over HTTP each request adds its ``daemon.<operation>`` span.
#: Full, the rings are the daemon's largest runtime allocation: 16,384
#: events hold about 4.0 MiB (rows 2.1, floats 1.0, attribute values
#: that are dicts 0.7) and 4,096 spans about 0.87 MiB (rows 0.50, floats
#: 0.20), by a ``gc.get_referents`` walk of a started seed-3 service run
#: until the ring is full (Python 3.11, x86-64; see
#: ``tests/test_daemon_footprint.py``).
SPAN_CAPACITY = 4096
EVENT_CAPACITY = 16384


class FlightRecorder:
    """Bounded rings of recent spans, events and wire counters."""

    def __init__(self) -> None:
        #: Install this tracer (``obs.trace.install``) to feed the span ring.
        self.tracer = Tracer(capacity=SPAN_CAPACITY)
        #: Install this log (``obs.events.install``): it is the event ring.
        self.log = EventLog(capacity=EVENT_CAPACITY)
        #: Transport counters (requests, bytes, errors): the serving
        #: shell's own dict, which it counts into.
        self.wire: Dict[str, int] = {}
        self.dump_count = 0
        self._started_unix = _time.time()

    @property
    def events_seen(self) -> int:
        """Events emitted since creation (evicted ones included)."""
        return self.log.next_seq

    # -- dumping -----------------------------------------------------------

    def snapshot(
        self,
        *,
        reason: str,
        registry: Optional[MetricsRegistry] = None,
        meta: Optional[dict] = None,
    ) -> dict:
        """The rings as a schema-v4 trace document.

        ``reason`` records what triggered the dump (``sigquit``,
        ``exception``, ``debug_endpoint``); extra ``meta`` keys merge
        into the document's meta section.
        """
        document_meta = {
            "flight_recorder": True,
            "reason": reason,
            "dumped_at_unix": _time.time(),
            "recorder_started_unix": self._started_unix,
            "span_capacity": self.tracer.capacity,
            "event_capacity": self.log.capacity,
            "events_seen": self.events_seen,
            "dump_count": self.dump_count,
        }
        if meta:
            document_meta.update(meta)
        document = observability_to_dict(
            self.tracer, registry, self.log, meta=document_meta
        )
        # The dump format writes the wire counts as floats.
        document["wire"] = {key: float(value) for key, value in self.wire.items()}
        return document

    def dump(
        self,
        path: Union[str, Path],
        *,
        reason: str,
        registry: Optional[MetricsRegistry] = None,
        meta: Optional[dict] = None,
    ) -> Path:
        """Write :meth:`snapshot` as JSON; returns the written path."""
        self.dump_count += 1
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        document = self.snapshot(reason=reason, registry=registry, meta=meta)
        target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
        return target
