"""repro.obs -- tracing and metrics for the reservation system.

The observability layer has three parts:

* :mod:`repro.obs.trace`   -- span-style structured tracer (per-phase
  wall times of QRG construction, minimax Dijkstra, plan assembly, and
  the two-phase establish/teardown protocol);
* :mod:`repro.obs.metrics` -- counters / gauges / histograms (per-broker
  grants, rejections, releases, utilization; per-session outcomes);
* :mod:`repro.obs.export`  -- JSON trace, CSV metrics, and text summary
  exporters.

Instrumented code dispatches through module-level "active" handles that
default to no-ops, so the whole layer is effectively free unless an
:class:`ObservationSession` (or the lower-level ``install`` functions)
turns it on::

    from repro.obs import ObservationSession

    with ObservationSession() as obs:
        result = run_simulation(config)
    obs.write_trace_json("trace.json")
    print(obs.summary())

See ``docs/observability.md`` for the event schema and exporter formats.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.obs import events as _events
from repro.obs import export as _export
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.context import (
    TraceContext,
    bind_trace_context,
    child_context,
    current_trace_context,
    new_trace_context,
    parse_traceparent,
    reset_trace_context,
    trace_context,
)
from repro.obs.events import (
    EVENT_KINDS,
    EventLog,
    ReservationEvent,
    active_event_log,
    event_logging,
)
from repro.obs.flight import FlightRecorder
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    observability_to_dict,
    summary_report,
    write_metrics_csv,
    write_summary,
    write_trace_json,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_PSI_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    metering,
)
from repro.obs.trace import SpanRecord, Tracer, active_tracer, tracing

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PSI_BUCKETS",
    "EVENT_KINDS",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityConfig",
    "ObservabilityError",
    "ObservationSession",
    "ObservationSummary",
    "ReservationEvent",
    "SpanRecord",
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "Tracer",
    "active_event_log",
    "active_observation_session",
    "active_registry",
    "active_tracer",
    "bind_trace_context",
    "child_context",
    "current_trace_context",
    "event_logging",
    "metering",
    "new_trace_context",
    "observability_to_dict",
    "parse_traceparent",
    "reset_trace_context",
    "reset_worker_observability",
    "summary_report",
    "trace_context",
    "tracing",
    "write_metrics_csv",
    "write_summary",
    "write_trace_json",
]


class ObservabilityError(RuntimeError):
    """Misuse of the observability layer (e.g. nested sessions)."""


@dataclass(frozen=True)
class ObservabilityConfig:
    """Where an observed run exports to.

    Hangs off :class:`repro.sim.SimulationConfig` (``observability``
    field); its presence is the switch -- an observed run always
    collects spans, metrics and the whole causal event log.  All paths
    are optional: with none set, the collected tracer/registry/log are
    still attached to the :class:`~repro.sim.SimulationResult` for
    in-process inspection.
    """

    #: Write the machine-readable JSON trace document here.
    trace_path: Optional[str] = None
    #: Write flat CSV metric rows here.
    metrics_path: Optional[str] = None
    #: Write the results/-style text summary here.
    summary_path: Optional[str] = None


@dataclass(frozen=True)
class ObservationSummary:
    """A detached, picklable digest of one finished observed run.

    The live :class:`Tracer` / :class:`MetricsRegistry` of an
    :class:`ObservationSession` hold per-record object graphs that have
    no business crossing a process boundary; pool workers ship this
    summary back instead (see ``SimulationResult.detached()``).  It
    carries the span totals and the full metrics snapshot -- the same
    aggregates the JSON trace document reports.
    """

    #: span name -> {"count": ..., "total_seconds": ...}
    span_totals: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    #: :meth:`MetricsRegistry.snapshot` output (counters/gauges/histograms).
    metrics: Mapping[str, Mapping[str, dict]] = field(default_factory=dict)
    #: event kind -> count (:meth:`EventLog.kind_counts` output).
    event_counts: Mapping[str, int] = field(default_factory=dict)

    def event_count(self, kind: str) -> int:
        """Number of recorded events of the given kind (0 when absent)."""
        return int(self.event_counts.get(kind, 0))

    def span_count(self, name: str) -> int:
        """Number of finished spans with the given name (0 when absent)."""
        return int(self.span_totals.get(name, {}).get("count", 0))

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        counters = self.metrics.get("counters", {})
        total = 0.0
        for key, value in counters.items():
            if key == name or key.startswith(name + "{"):
                total += value["value"]
        return total


#: The process's active session; at most one may be live at a time.
_ACTIVE_SESSION: Optional["ObservationSession"] = None


def active_observation_session() -> Optional["ObservationSession"]:
    """The live :class:`ObservationSession`, or None."""
    return _ACTIVE_SESSION


def reset_worker_observability() -> None:
    """Give a pool worker a clean, isolated observability state.

    A forked worker inherits the parent's installed tracer/registry and
    active-session marker; recording into them from the child is exactly
    the cross-run interleaving the exclusive-session rule exists to
    prevent.  Process-pool initialisers call this first.
    """
    global _ACTIVE_SESSION
    _ACTIVE_SESSION = None
    _trace.uninstall()
    _metrics.uninstall()
    _events.uninstall()


class ObservationSession:
    """Installs a tracer, a metrics registry and an event log for one
    block of work.

    A thin convenience that enters :func:`tracing`, :func:`metering`
    and :func:`event_logging`, so exit restores the previously
    installed handles, and bundles the exporters.

    Sessions are *exclusive* per process: the instrumented hot paths
    dispatch through module-level handles, so a second session activated
    while one is live would silently interleave spans and metrics from
    unrelated runs into one registry.  Nested or concurrent activation
    therefore raises :class:`ObservabilityError`; run concurrent observed
    simulations in separate worker processes instead (each worker gets
    its own isolated handles via :func:`reset_worker_observability`).
    """

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.event_log = EventLog()
        self._handles = ExitStack()
        #: Digest of the run's online monitoring plane (set by
        #: :func:`repro.sim.run_simulation` when monitoring is enabled);
        #: exported as the trace document's ``monitoring`` section.
        self.monitoring: Optional[dict] = None

    def __enter__(self) -> "ObservationSession":
        global _ACTIVE_SESSION
        if _ACTIVE_SESSION is not None:
            raise ObservabilityError(
                "an ObservationSession is already active in this process; "
                "concurrent sessions would interleave their spans and metrics "
                "into one registry.  Finish the active session first, or run "
                "the second observed simulation in its own worker process "
                "(the parallel sweep runner does this for you)."
            )
        _ACTIVE_SESSION = self
        self._handles.enter_context(tracing(self.tracer))
        self._handles.enter_context(metering(self.registry))
        self._handles.enter_context(event_logging(self.event_log))
        return self

    def __exit__(self, *_exc) -> bool:
        global _ACTIVE_SESSION
        if _ACTIVE_SESSION is self:
            _ACTIVE_SESSION = None
        self._handles.close()
        return False

    # -- detaching ---------------------------------------------------------

    def summarize(self) -> ObservationSummary:
        """A detached, picklable :class:`ObservationSummary` of this session."""
        return ObservationSummary(
            span_totals={
                name: {
                    "count": self.tracer.count(name),
                    "total_seconds": self.tracer.total_time(name),
                }
                for name in self.tracer.names()
            },
            metrics=self.registry.snapshot(),
            event_counts=self.event_log.kind_counts(),
        )

    # -- exports -----------------------------------------------------------

    def to_dict(self, *, meta: Optional[dict] = None) -> dict:
        """The JSON trace document as a plain dict."""
        return observability_to_dict(
            self.tracer, self.registry, self.event_log,
            monitoring=self.monitoring, meta=meta,
        )

    def write_trace_json(self, path, *, meta: Optional[dict] = None) -> Path:
        """Write the JSON trace document; returns the written path."""
        return write_trace_json(
            path, self.tracer, self.registry, self.event_log,
            monitoring=self.monitoring, meta=meta,
        )

    def write_metrics_csv(self, path) -> Path:
        """Write the flat CSV metric rows; returns the written path."""
        return write_metrics_csv(path, self.registry)

    def summary(self, *, title: str = "observability summary") -> str:
        """The results/-style text report."""
        return summary_report(self.tracer, self.registry, self.event_log, title=title)

    def write_summary(self, path, *, title: str = "observability summary") -> Path:
        """Write the text report; returns the written path."""
        return write_summary(path, self.tracer, self.registry, self.event_log, title=title)

    def export(self, *, meta: Optional[dict] = None) -> None:
        """Write every export path configured on the config (if any)."""
        if self.config.trace_path:
            self.write_trace_json(self.config.trace_path, meta=meta)
        if self.config.metrics_path:
            self.write_metrics_csv(self.config.metrics_path)
        if self.config.summary_path:
            self.write_summary(self.config.summary_path)
