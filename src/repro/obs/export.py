"""Exporters: JSON traces, CSV metrics, and text summary reports.

Three output shapes, all built from a :class:`~repro.obs.trace.Tracer`
and/or a :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`write_trace_json` -- one self-describing JSON document with the
  span records (see :meth:`SpanRecord.to_dict` for the event schema) and
  the full metrics snapshot; the machine-readable artifact of a run;
* :func:`write_metrics_csv` -- flat ``kind,name,labels,field,value``
  rows, loadable by any spreadsheet/pandas pipeline;
* :func:`summary_report` / :func:`write_summary` -- the human-readable
  digest in the style of the ``results/*.txt`` artifacts: per-phase
  timing totals and per-broker grant/reject tallies.

:func:`table` aligns those tallies, and every table ``repro-obs`` prints.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, format_labels
from repro.obs.trace import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "observability_to_dict",
    "summary_report",
    "table",
    "write_metrics_csv",
    "write_summary",
    "write_trace_json",
]

PathLike = Union[str, Path]

#: Schema version stamped into every JSON trace document, the one
#: version :func:`repro.obs.analyze.load_trace` reads.  Beside spans and
#: metrics a document may carry the causal reservation event log
#: (``events`` + ``event_counts``), the ``monitoring`` section (the
#: online monitoring plane's digest, see :mod:`repro.obs.monitor`),
#: ``trace_id``/``request_id`` keys on spans and events (present only
#: when a request-scoped :mod:`repro.obs.context` was bound -- the
#: cross-process linkage ``repro-obs stitch`` merges on) and the
#: flight-recorder ``meta`` fields of :mod:`repro.obs.flight`.
TRACE_SCHEMA_VERSION = 4

_ALIGN_WIDTH = re.compile(r"[<>^]\d+")


def observability_to_dict(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    *,
    monitoring: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> dict:
    """The JSON trace document as a plain dict (see the docs' schema)."""
    document: dict = {"schema_version": TRACE_SCHEMA_VERSION}
    if meta:
        document["meta"] = dict(meta)
    if tracer is not None:
        document["spans"] = tracer.to_dicts()
        document["span_totals"] = {
            name: {"count": tracer.count(name), "total_seconds": tracer.total_time(name)}
            for name in tracer.names()
        }
    if registry is not None:
        document["metrics"] = registry.snapshot()
    if events is not None:
        document["events"] = events.to_dicts()
        document["event_counts"] = events.kind_counts()
        if events.dropped:
            document["events_dropped"] = events.dropped
    if monitoring:
        document["monitoring"] = dict(monitoring)
    return document


def write_trace_json(
    path: PathLike,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    *,
    monitoring: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> Path:
    """Write the JSON trace document; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = observability_to_dict(tracer, registry, events, monitoring=monitoring, meta=meta)
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def write_metrics_csv(path: PathLike, registry: MetricsRegistry) -> Path:
    """Write every instrument as flat CSV rows; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "name", "labels", "field", "value"])
        for row in registry.rows():
            writer.writerow(row)
    return target


def table(columns: Sequence[Tuple[str, str]], rows: Iterable[Sequence[object]]) -> List[str]:
    """A header line of column titles, then one line per row.

    A column is ``(title, spec)``, where ``spec`` is the format spec of
    its cells and starts with their alignment and width (``"<16"``,
    ``">9.3f"``); the title takes that alignment and width.  Every line
    is indented two spaces, with one space between cells.
    """
    heads = [format(title, _ALIGN_WIDTH.match(spec).group()) for title, spec in columns]
    lines = ["  " + " ".join(heads)]
    for row in rows:
        lines.append("  " + " ".join(format(v, spec) for v, (_, spec) in zip(row, columns)))
    return lines


def _broker_table(registry: MetricsRegistry) -> List[str]:
    """Per-resource grants/rejections/releases rows, aligned."""
    per_resource: Dict[str, Dict[str, float]] = {}
    for name, labels, value in registry.iter_counters():
        if not name.startswith("broker."):
            continue
        resource = labels.get("resource", format_labels(tuple(sorted(labels.items()))) or "-")
        per_resource.setdefault(resource, {})[name.split(".", 1)[1]] = value
    if not per_resource:
        return []
    return ["per-broker reservations:"] + table(
        [("resource", "<14"), ("grants", ">8g"), ("rejects", ">8g"), ("releases", ">9g")],
        (
            (resource, counts.get("grants", 0), counts.get("rejections", 0),
             counts.get("releases", 0))
            for resource, counts in sorted(per_resource.items())
        ),
    )


def _histogram_table(registry: MetricsRegistry) -> List[str]:
    """Per-histogram distribution rows: count, mean and p50/p95/p99."""
    histograms = [
        (name, labels, h) for name, labels, h in registry.iter_histograms() if h.count
    ]
    if not histograms:
        return []
    return ["distributions:"] + table(
        [("histogram", "<30"), ("count", ">7")]
        + [(title, ">11.6g") for title in ("mean", "p50", "p95", "p99")],
        (
            (name + format_labels(tuple(sorted(labels.items()))), h.count, h.mean,
             h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
            for name, labels, h in histograms
        ),
    )


def summary_report(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    *,
    title: str = "observability summary",
) -> str:
    """A ``results/``-style text report of one traced run."""
    lines: List[str] = [title, "=" * len(title)]
    span_names = tracer.names() if tracer is not None else []
    if span_names:
        rows = []
        for name in span_names:
            count, total = tracer.count(name), tracer.total_time(name)
            rows.append((name, count, total, 1e6 * total / count if count else 0.0))
        lines += ["", "per-phase timings:"] + table(
            [("span", "<22"), ("count", ">7"), ("total_s", ">10.4f"), ("mean_us", ">10.1f")],
            rows,
        )
    if registry is not None:
        for section in (_broker_table(registry), _histogram_table(registry)):
            if section:
                lines += [""] + section
        session_names = sorted(
            {name for name, _labels, _value in registry.iter_counters() if name.startswith("session.")}
        )
        if session_names:
            lines.append("")
            lines.append("session outcomes:")
            for name in session_names:
                lines.append(f"  {name:<24} {registry.counter_total(name):g}")
    if events is not None and len(events):
        lines.append("")
        lines.append("reservation events:")
        for kind, count in events.kind_counts().items():
            lines.append(f"  {kind:<26} {count:g}")
        if events.dropped:
            lines.append(f"  (dropped beyond capacity: {events.dropped})")
    lines.append("")
    return "\n".join(lines)


def write_summary(
    path: PathLike,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    *,
    title: str = "observability summary",
) -> Path:
    """Write the text summary report; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(summary_report(tracer, registry, events, title=title))
    return target
