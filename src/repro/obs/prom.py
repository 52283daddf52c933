"""Prometheus text exposition of a metrics snapshot.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` -- live, or the
``snapshot()`` dict carried inside an exported trace document -- in the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so any
scrape-compatible tooling can ingest a finished run:

* counters become ``<name>_total`` with a ``# TYPE ... counter`` header;
* gauges keep their name with a ``# TYPE ... gauge`` header;
* histograms expand to the cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count``.

Dots in instrument names (``broker.grants``) become underscores, and the
configured ``prefix`` namespaces everything (``repro_broker_grants``).
No Prometheus client library is involved -- the format is plain text.

Histogram *exemplars* (per-bucket trace ids recorded by
``Histogram.observe(..., exemplar=...)``) are rendered as ``# EXEMPLAR``
comment lines next to their bucket series.  The classic text format has
no exemplar syntax (that is OpenMetrics) and ignores unknown comment
lines, so the output stays scrapeable by either while a human tailing
``/metrics`` can still jump from a slow bucket to the trace that
landed there.

:func:`parse_exposition` is the inverse: it reads an exposition body (a
live ``/metrics`` scrape or a rendered snapshot) back into typed samples
-- counters, gauges, histogram series re-assembled from their
``_bucket``/``_sum``/``_count`` parts, and the ``# EXEMPLAR`` comment
lines -- which is what the cluster telemetry scraper
(:mod:`repro.obs.telemetry`) ingests.  Render -> parse is lossless for
every value the renderer can produce, including ``+Inf``/``-Inf``/
``NaN`` spellings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, format_labels

__all__ = [
    "ExpositionParseError",
    "ParsedExemplar",
    "ParsedExposition",
    "ParsedHistogram",
    "parse_exposition",
    "registry_exposition",
    "snapshot_exposition",
    "split_series_key",
]

DEFAULT_PREFIX = "repro_"


@lru_cache(maxsize=4096)
def _metric_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name (``[a-zA-Z_:][a-zA-Z0-9_:]*``)."""
    sanitized = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in prefix + name
    )
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


@lru_cache(maxsize=8192)
def _render_label_items(items: Tuple[Tuple[str, str], ...]) -> str:
    if not items:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in items
    )
    return "{" + body + "}"


def _render_labels(labels: Mapping[str, str]) -> str:
    # The same label sets recur on every scrape of the same registry;
    # the items-tuple cache skips re-escaping and re-joining them.
    return _render_label_items(tuple(sorted(labels.items())))


@lru_cache(maxsize=8192)
def _parse_instrument_key(key: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Split a snapshot key ``name{k=v,...}`` back into name and labels."""
    if "{" not in key:
        return key, ()
    name, _, label_text = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in label_text.rstrip("}").split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, tuple(labels.items())


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        # The exposition format spells NaN exactly like this; Python's
        # repr(float("nan")) is lowercase "nan", which scrapers reject.
        return "NaN"
    return repr(value)


class _Writer:
    """Accumulates exposition lines, one ``# TYPE`` header per metric."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._typed: Dict[str, str] = {}

    def sample(self, metric: str, kind: str, labels: Mapping[str, str], value: float,
               *, sample_suffix: str = "") -> None:
        declared = self._typed.get(metric)
        if declared is None:
            self._typed[metric] = kind
            self._lines.append(f"# TYPE {metric} {kind}")
        self._lines.append(
            f"{metric}{sample_suffix}{_render_labels(labels)} {_format_value(value)}"
        )

    def comment(self, line: str) -> None:
        self._lines.append(f"# {line}")

    def text(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")


def snapshot_exposition(snapshot: Mapping[str, Mapping[str, dict]], *,
                        prefix: str = DEFAULT_PREFIX,
                        exemplars: Optional[Mapping[str, Mapping[int, Tuple[float, str]]]] = None) -> str:
    """Prometheus text exposition of a ``MetricsRegistry.snapshot()`` dict.

    Works equally on the ``metrics`` section of a loaded trace document,
    which is the same snapshot shape -- that is what ``repro-obs
    export-prom`` feeds it.  ``exemplars`` maps a histogram's snapshot
    key (``name{labels}``) to its per-bucket ``(value, trace_id)``
    exemplars; each is rendered as an ``# EXEMPLAR`` comment line after
    that histogram's series (see the module docstring).
    """
    writer = _Writer()
    for key, payload in snapshot.get("counters", {}).items():
        name, label_items = _parse_instrument_key(key)
        metric = _metric_name(name, prefix)
        if not metric.endswith("_total"):
            metric += "_total"
        writer.sample(metric, "counter", dict(label_items),
                      float(payload["value"]))
    for key, payload in snapshot.get("gauges", {}).items():
        name, label_items = _parse_instrument_key(key)
        writer.sample(_metric_name(name, prefix), "gauge", dict(label_items),
                      float(payload["value"]))
    for key, payload in snapshot.get("histograms", {}).items():
        name, label_items = _parse_instrument_key(key)
        labels = dict(label_items)
        metric = _metric_name(name, prefix)
        cumulative = 0.0
        boundaries = list(payload.get("boundaries", []))
        bucket_counts = list(payload.get("bucket_counts", []))
        for bound, bucket_count in zip(boundaries, bucket_counts):
            cumulative += bucket_count
            bucket_labels = dict(labels)
            bucket_labels["le"] = f"{float(bound):g}"
            writer.sample(metric, "histogram", bucket_labels, cumulative,
                          sample_suffix="_bucket")
        total_count = float(payload.get("count", cumulative))
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        writer.sample(metric, "histogram", inf_labels, total_count,
                      sample_suffix="_bucket")
        writer.sample(metric, "histogram", labels, float(payload.get("sum", 0.0)),
                      sample_suffix="_sum")
        writer.sample(metric, "histogram", labels, total_count, sample_suffix="_count")
        for bucket_index, (value, exemplar) in sorted(
            (exemplars or {}).get(key, {}).items()
        ):
            if bucket_index < len(boundaries):
                le = f"{float(boundaries[bucket_index]):g}"
            else:
                le = "+Inf"
            bucket_labels = dict(labels)
            bucket_labels["le"] = le
            writer.comment(
                f"EXEMPLAR {metric}_bucket{_render_labels(bucket_labels)} "
                f"trace_id={exemplar} value={_format_value(value)}"
            )
    return writer.text()


def registry_exposition(registry: MetricsRegistry, *, prefix: str = DEFAULT_PREFIX) -> str:
    """Prometheus text exposition of a live :class:`MetricsRegistry`.

    Unlike the snapshot path, a live registry still holds its histograms'
    exemplars, so they are collected here and rendered as ``# EXEMPLAR``
    comment lines.
    """
    exemplars = {
        name + format_labels(tuple(sorted(labels.items()))): dict(histogram.exemplars)
        for name, labels, histogram in registry.iter_histograms()
        if histogram.exemplars
    }
    return snapshot_exposition(registry.snapshot(), prefix=prefix, exemplars=exemplars)


# -- parsing (the scraper's inverse of the renderer) ---------------------------


class ExpositionParseError(ValueError):
    """A line the exposition parser cannot make sense of."""


@dataclass(frozen=True)
class ParsedExemplar:
    """One ``# EXEMPLAR`` comment line, re-typed.

    ``series`` is the full bucket sample name (``<metric>_bucket``) and
    ``labels`` includes the bucket's ``le``; ``value`` is the
    observation that landed there and ``trace_id`` the trace it belongs
    to.
    """

    series: str
    labels: Dict[str, str]
    trace_id: str
    value: float


@dataclass
class ParsedHistogram:
    """One histogram re-assembled from its exposition series.

    ``boundaries`` are the finite ``le`` bounds in ascending order and
    ``bucket_counts`` the *non-cumulative* per-bucket counts (one extra
    entry for the ``+Inf`` overflow bucket), matching the layout of
    :class:`~repro.obs.metrics.Histogram` so a parsed scrape and a local
    instrument read identically.
    """

    boundaries: List[float] = field(default_factory=list)
    bucket_counts: List[float] = field(default_factory=list)
    count: float = 0.0
    sum: float = 0.0

    #: ``le`` -> cumulative count, in exposition order (parser internal).
    _cumulative: Dict[float, float] = field(default_factory=dict)

    def _finish(self) -> None:
        bounds = sorted(b for b in self._cumulative if not math.isinf(b))
        self.boundaries = bounds
        counts: List[float] = []
        previous = 0.0
        for bound in bounds:
            cumulative = self._cumulative[bound]
            counts.append(cumulative - previous)
            previous = cumulative
        overflow_total = self._cumulative.get(math.inf, self.count)
        counts.append(overflow_total - previous)
        self.bucket_counts = counts


@dataclass
class ParsedExposition:
    """Typed view of one exposition body, keyed like a registry snapshot.

    Sample keys are ``<metric>{label="value",...}`` with labels sorted,
    exactly how :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` keys
    instruments -- so store code can treat a parsed scrape and a local
    snapshot interchangeably.  Metric names keep whatever prefix the
    renderer applied (``repro_broker_grants_total``).
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, ParsedHistogram] = field(default_factory=dict)
    exemplars: List[ParsedExemplar] = field(default_factory=list)
    #: metric name -> declared ``# TYPE`` ("counter" / "gauge" / "histogram").
    types: Dict[str, str] = field(default_factory=dict)
    #: Samples with no ``# TYPE`` declaration (foreign scrape targets).
    untyped: Dict[str, float] = field(default_factory=dict)

    @property
    def sample_count(self) -> int:
        """Total number of typed samples parsed."""
        return (
            len(self.counters)
            + len(self.gauges)
            + len(self.histograms)
            + len(self.untyped)
        )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise ExpositionParseError(f"unparseable sample value {text!r}") from exc


@lru_cache(maxsize=8192)
def _parse_sample_prefix(
    prefix: str,
) -> Tuple[str, Tuple[Tuple[str, str], ...], str]:
    """``name{labels}`` -> (name, sorted label items, canonical key).

    Sample lines repeat their name-and-labels prefix verbatim on every
    scrape of the same target (only the value changes), so this cache
    turns steady-state parsing of a line into one ``rpartition`` plus a
    float parse.
    """
    if "{" in prefix:
        name, _, rest = prefix.partition("{")
        if not rest.endswith("}"):
            raise ExpositionParseError(f"unterminated label set: {prefix!r}")
        name = name.strip()
        labels = _parse_label_text(rest[:-1])
        items = tuple(sorted(labels.items()))
        return name, items, _key_from_items(name, items)
    name = prefix.strip()
    if not name:
        raise ExpositionParseError(f"malformed sample line: {prefix!r}")
    return name, (), name


@lru_cache(maxsize=8192)
def _histogram_bucket_parts(
    base: str, items: Tuple[Tuple[str, str], ...]
) -> Tuple[Optional[str], str]:
    """Bucket label items -> (the ``le`` text, the le-less series key)."""
    le_text: Optional[str] = None
    rest: List[Tuple[str, str]] = []
    for label, value in items:
        if label == "le":
            le_text = value
        else:
            rest.append((label, value))
    return le_text, _key_from_items(base, tuple(rest))


def _parse_label_text(label_text: str) -> Dict[str, str]:
    """``k="v",k2="v2"`` -> dict, undoing the renderer's escapes."""
    labels: Dict[str, str] = {}
    index = 0
    length = len(label_text)
    while index < length:
        eq = label_text.find('="', index)
        if eq < 0:
            raise ExpositionParseError(f"malformed labels: {label_text!r}")
        name = label_text[index:eq]
        value_chars: List[str] = []
        cursor = eq + 2
        while cursor < length:
            ch = label_text[cursor]
            if ch == "\\" and cursor + 1 < length:
                escaped = label_text[cursor + 1]
                value_chars.append("\n" if escaped == "n" else escaped)
                cursor += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            cursor += 1
        else:
            raise ExpositionParseError(f"unterminated label value: {label_text!r}")
        labels[name] = "".join(value_chars)
        index = cursor + 1
        if index < length and label_text[index] == ",":
            index += 1
    return labels


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a parsed sample key ``name{k="v",...}`` into name and labels.

    The exact inverse of how :func:`parse_exposition` keys its samples
    (quoted, escaped, sorted labels) -- unlike the snapshot-key splitter
    this handles values containing commas or braces.
    """
    if "{" not in key:
        return key, {}
    name, _, label_text = key.partition("{")
    return name, _parse_label_text(label_text.rstrip("}"))


def _key_from_items(name: str, items: Tuple[Tuple[str, str], ...]) -> str:
    rendered = _render_label_items(items)
    return name + rendered if rendered else name


def _parse_exemplar_comment(body: str) -> Optional[ParsedExemplar]:
    """``EXEMPLAR <series>{labels} trace_id=<id> value=<v>`` or None."""
    try:
        series_part, trace_part, value_part = body.split(" ")[1:4]
    except ValueError:
        return None
    if not trace_part.startswith("trace_id=") or not value_part.startswith("value="):
        return None
    if "{" in series_part:
        name, _, rest = series_part.partition("{")
        labels = _parse_label_text(rest.rstrip("}"))
    else:
        name, labels = series_part, {}
    return ParsedExemplar(
        series=name,
        labels=labels,
        trace_id=trace_part[len("trace_id="):],
        value=_parse_value(value_part[len("value="):]),
    )


def parse_exposition(text: str) -> ParsedExposition:
    """Parse a Prometheus text exposition body into typed samples.

    The inverse of :func:`snapshot_exposition`: ``# TYPE`` headers type
    the samples, histogram ``_bucket``/``_sum``/``_count`` series are
    folded back into one :class:`ParsedHistogram` per label set, and
    ``# EXEMPLAR`` comment lines are collected.  Unknown comment lines
    are skipped (the format says so); samples that never saw a ``# TYPE``
    land in :attr:`ParsedExposition.untyped`.
    """
    parsed = ParsedExposition()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body == "TYPE" or body.startswith("TYPE "):
                parts = body.split()
                if len(parts) < 3:
                    raise ExpositionParseError(
                        f"truncated TYPE header: {line!r}"
                    )
                parsed.types[parts[1]] = parts[2]
                continue
            if body.startswith("EXEMPLAR "):
                exemplar = _parse_exemplar_comment(body)
                if exemplar is not None:
                    parsed.exemplars.append(exemplar)
            continue  # HELP and any other comment: ignored by spec
        prefix, sep, value_text = line.rpartition(" ")
        if not sep:
            raise ExpositionParseError(f"malformed sample line: {line!r}")
        name, items, key = _parse_sample_prefix(prefix)
        value = _parse_value(value_text)
        base, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            if name.endswith(candidate) and parsed.types.get(
                name[: -len(candidate)]
            ) == "histogram":
                base, suffix = name[: -len(candidate)], candidate
                break
        kind = parsed.types.get(base)
        if kind == "histogram":
            le_text, series_key = _histogram_bucket_parts(base, items)
            histogram = parsed.histograms.setdefault(
                series_key, ParsedHistogram()
            )
            if suffix == "_bucket":
                if le_text is None:
                    raise ExpositionParseError(
                        f"histogram bucket without le label: {line!r}"
                    )
                histogram._cumulative[_parse_value(le_text)] = value
            elif suffix == "_sum":
                histogram.sum = value
            elif suffix == "_count":
                histogram.count = value
            else:
                raise ExpositionParseError(
                    f"unexpected histogram sample {name!r}: {line!r}"
                )
        elif kind == "counter":
            parsed.counters[key] = value
        elif kind == "gauge":
            parsed.gauges[key] = value
        else:
            parsed.untyped[key] = value
    for histogram in parsed.histograms.values():
        histogram._finish()
    return parsed
