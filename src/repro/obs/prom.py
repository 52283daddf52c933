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

Both sources go through one walk.  A live registry is walked in
:meth:`~repro.obs.metrics.MetricsRegistry.series` order, and each
series' head (metric name and escaped labels, every bucket's ``le``) is
rendered once and kept until the registry creates a series, so a scrape
formats only the values.  A document's snapshot keys are parsed back into
names and labels first; a key cannot tell a label value holding ``,``,
``=`` or ``}`` from a label boundary, so only the live render keeps such
a value whole.

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
lines -- which is how a client reads ``/metrics`` (the admission
benchmark, the cluster smoke in CI).  Render -> parse is lossless for
every value the renderer can produce, including ``+Inf``/``-Inf``/
``NaN`` spellings.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

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


def _parse_instrument_key(key: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Split a snapshot key ``name{k=v,...}`` back into name and labels.

    Ambiguous for a label value holding ``,``, ``=`` or ``}``: the key
    does not quote values, so such a value comes back split or cut.  Only
    trace documents need this; a live registry renders its labels as is.
    """
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


#: repr() of the non-finite floats -> the exposition format's spellings
#: (scrapers reject Python's lowercase "inf"/"nan").
_NON_FINITE = {"inf": "+Inf", "-inf": "-Inf", "nan": "NaN"}


def _format_value(value: float) -> str:
    text = repr(float(value))
    return _NON_FINITE.get(text, text)


#: One series as the renderer walks it: ``(kind, name, sorted label items,
#: source)``, the source read like the live instrument -- ``value``, or a
#: histogram's ``boundaries``, ``bucket_counts``, ``count``, ``sum`` and
#: ``exemplars``.
Series = Tuple[str, str, Tuple[Tuple[str, str], ...], object]


def _heads(series: Iterable[Series], prefix: str) -> list:
    """Each series' lines without their values: ``(type line, heads, source)``.

    The ``# TYPE`` line goes with the first series of a metric and is ""
    after it (two names may sanitise to one metric).  ``heads`` is the
    sample line up to its value; for a histogram it is the finite buckets'
    heads, the ``+Inf`` bucket's head, and the ``_sum`` and ``_count`` heads.
    """
    typed = set()
    plan = []
    for kind, name, items, source in series:
        metric = _metric_name(name, prefix)
        if kind == "counter" and not metric.endswith("_total"):
            metric += "_total"
        type_line = "" if metric in typed else f"# TYPE {metric} {kind}"
        typed.add(metric)
        labels = _render_label_items(items)
        if kind != "histogram":
            plan.append((type_line, f"{metric}{labels} ", source))
            continue
        bucket_labels = dict(items)
        buckets = []
        for le in [f"{float(bound):g}" for bound in source.boundaries] + ["+Inf"]:
            bucket_labels["le"] = le
            rendered = _render_label_items(tuple(sorted(bucket_labels.items())))
            buckets.append(f"{metric}_bucket{rendered}")
        heads = (buckets[:-1], buckets[-1], f"{metric}_sum{labels} ", f"{metric}_count{labels} ")
        plan.append((type_line, heads, source))
    return plan


def _render(plan: list) -> str:
    """The exposition text of a :func:`_heads` plan, its values read now."""
    lines: List[str] = []
    append = lines.append
    for type_line, heads, source in plan:
        if type_line:
            append(type_line)
        if type(heads) is str:
            append(heads + _format_value(source.value))
            continue
        buckets, overflow, sum_head, count_head = heads
        cumulative = 0.0
        for bucket, bucket_count in zip(buckets, source.bucket_counts):
            cumulative += bucket_count
            append(f"{bucket} {_format_value(cumulative)}")
        count = _format_value(source.count)
        append(f"{overflow} {count}")
        append(sum_head + _format_value(source.sum))
        append(count_head + count)
        for index, (value, exemplar) in sorted(source.exemplars.items()):
            bucket = buckets[index] if index < len(buckets) else overflow
            append(f"# EXEMPLAR {bucket} trace_id={exemplar} value={_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_exposition(snapshot: Mapping[str, Mapping[str, dict]], *,
                        prefix: str = DEFAULT_PREFIX,
                        exemplars: Optional[Mapping[str, Mapping[int, Tuple[float, str]]]] = None) -> str:
    """Prometheus text exposition of a ``MetricsRegistry.snapshot()`` dict.

    Works equally on the ``metrics`` section of a loaded trace document,
    which is the same snapshot shape -- that is what ``repro-obs
    export-prom`` feeds it.  ``exemplars`` maps a histogram's snapshot
    key (``name{labels}``) to its per-bucket ``(value, trace_id)``
    exemplars; each is rendered as an ``# EXEMPLAR`` comment line after
    that histogram's series (see the module docstring).  The keys are
    parsed once and walked like a live registry's series.
    """
    exemplars = exemplars or {}
    series: List[Series] = []
    for kind in ("counter", "gauge", "histogram"):
        for key, payload in snapshot.get(kind + "s", {}).items():
            name, items = _parse_instrument_key(key)
            if kind != "histogram":
                source = SimpleNamespace(value=payload["value"])
            else:
                boundaries = payload.get("boundaries", [])
                bucket_counts = payload.get("bucket_counts", [])
                finite = sum(count for _, count in zip(boundaries, bucket_counts))
                source = SimpleNamespace(
                    boundaries=boundaries, bucket_counts=bucket_counts,
                    count=payload.get("count", finite), sum=payload.get("sum", 0.0),
                    exemplars=exemplars.get(key, {}),
                )
            series.append((kind, name, items, source))
    return _render(_heads(series, prefix))


#: registry -> (the series() tuple, prefix, the plan rendered for them).
_PLANS: "weakref.WeakKeyDictionary[MetricsRegistry, tuple]" = weakref.WeakKeyDictionary()


def registry_exposition(registry: MetricsRegistry, *, prefix: str = DEFAULT_PREFIX) -> str:
    """Prometheus text exposition of a live :class:`MetricsRegistry`.

    Walks :meth:`MetricsRegistry.series` directly.  Each series' heads
    (name, escaped labels, every bucket's ``le``) are rendered once and
    reused until the registry creates a series; a scrape formats only the
    values, read live.  A live histogram still holds its exemplars, so
    they are rendered as ``# EXEMPLAR`` comment lines.
    """
    series = registry.series()
    cached = _PLANS.get(registry)
    if cached is None or cached[0] is not series or cached[1] != prefix:
        cached = _PLANS[registry] = (series, prefix, _heads(series, prefix))
    return _render(cached[2])


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
    instruments -- so a reader can treat a parsed scrape and a local
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
