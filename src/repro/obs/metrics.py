"""Counters, gauges and histograms for brokers, proxies and sessions.

A :class:`MetricsRegistry` hands out labelled instruments on demand:

* :class:`Counter` -- monotonically increasing count (grants, rejections,
  releases, session outcomes);
* :class:`Gauge` -- last-written value (per-broker utilization);
* :class:`Histogram` -- fixed-boundary bucketed distribution (establish
  latency, the contention index of chosen plans).

Instruments are keyed by ``(name, sorted labels)``, so
``registry.counter("broker.grants", resource="cpu:H1")`` always returns
the same object; a call site that repeats the same string labels in the
same order reaches it without sorting or formatting anything.  Like
:mod:`repro.obs.trace`, instrumented code goes through the module-level
:func:`active_registry`; when no registry is installed (the default) the
check is a single global read and recording costs nothing.

That lookup still rebuilds a series key per call, which the admission
path would pay on every event.  Its owners (brokers, proxies, the
coordinator, the skeleton cache) keep one :class:`Instruments` each
instead: their series resolved once per installed registry.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PSI_BUCKETS",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "active_registry",
    "install",
    "metering",
    "uninstall",
]

#: Establish-latency boundaries (seconds): sub-millisecond planning up
#: to protocol round trips.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Contention-index boundaries: psi of an admissible plan lies in (0, 1].
DEFAULT_PSI_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

Labels = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount!r}")
        self.value += amount

    def rate(self, elapsed: float) -> float:
        """Events per time unit over an ``elapsed`` interval.

        ``elapsed`` is whatever clock the caller accounts in (wall
        seconds, simulated time units); non-positive intervals raise.
        """
        if elapsed <= 0:
            raise ValueError(f"elapsed interval must be positive, got {elapsed!r}")
        return self.value / elapsed

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {"value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta``."""
        self.value += delta

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {"value": self.value}


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` are inclusive upper bounds of the finite buckets; one
    implicit overflow bucket catches everything beyond the last bound.

    An observation may carry an *exemplar* -- an opaque string (in
    practice a trace_id) kept per bucket, last write wins.  Exemplars
    live beside the distribution in :attr:`exemplars` and are exposed by
    the Prometheus renderer; :meth:`to_dict` deliberately excludes them
    so trace documents and ``repro-obs diff`` see an unchanged shape.
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "sum", "min", "max", "exemplars")

    def __init__(self, boundaries: Tuple[float, ...]) -> None:
        if not boundaries:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(boundaries) != sorted(boundaries):
            raise ValueError(f"bucket boundaries must be sorted: {boundaries!r}")
        self.boundaries = tuple(float(b) for b in boundaries)
        self.bucket_counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket index -> (observed value, exemplar string); last write wins.
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    def observe(self, value: float, *, exemplar: Optional[str] = None) -> None:
        """Record one observation, optionally tagged with an exemplar."""
        bucket = bisect.bisect_left(self.boundaries, value)
        self.bucket_counts[bucket] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if exemplar is not None:
            self.exemplars[bucket] = (value, exemplar)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from the buckets.

        Linear interpolation within the containing bucket, the standard
        Prometheus ``histogram_quantile`` estimate; observations landing
        in the overflow bucket are reported as the recorded maximum.
        Returns 0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        lower = 0.0
        for bound, bucket_count in zip(self.boundaries, self.bucket_counts):
            if bucket_count and cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (bound - lower)
                # The true extremes are tracked exactly; never report an
                # interpolated value outside the observed range.
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            cumulative += bucket_count
            lower = bound
        return self.max if self.max is not None else lower

    def to_dict(self) -> dict:
        """JSON-compatible representation (boundaries + counts + stats)."""
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


def _label_key(labels: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _sort_key(item):
    """Deterministic export order: by name, then formatted label string.

    :meth:`MetricsRegistry.series` sorts with this one key, and every
    reader of the registry (snapshot, rows, iter_*, the exposition) walks
    that order, so trace documents, CSV rows, ``/metrics`` and ``repro-obs
    diff`` output are stable across runs and Python versions.
    """
    (name, labels) = item[0]
    return (name, format_labels(labels))


def format_labels(labels: Labels) -> str:
    """Prometheus-style ``{k=v,...}`` suffix ("" when unlabelled)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """Directory of every instrument created during one run."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        #: (name, *labels.items()) as a call site wrote it -> series key.
        self._series_keys: Dict[tuple, Tuple[str, Labels]] = {}
        #: What series() returns; None again whenever a series is created.
        self._order: Optional[Tuple[Tuple[str, str, Labels, object], ...]] = None

    # -- instrument access (get-or-create) ----------------------------------

    def _series_key(self, name: str, labels: Dict[str, object]) -> Tuple[str, Labels]:
        """``(name, _label_key(labels))``, remembered for all-``str`` labels.

        Only exact ``str`` values take the memo: ``1``, ``1.0`` and
        ``True`` are equal as dict keys but three different label
        values, and a ``str`` subclass may format as something else.
        """
        for value in labels.values():
            if type(value) is not str:
                return (name, _label_key(labels))
        written = (name, *labels.items())
        key = self._series_keys.get(written)
        if key is None:
            key = self._series_keys[written] = (name, _label_key(labels))
        return key

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for (name, labels), created on first use."""
        key = self._series_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
            self._order = None
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        key = self._series_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
            self._order = None
        return instrument

    def histogram(
        self,
        name: str,
        *,
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram for (name, labels), created on first use.

        ``buckets`` only matters at creation; later calls reuse the
        existing boundaries.
        """
        key = self._series_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
            self._order = None
        return instrument

    # -- reading -------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of a counter (0 when never written)."""
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        return sum(
            instrument.value
            for (counter_name, _labels), instrument in self._counters.items()
            if counter_name == name
        )

    def series(self) -> Tuple[Tuple[str, str, Labels, object], ...]:
        """Every series as ``(kind, name, labels, instrument)``, in export order.

        ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; counters
        come first, then gauges, then histograms, each sorted by name and
        formatted labels.  The order is sorted once and kept until a series
        is created, so every reader below -- and the exposition renderer,
        which keys the text it renders per series on this tuple -- shares it.
        """
        order = self._order
        if order is None:
            order = self._order = tuple(
                (kind, name, labels, instrument)
                for kind, instruments in (
                    ("counter", self._counters),
                    ("gauge", self._gauges),
                    ("histogram", self._histograms),
                )
                for (name, labels), instrument in sorted(instruments.items(), key=_sort_key)
            )
        return order

    def iter_counters(self) -> List[Tuple[str, Dict[str, str], float]]:
        """Every counter as ``(name, labels, value)``, in export order."""
        return [
            (name, dict(labels), counter.value)
            for kind, name, labels, counter in self.series() if kind == "counter"
        ]

    def iter_gauges(self) -> List[Tuple[str, Dict[str, str], float]]:
        """Every gauge as ``(name, labels, value)``, in export order."""
        return [
            (name, dict(labels), gauge.value)
            for kind, name, labels, gauge in self.series() if kind == "gauge"
        ]

    def iter_histograms(self) -> List[Tuple[str, Dict[str, str], Histogram]]:
        """Every histogram as ``(name, labels, instrument)``, in export order."""
        return [
            (name, dict(labels), histogram)
            for kind, name, labels, histogram in self.series() if kind == "histogram"
        ]

    def rows(self) -> List[Tuple[str, str, str, str, float]]:
        """Flat ``(kind, name, labels, field, value)`` rows for CSV export.

        Histograms expand to one row per summary field plus one per
        bucket (field ``le=<bound>``; the overflow bucket is ``le=inf``).
        """
        out: List[Tuple[str, str, str, str, float]] = []
        for kind, name, labels, instrument in self.series():
            label_text = format_labels(labels)
            if kind != "histogram":
                out.append((kind, name, label_text, "value", instrument.value))
                continue
            out.append(("histogram", name, label_text, "count", float(instrument.count)))
            out.append(("histogram", name, label_text, "sum", instrument.sum))
            bounds = [f"le={bound:g}" for bound in instrument.boundaries] + ["le=inf"]
            for bound, bucket_count in zip(bounds, instrument.bucket_counts):
                out.append(("histogram", name, label_text, bound, float(bucket_count)))
        return out

    def snapshot(self) -> dict:
        """JSON-compatible dump of every instrument, keyed ``name{labels}``."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for kind, name, labels, instrument in self.series():
            out[kind + "s"][name + format_labels(labels)] = instrument.to_dict()
        return out


class Instruments:
    """One owner's series on a registry, resolved once per registry.

    An owner on a hot path asks this instead of the registry, passing
    the registry it just read from :func:`active_registry`.  A series is
    resolved on its first use under that registry -- so it appears in
    exports exactly when a per-event lookup would have created it -- and
    is one dict read from then on, keyed by name plus the values of any
    per-call labels (which must be ``str``; a call site always passes
    the same label names).  A different registry, told apart by
    identity, starts over: nothing resolved under one is written to
    another.

    ``labels`` are the owner's own labels, read when a series is
    resolved, so an owner may finish filling the mapping it passed.
    """

    __slots__ = ("_labels", "_registry", "_counters", "_gauges", "_histograms")

    def __init__(self, labels: Optional[Dict[str, str]] = None) -> None:
        self._labels = labels if labels is not None else {}
        self._bind(None)

    def _bind(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._counters: Dict[object, Counter] = {}
        self._gauges: Dict[object, Gauge] = {}
        self._histograms: Dict[object, Histogram] = {}

    def counter(self, registry: MetricsRegistry, name: str, **labels: str) -> Counter:
        """The owner's counter ``name`` (plus ``labels``) on ``registry``."""
        if registry is not self._registry:
            self._bind(registry)
        key = (name, *labels.values()) if labels else name
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = registry.counter(
                name, **self._labels, **labels
            )
        return instrument

    def gauge(self, registry: MetricsRegistry, name: str, **labels: str) -> Gauge:
        """The owner's gauge ``name`` (plus ``labels``) on ``registry``."""
        if registry is not self._registry:
            self._bind(registry)
        key = (name, *labels.values()) if labels else name
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = registry.gauge(name, **self._labels, **labels)
        return instrument

    def histogram(
        self,
        registry: MetricsRegistry,
        name: str,
        *,
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The owner's histogram ``name`` (plus ``labels``) on ``registry``."""
        if registry is not self._registry:
            self._bind(registry)
        key = (name, *labels.values()) if labels else name
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = registry.histogram(
                name, buckets=buckets, **self._labels, **labels
            )
        return instrument


#: The installed registry; None means metrics are disabled (the default).
_ACTIVE: Optional[MetricsRegistry] = None


def install(registry: MetricsRegistry) -> None:
    """Make ``registry`` receive every metric from instrumented code."""
    global _ACTIVE
    _ACTIVE = registry


def uninstall() -> None:
    """Disable metrics (instrumentation reverts to the no-op path)."""
    global _ACTIVE
    _ACTIVE = None


def active_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or None when metrics are disabled."""
    return _ACTIVE


@contextmanager
def metering(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of the block, then restore."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
