"""Cluster telemetry: the fleet metrics scraper and time-series store.

Since the sharded-cluster work every ``repro-serve`` shard and the
``repro-cluster`` router expose their own isolated ``/metrics`` and
``/healthz``; this module is the layer that turns those per-process
snapshots into one fleet-wide view:

* :class:`TelemetryScraper` polls each target's ``/healthz`` +
  ``/metrics`` on an interval over the existing keep-alive
  :class:`~repro.service.client.ServiceClient`, parses the exposition
  with :func:`~repro.obs.prom.parse_exposition` (exemplar comments
  included), and records every sample into the store stamped with the
  target's ``role``/``shard`` identity -- auto-detected from
  ``/healthz`` so the operator only supplies ``host:port`` pairs.  A
  target that cannot be reached still produces a point: its synthetic
  ``up`` gauge drops to ``0``.

* :class:`TimeSeriesStore` is a bounded in-memory ring per series.
  Counters get *windowed increases* (consecutive-point deltas clamped
  at zero, so a restarted daemon's counter reset never produces a
  negative rate); histograms are decomposed into per-bucket cumulative
  series at ingest and re-assembled on demand as
  :class:`WindowedHistogram` rollups -- windowed, merged across every
  shard that matches, and quantile-interpolated the same way
  :class:`~repro.obs.metrics.Histogram` does it.

The store is what the :class:`~repro.obs.burn.BurnRateEngine` and the
``repro-obs dashboard`` renderer read; neither ever touches raw
exposition text.

Series *selectors* (``metric{label="value"}``, unmentioned labels
unconstrained) are shared with :class:`~repro.obs.slo.BurnRateSLO` --
see :func:`parse_selector`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.prom import ParsedExposition, parse_exposition, split_series_key
from repro.service.client import UNREACHABLE, ServiceClient

__all__ = [
    "ScrapeResult",
    "TargetMeta",
    "TelemetryScraper",
    "TimeSeriesStore",
    "WindowedHistogram",
    "parse_selector",
    "selector_matches",
]

#: Synthetic per-target gauge recorded by the scraper: 1 reachable, 0 not.
UP_SERIES = "up"


def parse_selector(text: str) -> Tuple[str, Dict[str, str]]:
    """``metric{label="value",...}`` -> (metric, label subset).

    Label values may be quoted or bare (``verdict=established`` and
    ``verdict="established"`` are the same selector); unmentioned labels
    are unconstrained.
    """
    text = text.strip()
    if "{" not in text:
        return text, {}
    name, _, label_text = text.partition("{")
    labels: Dict[str, str] = {}
    for pair in label_text.rstrip("}").split(","):
        pair = pair.strip()
        if not pair:
            continue
        label, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"malformed selector label {pair!r} in {text!r}")
        labels[label.strip()] = value.strip().strip('"')
    return name.strip(), labels


def selector_matches(selector: Tuple[str, Mapping[str, str]], name: str,
                     labels: Mapping[str, str]) -> bool:
    """True when the series (name, labels) satisfies the selector."""
    sel_name, sel_labels = selector
    if name != sel_name:
        return False
    return all(labels.get(key) == value for key, value in sel_labels.items())


@dataclass
class TargetMeta:
    """Identity and scrape health of one ``host:port`` target."""

    target: str
    host: str
    port: int
    role: str = ""
    shard: str = ""
    up: bool = False
    consecutive_failures: int = 0
    last_error: str = ""
    last_scrape: Optional[float] = None
    last_health: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScrapeResult:
    """Outcome of one :meth:`TelemetryScraper.scrape_once` sweep."""

    ts: float
    reachable: int
    unreachable: int
    samples: int


#: Points each scraped series keeps: at the default 1 Hz scrape, twelve
#: minutes of history, far past any burn-rate window this repo uses.
SERIES_CAPACITY = 720


class _Series:
    """One bounded ring of (timestamp, value) points."""

    __slots__ = ("kind", "name", "labels", "points")

    def __init__(self, kind: str, name: str, labels: Dict[str, str]) -> None:
        self.kind = kind
        self.name = name
        self.labels = labels
        self.points: Deque[Tuple[float, float]] = deque(maxlen=SERIES_CAPACITY)

    def record(self, ts: float, value: float) -> None:
        self.points.append((ts, value))

    def latest(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def window_increase(self, start: float, *, clamp: bool = True) -> float:
        """Sum of consecutive-point increments newer than ``start``.

        With ``clamp`` (the counter semantics) negative increments --
        a process restart resetting the counter -- contribute zero
        instead of poisoning the window.
        """
        total = 0.0
        previous: Optional[Tuple[float, float]] = None
        for ts, value in self.points:
            if previous is not None and ts > start:
                increment = value - previous[1]
                if clamp:
                    increment = max(0.0, increment)
                total += increment
            previous = (ts, value)
        return total


@dataclass
class WindowedHistogram:
    """A histogram rollup over one window, merged across targets.

    ``counts`` are non-cumulative per-bucket observation counts with the
    trailing ``+Inf`` overflow entry, exactly the layout of
    :class:`~repro.obs.metrics.Histogram`.
    """

    boundaries: Tuple[float, ...]
    counts: List[float]
    count: float
    sum: float

    def fraction_above(self, bound: float) -> float:
        """Fraction of windowed observations in buckets above ``bound``.

        Attribution is by bucket upper edge: a bucket counts as "above"
        when its upper boundary exceeds ``bound``, which is the
        conservative reading a latency SLO wants.
        """
        if self.count <= 0:
            return 0.0
        above = 0.0
        for index, bucket_count in enumerate(self.counts):
            upper = (
                self.boundaries[index]
                if index < len(self.boundaries)
                else float("inf")
            )
            if upper > bound:
                above += bucket_count
        return above / self.count

    def quantile(self, q: float) -> float:
        """Interpolated quantile, clamped to the outermost finite bounds."""
        if self.count <= 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                upper = (
                    self.boundaries[index]
                    if index < len(self.boundaries)
                    else (self.boundaries[-1] if self.boundaries else 0.0)
                )
                lower = self.boundaries[index - 1] if index > 0 else 0.0
                if index >= len(self.boundaries):
                    return upper  # overflow bucket: best estimate is the edge
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * fraction
        return self.boundaries[-1] if self.boundaries else 0.0


class TimeSeriesStore:
    """In-memory ring store for scraped fleet samples.

    Keyed twice: by target (one ring set per scraped process) and
    within a target by the parsed sample key.  :data:`SERIES_CAPACITY`
    bounds each series' ring.
    """

    def __init__(self) -> None:
        self._targets: Dict[str, TargetMeta] = {}
        self._series: Dict[str, Dict[str, _Series]] = {}

    # -- ingest ------------------------------------------------------------

    def _meta(self, target: str, host: str, port: int) -> TargetMeta:
        meta = self._targets.get(target)
        if meta is None:
            meta = TargetMeta(target=target, host=host, port=port)
            self._targets[target] = meta
            self._series[target] = {}
        return meta

    def _record(self, target: str, kind: str, key: str, ts: float,
                value: float, baseline: Optional[float] = None) -> None:
        rings = self._series[target]
        series = rings.get(key)
        if series is None:
            # Histogram component keys carry a "#le=..."/"#count"/"#sum"
            # suffix outside the label braces; name/labels always come
            # from the base sample key.
            name, labels = split_series_key(key.split("#", 1)[0])
            series = _Series(kind, name, labels)
            rings[key] = series
            if kind == "counter" and baseline is not None:
                # The target was scraped before without this counter, so
                # the series was born between sweeps at an implied zero.
                # Without this seed a counter whose entire increase lands
                # inside one scrape interval (a burst of rejections, a
                # label value first exercised mid-incident) would never
                # contribute to window_increase -- the first point has
                # no predecessor to diff against.
                series.record(baseline, 0.0)
        series.record(ts, value)

    def record_scrape(self, target: str, parsed: ParsedExposition, *,
                      ts: float, host: str = "", port: int = 0,
                      role: str = "", shard: str = "",
                      health: Optional[Mapping[str, object]] = None) -> int:
        """Ingest one successful scrape; returns the sample count."""
        meta = self._meta(target, host, port)
        baseline = meta.last_scrape
        meta.up = True
        meta.consecutive_failures = 0
        meta.last_error = ""
        meta.last_scrape = ts
        if role:
            meta.role = role
        if shard:
            meta.shard = shard
        if health is not None:
            meta.last_health = dict(health)
        self._record(target, "gauge", UP_SERIES, ts, 1.0)
        samples = 0
        for key, value in parsed.counters.items():
            self._record(target, "counter", key, ts, value, baseline)
            samples += 1
        for key, value in parsed.gauges.items():
            self._record(target, "gauge", key, ts, value)
            samples += 1
        for key, histogram in parsed.histograms.items():
            cumulative = 0.0
            for bound, bucket_count in zip(histogram.boundaries,
                                           histogram.bucket_counts):
                cumulative += bucket_count
                self._record(target, "counter", f"{key}#le={bound:g}", ts,
                             cumulative, baseline)
            self._record(target, "counter", f"{key}#count", ts,
                         histogram.count, baseline)
            self._record(target, "counter", f"{key}#sum", ts, histogram.sum,
                         baseline)
            samples += 1
        return samples

    def record_unreachable(self, target: str, *, ts: float, host: str = "",
                           port: int = 0, error: str = "") -> None:
        """Ingest one failed scrape: ``up`` drops to zero."""
        meta = self._meta(target, host, port)
        meta.up = False
        meta.consecutive_failures += 1
        meta.last_error = error
        meta.last_scrape = ts
        self._record(target, "gauge", UP_SERIES, ts, 0.0)

    # -- reads -------------------------------------------------------------

    def targets(self) -> List[TargetMeta]:
        return list(self._targets.values())

    def _matching_targets(self, role: Optional[str],
                          target: Optional[str] = None) -> Iterable[str]:
        for key, meta in self._targets.items():
            if target is not None and key != target:
                continue
            if role and meta.role != role:
                continue
            yield key

    def latest(self, target: str, key: str) -> Optional[float]:
        series = self._series.get(target, {}).get(key)
        return series.latest() if series is not None else None

    def latest_by_selector(self, selector_text: str, *,
                           role: Optional[str] = None
                           ) -> List[Tuple[str, str, float]]:
        """Latest value of every matching series: (target, key, value)."""
        selector = parse_selector(selector_text)
        out: List[Tuple[str, str, float]] = []
        for target in self._matching_targets(role):
            for key, series in self._series[target].items():
                if "#" in key:
                    continue  # histogram components are not point series
                if not selector_matches(selector, series.name, series.labels):
                    continue
                value = series.latest()
                if value is not None:
                    out.append((target, key, value))
        return out

    def counter_window_sum(self, selectors: Sequence[str], *, window: float,
                           now: float, role: Optional[str] = None,
                           target: Optional[str] = None) -> float:
        """Summed windowed increase of every counter matching a selector."""
        parsed_selectors = [parse_selector(text) for text in selectors]
        start = now - window
        total = 0.0
        for matched in self._matching_targets(role, target):
            for key, series in self._series[matched].items():
                if series.kind != "counter" or "#" in key:
                    continue
                if any(selector_matches(sel, series.name, series.labels)
                       for sel in parsed_selectors):
                    total += series.window_increase(start)
        return total

    def counter_rate(self, selectors: Sequence[str], *, window: float,
                     now: float, role: Optional[str] = None,
                     target: Optional[str] = None) -> float:
        """Per-second rate over the window (summed across matches)."""
        if window <= 0:
            return 0.0
        return self.counter_window_sum(selectors, window=window, now=now,
                                       role=role, target=target) / window

    def histogram_window(self, metric: str, *, window: float, now: float,
                         role: Optional[str] = None,
                         target: Optional[str] = None,
                         labels: Optional[Mapping[str, str]] = None
                         ) -> Optional[WindowedHistogram]:
        """Windowed, cross-target merge of one histogram metric.

        Matching label sets from different shards are summed
        bucket-by-bucket; merging requires identical boundaries (true
        for every repro daemon, which share the default bucket ladder) --
        a mismatched target is skipped rather than silently mangled.
        """
        selector = (metric, dict(labels or {}))
        start = now - window
        boundaries: Optional[Tuple[float, ...]] = None
        merged: Dict[float, float] = {}
        total_count = 0.0
        total_sum = 0.0
        matched = False
        for matched_target in self._matching_targets(role, target):
            rings = self._series[matched_target]
            by_key: Dict[str, Dict[float, _Series]] = {}
            for key, series in rings.items():
                if "#le=" not in key:
                    continue
                base, _, bound_text = key.rpartition("#le=")
                name, series_labels = split_series_key(base)
                if not selector_matches(selector, name, series_labels):
                    continue
                by_key.setdefault(base, {})[float(bound_text)] = series
            # Second pass per series-set (a target can host several
            # label sets of the same metric) so boundary agreement is
            # checked where it matters.
            for base, buckets in by_key.items():
                bounds = tuple(sorted(buckets))
                if boundaries is None:
                    boundaries = bounds
                elif bounds != boundaries:
                    continue
                matched = True
                previous = 0.0
                for bound in bounds:
                    increase = buckets[bound].window_increase(start)
                    bucket_delta = increase - previous
                    merged[bound] = merged.get(bound, 0.0) + max(0.0, bucket_delta)
                    previous = increase
                count_series = rings.get(f"{base}#count")
                sum_series = rings.get(f"{base}#sum")
                count_increase = (
                    count_series.window_increase(start)
                    if count_series is not None else 0.0
                )
                overflow = count_increase - previous
                merged[float("inf")] = merged.get(float("inf"), 0.0) + max(
                    0.0, overflow
                )
                total_count += count_increase
                if sum_series is not None:
                    total_sum += sum_series.window_increase(start, clamp=False)
        if not matched or boundaries is None:
            return None
        counts = [merged.get(bound, 0.0) for bound in boundaries]
        counts.append(merged.get(float("inf"), 0.0))
        return WindowedHistogram(boundaries=boundaries, counts=counts,
                                 count=total_count, sum=total_sum)


class TelemetryScraper:
    """Polls a fleet of ``host:port`` targets into a store.

    Roles and shard identities are discovered, not configured: each
    sweep hits ``/healthz`` first and stamps the target with the
    ``role`` / ``shard`` / ``shard_index`` fields the daemons report.
    One sweep is :meth:`scrape_once`; :meth:`run` loops it on
    ``interval`` with an optional per-sweep callback (the burn engine
    hooks in there).
    """

    def __init__(self, targets: Sequence[Tuple[str, int]],
                 store: Optional[TimeSeriesStore] = None, *,
                 interval: float = 1.0, timeout: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not targets:
            raise ValueError("TelemetryScraper needs at least one target")
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.store = store if store is not None else TimeSeriesStore()
        self.interval = interval
        self.timeout = timeout
        self._clock = clock
        self._targets = [(host, int(port)) for host, port in targets]
        self._clients: Dict[str, ServiceClient] = {}

    @staticmethod
    def target_key(host: str, port: int) -> str:
        return f"{host}:{port}"

    def _client(self, host: str, port: int) -> ServiceClient:
        key = self.target_key(host, port)
        client = self._clients.get(key)
        if client is None:
            client = ServiceClient(host, port)
            self._clients[key] = client
        return client

    async def _scrape_target(self, host: str, port: int,
                             ts: float) -> Tuple[bool, int]:
        key = self.target_key(host, port)
        client = self._client(host, port)
        try:
            health = await asyncio.wait_for(client.healthz(),
                                            timeout=self.timeout)
            text = await asyncio.wait_for(client.metrics(),
                                          timeout=self.timeout)
        except UNREACHABLE as exc:
            self.store.record_unreachable(
                key, ts=ts, host=host, port=port,
                error=f"{type(exc).__name__}: {exc}",
            )
            return False, 0
        parsed = parse_exposition(text)
        role = str(health.get("role", "")) if isinstance(health, dict) else ""
        shard = ""
        if isinstance(health, dict):
            if health.get("shard"):
                shard = str(health["shard"])
            elif health.get("shard_index") is not None:
                shard = f"shard-{health['shard_index']}"
        samples = self.store.record_scrape(
            key, parsed, ts=ts, host=host, port=port, role=role,
            shard=shard, health=health if isinstance(health, dict) else None,
        )
        return True, samples

    async def scrape_once(self) -> ScrapeResult:
        """One concurrent sweep over every target."""
        ts = self._clock()
        outcomes = await asyncio.gather(
            *(self._scrape_target(host, port, ts)
              for host, port in self._targets)
        )
        reachable = sum(1 for ok, _ in outcomes if ok)
        samples = sum(count for _, count in outcomes)
        return ScrapeResult(ts=ts, reachable=reachable,
                            unreachable=len(outcomes) - reachable,
                            samples=samples)

    async def run(self, *, iterations: Optional[int] = None,
                  on_scrape: Optional[Callable[[ScrapeResult], object]] = None
                  ) -> int:
        """Scrape on the interval; returns the number of sweeps done.

        ``iterations=None`` loops until cancelled.  ``on_scrape`` runs
        after every sweep (awaited when it returns a coroutine), which
        is where the burn engine and the dashboard renderer attach.
        """
        done = 0
        try:
            while iterations is None or done < iterations:
                started = self._clock()
                result = await self.scrape_once()
                done += 1
                if on_scrape is not None:
                    maybe = on_scrape(result)
                    if asyncio.iscoroutine(maybe):
                        await maybe
                if iterations is not None and done >= iterations:
                    break
                elapsed = self._clock() - started
                await asyncio.sleep(max(0.0, self.interval - elapsed))
        finally:
            await self.aclose()
        return done

    async def aclose(self) -> None:
        clients = list(self._clients.values())
        self._clients.clear()
        for client in clients:
            await client.aclose()
