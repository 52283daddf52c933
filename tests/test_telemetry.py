"""What a ``/metrics`` reader sees: the exposition against a committed
golden, the parser that reads it back, and the router's surface.

The renderer's output is pinned against a committed golden file that
exercises ``+Inf``/``NaN`` values, escaped label text and ``# EXEMPLAR``
comment lines; the parser is its exact inverse, refuses malformed lines
and keeps untyped samples; and a live router's ``/metrics`` exports
its admission verdicts and each shard's reachability, the series CI's
cluster smoke reads after it kills a shard.
"""

import asyncio
import math
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    ExpositionParseError,
    parse_exposition,
    registry_exposition,
    split_series_key,
)
from repro.service import DaemonConfig, ReservationDaemon, ServiceClient
from repro.cluster import ClusterConfig, ClusterDaemon

GOLDEN = Path(__file__).parent / "data" / "telemetry_golden.prom"

TRICKY_LABEL = 'quoted "reason" with \\backslash\\ and\nnewline'


def build_golden_registry() -> MetricsRegistry:
    """The registry whose rendering is pinned in ``telemetry_golden.prom``.

    Deliberately awkward: non-finite gauge values, a label value that
    needs every escape the format defines, and a histogram carrying
    per-bucket exemplars (including one in the overflow bucket).
    """
    registry = MetricsRegistry()
    registry.counter("daemon.sessions", outcome="established").inc(41)
    registry.counter("daemon.sessions", outcome=TRICKY_LABEL).inc(3)
    registry.gauge("budget.headroom").set(float("inf"))
    registry.gauge("budget.debt").set(float("-inf"))
    registry.gauge("clock.skew_seconds").set(float("nan"))
    registry.gauge("daemon.active_sessions").set(12)
    histogram = registry.histogram(
        "daemon.admission_phase_seconds",
        buckets=(0.001, 0.01, 0.1, 1.0),
        phase="plan",
    )
    histogram.observe(0.0004, exemplar="trace-aaaa")
    histogram.observe(0.03, exemplar="trace-bbbb")
    histogram.observe(0.03)
    histogram.observe(4.2, exemplar="trace-ffff")
    return registry


# ---------------------------------------------------------------------------
# renderer <-> parser round trip, pinned


def test_exposition_matches_committed_golden():
    rendered = registry_exposition(build_golden_registry())
    assert rendered == GOLDEN.read_text()


def test_golden_round_trips_through_parser():
    parsed = parse_exposition(GOLDEN.read_text())

    assert parsed.counters[
        'repro_daemon_sessions_total{outcome="established"}'
    ] == 41.0
    tricky_keys = [
        key for key in parsed.counters if "established" not in key
    ]
    assert len(tricky_keys) == 1
    _, labels = split_series_key(tricky_keys[0])
    assert labels["outcome"] == TRICKY_LABEL

    assert parsed.gauges["repro_budget_headroom"] == float("inf")
    assert parsed.gauges["repro_budget_debt"] == float("-inf")
    assert math.isnan(parsed.gauges["repro_clock_skew_seconds"])
    assert parsed.gauges["repro_daemon_active_sessions"] == 12.0

    key = 'repro_daemon_admission_phase_seconds{phase="plan"}'
    histogram = parsed.histograms[key]
    assert list(histogram.boundaries) == [0.001, 0.01, 0.1, 1.0]
    # Parsed bucket counts are per-bucket (non-cumulative) plus the
    # overflow entry, matching the live Histogram instrument's layout.
    assert list(histogram.bucket_counts) == [1.0, 0.0, 2.0, 0.0, 1.0]
    assert histogram.count == 4.0
    assert histogram.sum == pytest.approx(0.0004 + 0.03 + 0.03 + 4.2)

    assert len(parsed.exemplars) == 3
    by_trace = {ex.trace_id: ex for ex in parsed.exemplars}
    assert by_trace["trace-aaaa"].labels["le"] == "0.001"
    assert by_trace["trace-ffff"].labels["le"] == "+Inf"
    assert by_trace["trace-bbbb"].value == pytest.approx(0.03)

    assert parsed.types["repro_daemon_sessions_total"] == "counter"
    assert parsed.types["repro_daemon_admission_phase_seconds"] == "histogram"


def test_parse_rejects_malformed_lines():
    for bad in (
        "repro_x",                          # no value
        'repro_x{unclosed="v" 1.0',         # unterminated labels
        "repro_x not_a_number",             # bad value
        '# TYPE repro_x',                   # truncated TYPE header
    ):
        with pytest.raises(ExpositionParseError):
            parse_exposition(bad + "\n")


def test_untyped_samples_and_unknown_comments_are_tolerated():
    parsed = parse_exposition(
        "# HELP something free text, ignored\n"
        "mystery_metric 7\n"
    )
    assert parsed.untyped["mystery_metric"] == 7.0
    assert parsed.sample_count == 1


# ---------------------------------------------------------------------------
# the router's surface, over real sockets


def test_router_metrics_classify_infra_and_merit_rejections():
    async def scenario():
        daemon = ReservationDaemon(
            DaemonConfig(port=0, seed=11, shard_index=0, shard_count=1)
        )
        await daemon.start()
        router = ClusterDaemon(ClusterConfig(
            shards=(("127.0.0.1", daemon.port),), port=0, seed=11
        ))
        await router.start()
        client = ServiceClient("127.0.0.1", router.port)
        try:
            await client.establish(service="S2", domain="D1",
                                   session_id="ok-1", duration=30.0)
            text = await client.metrics()
            parsed = parse_exposition(text)
            assert parsed.counters[
                'repro_cluster_admissions_total{verdict="established"}'
            ] == 1.0
            assert parsed.gauges[
                'repro_cluster_shard_reachable{shard="shard-0"}'
            ] == 1.0
            assert parsed.gauges["repro_cluster_shard_count"] == 1.0
            assert parsed.gauges["repro_cluster_active_sessions"] == 1.0
            assert parsed.gauges["repro_cluster_pending_teardown_sessions"] == 0.0

            # A QoS-aware "no" is merit; a shard that is gone is infra.
            refused = await client.establish(
                service="S2", domain="D1", session_id="big-1",
                duration=30.0, demand_scale=1e6,
            )
            assert refused["success"] is False
            await daemon.shutdown()
            gone = await client.establish(service="S2", domain="D1",
                                          session_id="gone-1", duration=30.0)
            assert (gone["success"], gone["reason"]) == (False, "shard_unreachable")
            parsed = parse_exposition(await client.metrics())
            verdicts = {
                verdict: parsed.counters.get(
                    f'repro_cluster_admissions_total{{verdict="{verdict}"}}')
                for verdict in ("established", "rejected_merit", "rejected_infra")
            }
            assert verdicts == {
                "established": 1.0, "rejected_merit": 1.0, "rejected_infra": 1.0,
            }
            assert parsed.gauges[
                'repro_cluster_shard_reachable{shard="shard-0"}'
            ] == 0.0
        finally:
            await client.aclose()
            await router.shutdown()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_a_one_shard_router_counts_its_sessions_and_teardowns():
    """A router of one shard runs the cross-shard protocol, so its own
    ``/metrics`` counts the session it admitted and the teardown that
    freed it, as a router of several shards does."""

    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
        await daemon.start()
        router = ClusterDaemon(ClusterConfig(
            shards=(("127.0.0.1", daemon.port),), port=0, seed=11
        ))
        await router.start()
        client = ServiceClient("127.0.0.1", router.port)
        try:
            await client.establish(service="S2", domain="D1", session_id="one-1")
            admitted = parse_exposition(await client.metrics())
            await client.teardown("one-1")
            freed = parse_exposition(await client.metrics())
        finally:
            await client.aclose()
            await router.shutdown()
            await daemon.shutdown()
        assert admitted.gauges["repro_cluster_active_sessions"] == 1.0
        assert freed.gauges["repro_cluster_active_sessions"] == 0.0
        assert freed.counters["repro_cluster_teardowns_total"] == 1.0

    asyncio.run(scenario())
