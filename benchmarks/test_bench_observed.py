"""Observed-run benchmark: overhead claim + what the observed run recorded.

Two purposes:

* measure the cost of full observability (tracing + metrics + the causal
  event log) against a dark run of the identical workload -- the
  "effectively free when off, cheap when on" claim;
* pin what the observed run recorded: its admitted/rejected counts,
  event counts, span counts and the non-timing metric leaves are
  deterministic for a fixed seed, so each is asserted exactly.
"""

import hashlib
import json
import time

from conftest import bench_config
from repro.obs import ObservationSession
from repro.sim import run_simulation

#: Reduced scale keeps this benchmark around a second per run.
OBSERVED_RATE = 180.0
OBSERVED_HORIZON = 300.0

#: What the seeded observed run records, exactly.
PINNED_EVENT_COUNTS = {
    "broker.grant": 4338,
    "broker.probe": 3704,
    "broker.release": 4338,
    "planner.tradeoff_backoff": 181,
    "session.admitted": 723,
    "session.degraded": 183,
    "session.planned": 723,
    "session.rejected": 203,
}
PINNED_SPAN_COUNTS = {
    "establish": 926,
    "phase1_availability": 926,
    "phase2_plan": 926,
    "phase3_dispatch": 723,
    "teardown": 723,
}
#: sha256 of the run's non-timing metric leaves (every counter and
#: gauge, and the ``session.psi`` histogram), see :func:`_metrics_digest`.
PINNED_METRICS_DIGEST = "5d557062cab3fc876c71454579d3685487136fcde5bd55da994d98924fc8c8bc"


def _config():
    return bench_config("tradeoff", OBSERVED_RATE, horizon=OBSERVED_HORIZON)


def _metrics_digest(metrics: dict) -> str:
    """sha256 of a registry snapshot minus its wall-clock histogram."""
    leaves = {
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "session.psi": metrics["histograms"]["session.psi"],
    }
    text = json.dumps(leaves, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_bench_observed_run(benchmark):
    """Dark vs fully observed wall time for one tradeoff run."""
    start = time.perf_counter()
    dark = run_simulation(_config())
    dark_seconds = time.perf_counter() - start

    def observed_once():
        with ObservationSession() as session:
            result = run_simulation(_config())
        return result, session.summarize()

    start = time.perf_counter()
    (observed, summary) = benchmark.pedantic(observed_once, rounds=1, iterations=1)
    observed_seconds = time.perf_counter() - start

    # Observation must not change a single simulation number.
    assert observed.metrics == dark.metrics

    overhead = (
        observed_seconds / dark_seconds - 1.0 if dark_seconds > 0 else float("inf")
    )
    benchmark.extra_info["dark_seconds"] = dark_seconds
    benchmark.extra_info["observed_seconds"] = observed_seconds
    benchmark.extra_info["overhead"] = overhead

    assert (observed.metrics.attempts, observed.metrics.successes) == (926, 723)
    assert dict(summary.event_counts) == PINNED_EVENT_COUNTS
    assert {
        name: totals["count"] for name, totals in summary.span_totals.items()
    } == PINNED_SPAN_COUNTS
    assert _metrics_digest(summary.metrics) == PINNED_METRICS_DIGEST
    # Generous bound: the observed run does strictly more work (spans,
    # counters, one event per admission decision); anything past 2x
    # would mean the instrumentation left the hot path's no-op pattern.
    assert overhead < 1.0, (
        f"observability overhead {overhead:.1%} "
        f"({observed_seconds:.2f}s vs {dark_seconds:.2f}s dark)"
    )
