"""Trace analysis (repro.obs.analyze) and Prometheus exposition (obs.prom)."""

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, ObservabilityConfig
from repro.obs.analyze import (
    TraceDocument,
    TraceFormatError,
    broker_timelines,
    critical_path,
    diff_documents,
    load_trace,
    phase_totals,
    top_bottlenecks,
)
from repro.obs.export import TRACE_SCHEMA_VERSION
from repro.obs.prom import registry_exposition, snapshot_exposition

DATA_DIR = Path(__file__).parent / "data"
#: Small hand-written schema-v4 documents: spans and metrics only, and
#: two sessions with an event log.
SPANS_ONLY = DATA_DIR / "trace_spans_only.json"
TWO_SESSIONS = DATA_DIR / "trace_two_sessions.json"


class TestLoadTrace:
    def test_future_and_garbage_versions_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unsupported"):
            TraceDocument.from_dict({"schema_version": TRACE_SCHEMA_VERSION + 1})
        # one schema is read: older versions are refused like newer ones
        with pytest.raises(TraceFormatError, match="unsupported"):
            TraceDocument.from_dict({"schema_version": TRACE_SCHEMA_VERSION - 1})
        with pytest.raises(TraceFormatError, match="missing"):
            TraceDocument.from_dict({"spans": []})
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"schema_version": 0}))
        with pytest.raises(TraceFormatError):
            load_trace(target)


class TestCriticalPath:
    def test_self_times_and_critical_phase(self):
        doc = load_trace(SPANS_ONLY)
        (breakdown,) = critical_path(doc)
        assert breakdown.session == "ssn-1"
        assert breakdown.service == "S1"
        assert breakdown.outcome == "established"
        assert breakdown.total_seconds == pytest.approx(0.0016)
        phases = breakdown.phase_seconds
        # phase2_plan self time = 0.0009 - (qrg 0.0004 + plan 0.0003)
        assert phases["phase2_plan"] == pytest.approx(0.0002)
        # establish self time = 0.0016 - (0.0002 + 0.0009 + 0.0002)
        assert phases["establish"] == pytest.approx(0.0003)
        assert phases["qrg_build"] == pytest.approx(0.0004)
        # self times sum back to the root duration exactly
        assert sum(phases.values()) == pytest.approx(breakdown.total_seconds)
        assert breakdown.critical_phase == "qrg_build"

    def test_filter_sort_and_limit(self):
        doc = load_trace(TWO_SESSIONS)
        both = critical_path(doc)
        assert [b.session for b in both] == ["ssn-1", "ssn-2"]  # slowest first
        assert critical_path(doc, limit=1)[0].session == "ssn-1"
        only = critical_path(doc, session="ssn-2")
        assert len(only) == 1 and only[0].outcome == "admission_failed"
        totals = phase_totals(both)
        assert totals["establish"] == pytest.approx(0.003)


class TestBrokerTimelines:
    def test_counts_rates_and_points(self):
        doc = load_trace(TWO_SESSIONS)
        timelines = broker_timelines(doc)
        assert list(timelines) == ["cpu:H1"]
        timeline = timelines["cpu:H1"]
        assert (timeline.grants, timeline.rejects, timeline.releases) == (1, 1, 1)
        assert timeline.attempts == 2
        assert timeline.rejection_rate == pytest.approx(0.5)
        assert timeline.first_reject_time == 6.0
        assert timeline.peak_utilization == pytest.approx(0.4)
        # events ordered by sim time: grant at t=5, release at t=9
        assert timeline.utilization_points == [(5.0, 0.4), (9.0, 0.0)]
        assert timeline.reject_points == [(6.0, 55.0, 52.0)]


class TestTopBottlenecks:
    def test_scoring_and_ranking(self):
        doc = load_trace(TWO_SESSIONS)
        (report,) = top_bottlenecks(doc, k=3)
        assert report.resource == "cpu:H1"
        assert report.planned_bottleneck == 2
        assert report.admission_failures == 1
        assert report.broker_rejects == 1
        # session kills weigh double plan-time pressure
        assert report.score == pytest.approx(2 + 2 * 1 + 2 * 1)
        assert report.mean_psi == pytest.approx((0.4 + 0.9) / 2)

    def test_k_truncates(self):
        doc = load_trace(TWO_SESSIONS)
        assert top_bottlenecks(doc, k=0) == []


class TestDiff:
    def test_trace_documents_compare_curated_leaves(self):
        base = json.loads(TWO_SESSIONS.read_text())
        new = json.loads(TWO_SESSIONS.read_text())
        new["event_counts"]["broker.reject"] = 5
        new["metrics"]["counters"]["broker.grants{resource=cpu:H1}"]["value"] = 3.0
        entries = {e.path: e for e in diff_documents(base, new)}
        # raw span/event arrays never become leaves
        assert not any(path.startswith(("spans", "events.")) for path in entries)
        changed = entries["event_counts.broker.reject"]
        assert (changed.base, changed.new, changed.delta) == (1.0, 5.0, 4.0)
        unchanged = entries["span_totals.establish.count"]
        assert unchanged.delta == 0.0

    def test_one_sided_leaves(self):
        entries = diff_documents({"a": 1.0}, {"b": 2.0})
        by_path = {e.path: e for e in entries}
        assert by_path["a"].new is None and by_path["a"].delta is None
        assert by_path["b"].base is None

    def test_booleans_and_strings_are_not_leaves(self):
        entries = diff_documents(
            {"git_sha": "abc", "ok": True, "n": 1},
            {"git_sha": "def", "ok": False, "n": 1},
        )
        assert [e.path for e in entries] == ["n"]


class TestPromExposition:
    def test_registry_round_numbers(self):
        registry = MetricsRegistry()
        registry.counter("broker.grants", resource="cpu:H1").inc(5)
        registry.gauge("broker.utilization", resource="cpu:H1").set(0.25)
        histogram = registry.histogram("establish.latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        text = registry_exposition(registry)
        lines = text.splitlines()
        assert "# TYPE repro_broker_grants_total counter" in lines
        assert 'repro_broker_grants_total{resource="cpu:H1"} 5.0' in lines
        assert 'repro_broker_utilization{resource="cpu:H1"} 0.25' in lines
        # histogram buckets are cumulative and end with +Inf == _count
        assert 'repro_establish_latency_bucket{le="0.1"} 1.0' in lines
        assert 'repro_establish_latency_bucket{le="1"} 2.0' in lines
        assert 'repro_establish_latency_bucket{le="+Inf"} 3.0' in lines
        assert "repro_establish_latency_sum 2.55" in text
        assert "repro_establish_latency_count 3.0" in lines
        # exactly one TYPE header per metric family
        assert sum(1 for l in lines if l.startswith("# TYPE repro_establish_latency ")) == 1

    def test_snapshot_from_trace_document(self):
        doc = load_trace(SPANS_ONLY)
        text = snapshot_exposition(doc.metrics)
        assert 'repro_broker_grants_total{resource="cpu:H1"} 2.0' in text
        assert 'repro_coordinator_establish_seconds_bucket{le="+Inf"} 1.0' in text

    def test_label_escaping_and_name_sanitizing(self):
        text = snapshot_exposition(
            {"counters": {'weird-name{path=a"b}': {"value": 1.0}}}, prefix=""
        )
        assert text == '# TYPE weird_name_total counter\nweird_name_total{path="a\\"b"} 1.0\n'

    def test_empty_snapshot(self):
        assert snapshot_exposition({}) == ""

    def test_non_finite_values_use_prometheus_spellings(self):
        # Python's repr() spells them "inf"/"-inf"/"nan"; the exposition
        # format requires "+Inf"/"-Inf"/"NaN" or scrapers reject the
        # whole page.
        registry = MetricsRegistry()
        registry.gauge("edge.pos", kind="p").set(float("inf"))
        registry.gauge("edge.neg", kind="n").set(float("-inf"))
        registry.gauge("edge.nan", kind="x").set(float("nan"))
        text = registry_exposition(registry)
        assert 'repro_edge_pos{kind="p"} +Inf' in text.splitlines()
        assert 'repro_edge_neg{kind="n"} -Inf' in text.splitlines()
        assert 'repro_edge_nan{kind="x"} NaN' in text.splitlines()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert line.rsplit(" ", 1)[1] not in {"inf", "-inf", "nan"}


class TestExportRoundTrip:
    """write_trace_json -> load_trace preserves totals, metrics, events."""

    def test_simulation_round_trip(self, tmp_path):
        from repro.sim import SimulationConfig, run_simulation
        from repro.sim.workload import WorkloadSpec

        trace_path = tmp_path / "trace.json"
        config = SimulationConfig(
            algorithm="tradeoff",
            seed=5,
            workload=WorkloadSpec(rate_per_60tu=120.0, horizon=120.0),
            observability=ObservabilityConfig(trace_path=str(trace_path)),
        )
        result = run_simulation(config)
        doc = load_trace(trace_path)
        observation = result.observation
        assert doc.schema_version == TRACE_SCHEMA_VERSION
        # span totals identical to the live tracer's
        for name in observation.tracer.names():
            assert doc.span_totals[name]["count"] == observation.tracer.count(name)
            assert doc.span_totals[name]["total_seconds"] == pytest.approx(
                observation.tracer.total_time(name)
            )
        # metrics snapshot identical
        assert doc.metrics == json.loads(json.dumps(observation.registry.snapshot()))
        # events identical after the JSON round trip
        assert [e.to_dict() for e in doc.events] == json.loads(
            json.dumps(observation.event_log.to_dicts())
        )
        # a self-diff has no changed leaves
        payload = json.loads(trace_path.read_text())
        assert all(e.delta == 0.0 for e in diff_documents(payload, payload))
