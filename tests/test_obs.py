"""The observability layer: tracer, metrics, exporters, sim integration."""

import csv
import json

import pytest

from repro.obs import (
    DEFAULT_PSI_BUCKETS,
    Histogram,
    MetricsRegistry,
    ObservabilityConfig,
    ObservationSession,
    Tracer,
    active_registry,
    active_tracer,
    metering,
    observability_to_dict,
    summary_report,
    tracing,
)
from repro.obs import trace as trace_mod
from repro.obs.export import TRACE_SCHEMA_VERSION
from repro.obs.metrics import format_labels


class TestTracer:
    def test_disabled_by_default(self):
        assert active_tracer() is None
        # The module-level span helper must be a usable no-op.
        with trace_mod.span("anything", key="value") as span:
            span.set(more="attrs")
        assert active_tracer() is None

    def test_spans_nest_with_parent_links(self):
        tracer = Tracer()
        with tracing(tracer):
            with trace_mod.span("outer", a=1):
                with trace_mod.span("inner"):
                    pass
                with trace_mod.span("inner"):
                    pass
        assert active_tracer() is None  # restored
        assert [r.name for r in tracer.records] == ["inner", "inner", "outer"]
        outer = tracer.records[-1]
        assert outer.depth == 0 and outer.parent_index is None
        for inner in tracer.records[:2]:
            assert inner.depth == 1
            assert inner.parent_index == outer.index
            # children complete within the parent's interval
            assert inner.start >= outer.start
            assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9
        assert tracer.count("inner") == 2
        assert tracer.total_time("inner") <= outer.duration + 1e-9
        assert tracer.names() == ["inner", "outer"]

    def test_span_attributes_and_set(self):
        tracer = Tracer()
        with tracing(tracer):
            with trace_mod.span("work", phase=1) as span:
                span.set(result="ok", phase=2)
        (record,) = tracer.records
        assert record.attributes == {"phase": 2, "result": "ok"}
        assert record.to_dict()["attributes"] == {"phase": 2, "result": "ok"}

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(ValueError):
                with trace_mod.span("doomed"):
                    raise ValueError("boom")
        (record,) = tracer.records
        assert record.attributes["error"] == "ValueError: boom"

    def test_nested_tracing_restores_previous(self):
        outer_tracer, inner_tracer = Tracer(), Tracer()
        with tracing(outer_tracer):
            with tracing(inner_tracer):
                assert active_tracer() is inner_tracer
            assert active_tracer() is outer_tracer


class TestMetrics:
    def test_disabled_by_default(self):
        assert active_registry() is None

    def test_counter_identity_and_totals(self):
        registry = MetricsRegistry()
        registry.counter("broker.grants", resource="cpu:H1").inc()
        registry.counter("broker.grants", resource="cpu:H1").inc(2)
        registry.counter("broker.grants", resource="cpu:H2").inc()
        assert registry.counter_value("broker.grants", resource="cpu:H1") == 3
        assert registry.counter_value("broker.grants", resource="never") == 0
        assert registry.counter_total("broker.grants") == 4
        with pytest.raises(ValueError):
            registry.counter("broker.grants", resource="cpu:H1").inc(-1)

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_series_identity_is_the_formatted_label_value(self):
        # A repeat lookup skips sorting and str(); it must not change
        # which series a call reaches.  1 == 1.0 == True as dict keys,
        # but they format as three different label values.
        registry = MetricsRegistry()
        for _ in range(2):  # the second pass takes the remembered keys
            assert registry.counter("c", shard=1) is registry.counter("c", shard="1")
            one, one_point, true = (
                registry.counter("c", shard=value) for value in (1, 1.0, True)
            )
            assert len({id(one), id(one_point), id(true)}) == 3
            assert registry.counter("c", shard="1.0") is one_point
            assert registry.counter("c", shard="True") is true

            class Shouty(str):
                def __str__(self):
                    return self.upper()

            # Equal to and hashed like "a", formatted as "A".
            assert registry.gauge("g", host=Shouty("a")) is registry.gauge("g", host="A")
            assert registry.gauge("g", host="a") is not registry.gauge("g", host="A")
            # Unhashable values are formatted like any other.
            assert registry.histogram("h", hops=[1, 2]) is registry.histogram(
                "h", hops="[1, 2]"
            )
            assert registry.counter("c", x="1", y="2") is registry.counter(
                "c", y="2", x="1"
            )
        assert len(registry.iter_counters()) == 4
        assert len(registry.iter_gauges()) == 2
        assert len(registry.iter_histograms()) == 1

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("broker.utilization", resource="cpu:H1")
        gauge.set(0.5)
        gauge.add(0.25)
        assert gauge.value == pytest.approx(0.75)

    def test_histogram_bucketing(self):
        histogram = Histogram((0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        # boundaries are inclusive upper bounds; beyond-last goes to overflow
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.min == 0.05 and histogram.max == 2.0
        assert histogram.mean == pytest.approx((0.05 + 0.1 + 0.5 + 2.0) / 4)
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 0.1))

    def test_histogram_buckets_fixed_at_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("session.psi", buckets=DEFAULT_PSI_BUCKETS)
        again = registry.histogram("session.psi")
        assert again is first
        assert again.boundaries == DEFAULT_PSI_BUCKETS

    def test_rows_expand_histograms(self):
        registry = MetricsRegistry()
        registry.counter("broker.grants", resource="cpu:H1").inc()
        registry.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
        rows = registry.rows()
        kinds = {row[0] for row in rows}
        assert kinds == {"counter", "histogram"}
        histogram_fields = [row[3] for row in rows if row[0] == "histogram"]
        assert histogram_fields == ["count", "sum", "le=0.1", "le=1", "le=inf"]

    def test_format_labels(self):
        assert format_labels(()) == ""
        assert format_labels((("a", "1"), ("b", "2"))) == "{a=1,b=2}"

    def test_metering_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metering(outer):
            with metering(inner):
                assert active_registry() is inner
            assert active_registry() is outer
        assert active_registry() is None

    def test_counter_rate(self):
        counter = MetricsRegistry().counter("session.arrivals")
        counter.inc(30)
        assert counter.rate(60.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            counter.rate(0.0)
        with pytest.raises(ValueError):
            counter.rate(-1.0)

    def test_histogram_percentile_interpolates(self):
        histogram = Histogram((10.0, 20.0, 30.0))
        for value in (2.0, 12.0, 14.0, 22.0, 28.0):
            histogram.observe(value)
        # q=0.5 -> target 2.5 obs; bucket (10, 20] holds obs 2..3, so the
        # estimate interpolates inside it: 10 + (2.5-1)/2 * 10 = 17.5
        assert histogram.percentile(0.5) == pytest.approx(17.5)
        # extremes clamp to the tracked exact min/max
        assert histogram.percentile(0.0) == 2.0
        assert histogram.percentile(1.0) == 28.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_histogram_percentile_edge_cases(self):
        empty = Histogram((1.0,))
        assert empty.percentile(0.5) == 0.0
        overflow = Histogram((1.0,))
        overflow.observe(5.0)
        overflow.observe(7.0)
        # everything beyond the last bound reports the recorded maximum
        assert overflow.percentile(0.99) == 7.0
        payload = overflow.to_dict()
        assert payload["p50"] == 7.0 and payload["p95"] == 7.0 and payload["p99"] == 7.0

    def test_snapshot_and_rows_deterministically_ordered(self):
        """Insertion order must never leak into exports: two registries
        fed the same instruments in different orders export identically."""

        def fill(registry, order):
            for name, labels in order:
                registry.counter(name, **labels).inc()
                registry.gauge("g." + name, **labels).set(1.0)
                registry.histogram("h." + name, buckets=(1.0,), **labels).observe(0.5)

        instruments = [
            ("broker.grants", {"resource": "cpu:H2"}),
            ("broker.grants", {"resource": "cpu:H1"}),
            ("alpha.first", {}),
            ("broker.grants", {"host": "H1", "resource": "cpu:H1"}),
        ]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        fill(forward, instruments)
        fill(backward, list(reversed(instruments)))
        assert forward.snapshot() == backward.snapshot()
        assert forward.rows() == backward.rows()
        counter_keys = list(forward.snapshot()["counters"])
        assert counter_keys == sorted(counter_keys)


class TestExport:
    def build(self):
        tracer = Tracer()
        with tracer.span("establish"):
            with tracer.span("dijkstra"):
                pass
        registry = MetricsRegistry()
        registry.counter("broker.grants", resource="cpu:H1").inc(5)
        registry.counter("broker.rejections", resource="cpu:H1").inc()
        registry.counter("session.admitted", service="S1").inc(4)
        return tracer, registry

    def test_document_shape(self):
        tracer, registry = self.build()
        document = observability_to_dict(tracer, registry, meta={"seed": 0})
        assert document["schema_version"] == TRACE_SCHEMA_VERSION
        assert document["meta"] == {"seed": 0}
        assert [s["name"] for s in document["spans"]] == ["dijkstra", "establish"]
        assert document["span_totals"]["dijkstra"]["count"] == 1
        counters = document["metrics"]["counters"]
        assert counters["broker.grants{resource=cpu:H1}"]["value"] == 5
        # must round-trip through json
        json.dumps(document)

    def test_write_trace_json_and_metrics_csv(self, tmp_path):
        tracer, registry = self.build()
        session = ObservationSession()
        session.tracer, session.registry = tracer, registry
        trace_file = session.write_trace_json(tmp_path / "out" / "trace.json")
        document = json.loads(trace_file.read_text())
        assert document["schema_version"] == TRACE_SCHEMA_VERSION
        csv_file = session.write_metrics_csv(tmp_path / "metrics.csv")
        with csv_file.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["kind", "name", "labels", "field", "value"]
        assert ["counter", "broker.grants", "{resource=cpu:H1}", "value", "5.0"] in rows

    def test_summary_report_sections(self):
        tracer, registry = self.build()
        report = summary_report(tracer, registry)
        assert "per-phase timings:" in report
        assert "dijkstra" in report
        assert "per-broker reservations:" in report
        assert "cpu:H1" in report
        assert "session outcomes:" in report
        assert "session.admitted" in report

    def test_summary_report_distributions_with_percentiles(self):
        tracer, registry = self.build()
        histogram = registry.histogram("coordinator.establish_seconds")
        for value in (0.0002, 0.0004, 0.002, 0.04):
            histogram.observe(value)
        report = summary_report(tracer, registry)
        assert "distributions:" in report
        assert "p50" in report and "p95" in report and "p99" in report
        assert "coordinator.establish_seconds" in report
        # empty histograms don't force the section in
        assert "distributions:" not in summary_report(*self.build())

    def test_csv_rows_parse_back_to_identical_values(self, tmp_path):
        tracer, registry = self.build()
        registry.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
        session = ObservationSession()
        session.tracer, session.registry = tracer, registry
        csv_file = session.write_metrics_csv(tmp_path / "metrics.csv")
        with csv_file.open() as handle:
            parsed = [
                (kind, name, labels, field, float(value))
                for kind, name, labels, field, value in list(csv.reader(handle))[1:]
            ]
        assert parsed == [
            (kind, name, labels, field, float(value))
            for kind, name, labels, field, value in registry.rows()
        ]


class TestObservationSession:
    def test_installs_and_restores(self):
        assert active_tracer() is None and active_registry() is None
        session = ObservationSession()
        with session:
            assert active_tracer() is session.tracer
            assert active_registry() is session.registry
        assert active_tracer() is None and active_registry() is None

    def test_export_writes_configured_paths(self, tmp_path):
        config = ObservabilityConfig(
            trace_path=str(tmp_path / "trace.json"),
            metrics_path=str(tmp_path / "metrics.csv"),
            summary_path=str(tmp_path / "summary.txt"),
        )
        session = ObservationSession(config)
        with session:
            with session.tracer.span("qrg_build"):
                pass
            session.registry.counter("broker.grants", resource="r").inc()
        session.export(meta={"algorithm": "basic"})
        assert json.loads((tmp_path / "trace.json").read_text())["meta"] == {
            "algorithm": "basic"
        }
        assert (tmp_path / "metrics.csv").read_text().startswith("kind,")
        assert "qrg_build" in (tmp_path / "summary.txt").read_text()


class TestInstrumentedPipeline:
    """The instrumented call sites emit the expected spans/counters."""

    def test_compute_plan_emits_phase_spans(self, small_service, small_binding, ample_snapshot):
        """Phase 2's one span is the coordinator's ``phase2_plan``: pricing
        a QRG and planning on it open no span of their own."""
        from repro.core import BasicPlanner, RandomPlanner, TradeoffPlanner
        from repro.core.qrg import build_qrg
        from repro.des.engine import Environment
        from repro.des.rng import RandomStreams
        from repro.sim.environment import GridEnvironment

        tracer = Tracer()
        with tracing(tracer):
            qrg = build_qrg(small_service, small_binding, ample_snapshot)
            plans = [
                planner.plan(qrg)
                for planner in (BasicPlanner(), RandomPlanner(), TradeoffPlanner())
            ]
        assert None not in plans
        assert tracer.records == []

        grid = GridEnvironment(Environment(), RandomStreams(7))
        with tracing(tracer):
            result = grid.coordinator.establish(
                "s1", "S2", grid.binding_for("S2", "D1"), BasicPlanner(),
                component_hosts=grid.component_hosts_for("S2", "D1"),
            )
        assert result.success
        assert [(r.name, r.depth) for r in tracer.records] == [
            ("phase1_availability", 1),
            ("phase2_plan", 1),
            ("phase3_dispatch", 1),
            ("establish", 0),
        ]

    def test_broker_counters(self):
        from repro.brokers import LocalResourceBroker
        from repro.core.errors import AdmissionError

        registry = MetricsRegistry()
        with metering(registry):
            broker = LocalResourceBroker("H1", "cpu", 100.0)
            reservation = broker.reserve(40.0, "s1")
            with pytest.raises(AdmissionError):
                broker.reserve(100.0, "s2")
            broker.release(reservation)
        labels = {"resource": "cpu:H1", "host": "H1", "kind": "cpu"}
        assert registry.counter_value("broker.grants", **labels) == 1
        assert registry.counter_value("broker.rejections", **labels) == 1
        assert registry.counter_value("broker.releases", **labels) == 1
        assert registry.gauge("broker.utilization", **labels).value == 0.0


class TestSimulationIntegration:
    """Acceptance: a traced sim run emits the per-phase timings and the
    per-broker grant/reject counters in the exported JSON document."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        from repro.sim import SimulationConfig, run_simulation
        from repro.sim.workload import WorkloadSpec

        out = tmp_path_factory.mktemp("obs")
        config = SimulationConfig(
            algorithm="tradeoff",
            seed=7,
            workload=WorkloadSpec(rate_per_60tu=120.0, horizon=300.0),
            observability=ObservabilityConfig(
                trace_path=str(out / "trace.json"),
                metrics_path=str(out / "metrics.csv"),
                summary_path=str(out / "summary.txt"),
            ),
        )
        result = run_simulation(config)
        return result, out

    def test_observation_attached_and_uninstalled(self, traced_run):
        result, _out = traced_run
        assert result.observation is not None
        assert active_tracer() is None and active_registry() is None

    def test_trace_json_has_phase_timings(self, traced_run):
        result, out = traced_run
        document = json.loads((out / "trace.json").read_text())
        assert document["schema_version"] == TRACE_SCHEMA_VERSION
        assert document["meta"]["algorithm"] == "tradeoff"
        totals = document["span_totals"]
        assert sorted(totals) == [
            "establish", "phase1_availability", "phase2_plan", "phase3_dispatch", "teardown",
        ]
        for phase in totals:
            assert totals[phase]["count"] > 0
            assert totals[phase]["total_seconds"] > 0.0
        # every establish drove exactly one pricing + plan
        assert totals["establish"]["count"] == totals["phase2_plan"]["count"]
        assert totals["establish"]["count"] == result.metrics.attempts

    def test_trace_json_has_broker_counters(self, traced_run):
        result, out = traced_run
        document = json.loads((out / "trace.json").read_text())
        counters = document["metrics"]["counters"]
        grants = [k for k in counters if k.startswith("broker.grants{")]
        assert grants, "no broker grant counters in the trace document"
        registry = result.observation.registry
        assert registry.counter_total("broker.grants") == sum(
            counters[k]["value"] for k in grants
        )
        # grants and releases balance: the run ends quiescent
        assert registry.counter_total("broker.grants") == registry.counter_total(
            "broker.releases"
        )
        # session outcome counters agree with the run's own metrics
        assert registry.counter_total("session.admitted") == result.metrics.successes
        assert (
            registry.counter_total("session.admitted")
            + registry.counter_total("session.rejected")
            == result.metrics.attempts
        )

    def test_csv_and_summary_written(self, traced_run):
        _result, out = traced_run
        with (out / "metrics.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["kind", "name", "labels", "field", "value"]
        names = {row[1] for row in rows[1:]}
        assert "broker.grants" in names
        assert "coordinator.establish_seconds" in names
        summary = (out / "summary.txt").read_text()
        assert "per-phase timings:" in summary
        assert "per-broker reservations:" in summary
