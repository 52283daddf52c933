"""The causal reservation event log: EventLog, emission sites, schema v2."""

import json

import pytest

from repro.obs import (
    EVENT_KINDS,
    EventLog,
    ObservabilityConfig,
    ObservationSession,
    ReservationEvent,
    active_event_log,
    event_logging,
)
from repro.obs import events as events_mod
from repro.obs.export import TRACE_SCHEMA_VERSION


class TestEventLog:
    def test_disabled_by_default(self):
        assert active_event_log() is None
        # the module-level emit helper must be a usable no-op
        events_mod.emit("broker.grant", resource="cpu:H1", requested=5.0)
        assert active_event_log() is None

    def test_emit_records_in_causal_order(self):
        log = EventLog()
        log.emit("session.planned", session="s1", psi=0.5)
        log.emit("broker.grant", session="s1", resource="cpu:H1", time=3.0)
        assert len(log) == 2
        first, second = list(log)
        assert (first.kind, first.seq) == ("session.planned", 0)
        assert (second.kind, second.seq) == ("broker.grant", 1)
        assert second.time == 3.0 and first.time is None
        assert first.attributes == {"psi": 0.5}
        assert second.wall >= first.wall

    def test_unknown_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("session.exploded")
        # a bounded log writes no marker of its own into the record
        assert not any(kind.startswith("log.") for kind in EVENT_KINDS)
        # module-level emit validates too (when a log is installed)
        with event_logging(log):
            with pytest.raises(ValueError):
                events_mod.emit("not.a.kind")

    def test_capacity_keeps_newest_and_counts_evicted(self):
        log = EventLog(capacity=2)
        assert (log.capacity, log.dropped) == (2, 0)
        for n in range(5):
            log.emit("broker.probe", resource=f"r{n}")
        # a ring: the two newest are held, the three oldest counted, and
        # nothing else is written into the record
        assert [(e.seq, e.resource) for e in log] == [(3, "r3"), (4, "r4")]
        assert log.dropped == 3
        assert log.next_seq == len(log) + log.dropped == 5
        assert log.kind_counts() == {"broker.probe": 2}
        with pytest.raises(ValueError):
            EventLog(capacity=0)
        unbounded = EventLog()
        for _ in range(5):
            unbounded.emit("broker.probe", resource="r")
        assert (unbounded.capacity, len(unbounded), unbounded.dropped) == (None, 5, 0)

    def test_subscribers_see_past_capacity(self):
        log = EventLog(capacity=2)
        seen = []
        callback = log.subscribe(lambda e: seen.append((e.kind, e.resource)))
        log.subscribe(callback)  # idempotent
        assert log.subscriber_count == 1
        for n in range(4):
            log.emit("broker.probe", resource=f"r{n}")
        # the ring evicts, but the stream delivers every event, and only
        # the events, to subscribers
        assert seen == [("broker.probe", f"r{n}") for n in range(4)]
        log.unsubscribe(callback)
        log.unsubscribe(callback)  # unknown callback is a no-op
        assert log.subscriber_count == 0
        with pytest.raises(TypeError):
            log.subscribe("not callable")

    def test_install_over_existing_log_raises(self):
        first, second = EventLog(), EventLog()
        with event_logging(first):
            with pytest.raises(RuntimeError, match="already installed"):
                events_mod.install(second)
            events_mod.install(first)  # idempotent, no raise
            # event_logging() stacks another log and restores this one
            with event_logging(second):
                assert active_event_log() is second
            assert active_event_log() is first
        assert active_event_log() is None

    def test_query_helpers(self):
        log = EventLog()
        log.emit("broker.grant", session="s1", resource="cpu:H1")
        log.emit("broker.grant", session="s2", resource="cpu:H2")
        log.emit("broker.release", session="s1", resource="cpu:H1")
        assert log.count("broker.grant") == 2
        assert log.kinds() == ["broker.grant", "broker.release"]
        assert log.kind_counts() == {"broker.grant": 2, "broker.release": 1}
        assert [e.kind for e in log.for_session("s1")] == [
            "broker.grant",
            "broker.release",
        ]
        assert len(log.for_resource("cpu:H2")) == 1

    def test_event_dict_round_trip(self):
        log = EventLog()
        log.emit(
            "session.rejected",
            session="s9",
            resource="net:H1-H2",
            time=12.5,
            reason="admission_failed",
            requested={"net:H1-H2": 4.0},
        )
        (event,) = log
        rebuilt = ReservationEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event

    def test_install_and_restore(self):
        log = EventLog()
        with event_logging(log):
            assert active_event_log() is log
            events_mod.emit("broker.probe", resource="cpu:H1")
        assert active_event_log() is None
        assert len(log) == 1


class TestEmissionSites:
    """Each instrumented layer emits its lifecycle events."""

    def test_broker_grant_reject_release(self):
        from repro.brokers import LocalResourceBroker
        from repro.core.errors import AdmissionError

        log = EventLog()
        with event_logging(log):
            broker = LocalResourceBroker("H1", "cpu", 100.0)
            broker.observe()
            reservation = broker.reserve(40.0, "s1")
            with pytest.raises(AdmissionError):
                broker.reserve(100.0, "s2")
            broker.release(reservation)
        kinds = [e.kind for e in log]
        assert kinds == [
            "broker.probe",
            "broker.grant",
            "broker.reject",
            "broker.release",
        ]
        probe, grant, reject, release = list(log)
        assert probe.attributes["available"] == 100.0
        assert grant.session == "s1" and grant.resource == "cpu:H1"
        assert grant.attributes["requested"] == 40.0
        assert grant.attributes["available"] == 100.0  # pre-grant availability
        assert grant.attributes["utilization"] == pytest.approx(0.4)
        assert reject.session == "s2"
        assert reject.attributes["requested"] == 100.0
        assert reject.attributes["available"] == pytest.approx(60.0)
        assert release.session == "s1"
        assert release.attributes["utilization"] == 0.0

    def test_path_broker_reject_names_bottleneck(self):
        from repro.brokers import LinkBandwidthBroker, PathBroker
        from repro.core.errors import AdmissionError

        links = [
            LinkBandwidthBroker("L1", "H1", "R1", 100.0),
            LinkBandwidthBroker("L2", "R1", "H2", 30.0),
        ]
        log = EventLog()
        with event_logging(log):
            path = PathBroker("net:H1-H2", links)
            with pytest.raises(AdmissionError):
                path.reserve(50.0, "s1")
        rejects = [e for e in log if e.kind == "broker.reject" and e.resource == "net:H1-H2"]
        assert len(rejects) == 1
        assert rejects[0].attributes["bottleneck_link"] == "L2"

    def test_tradeoff_backoff_event(self, small_service, small_binding):
        # a falling-availability bottleneck (alpha < 1) forces the §4.3.1
        # backoff, which must leave a causal record
        from repro.core import AvailabilitySnapshot, ResourceObservation, TradeoffPlanner, build_qrg

        snapshot = AvailabilitySnapshot(
            {
                "cpu:H1": ResourceObservation(available=100.0, alpha=1.0),
                "net:L1": ResourceObservation(available=100.0, alpha=0.5),
            }
        )
        log = EventLog()
        with event_logging(log):
            qrg = build_qrg(small_service, small_binding, snapshot)
            plan = TradeoffPlanner().plan(qrg)
        assert plan is not None
        (backoff,) = [e for e in log if e.kind == "planner.tradeoff_backoff"]
        assert backoff.attributes["from_level"] == "Qf"
        assert backoff.attributes["to_level"] == plan.end_to_end_label == "Qg"
        assert backoff.attributes["alpha"] == pytest.approx(0.5)
        assert backoff.attributes["psi_chosen"] <= backoff.attributes["psi_best"]

    def test_session_events_from_simulation(self, sim_trace_document):
        document = sim_trace_document
        counts = document["event_counts"]
        assert counts["session.planned"] >= counts["session.admitted"]
        assert counts["session.admitted"] > 0
        # every admitted-below-top-level session has its degradation record
        degraded = [
            e
            for e in document["events"]
            if e["kind"] == "session.degraded"
        ]
        for event in degraded:
            assert event["attributes"]["rank"] > 0
        planned = next(
            e for e in document["events"] if e["kind"] == "session.planned"
        )
        attrs = planned["attributes"]
        assert set(attrs["requested"]) == set(attrs["available"])
        assert 0.0 < attrs["psi"] <= 1.0
        assert attrs["bottleneck"] in attrs["requested"]
        # grants and releases balance: the run ends quiescent
        assert counts["broker.grant"] == counts["broker.release"]

    def test_schema_document_shape(self, sim_trace_document):
        document = sim_trace_document
        assert document["schema_version"] == TRACE_SCHEMA_VERSION == 4
        assert set(document["event_counts"]) <= EVENT_KINDS
        for event in document["events"][:50]:
            assert event["kind"] in EVENT_KINDS
            assert isinstance(event["seq"], int)


@pytest.fixture(scope="module")
def sim_trace_document(tmp_path_factory):
    """One small traced tradeoff run's exported v2 document."""
    from repro.sim import SimulationConfig, run_simulation
    from repro.sim.workload import WorkloadSpec

    out = tmp_path_factory.mktemp("events")
    config = SimulationConfig(
        algorithm="tradeoff",
        seed=7,
        workload=WorkloadSpec(rate_per_60tu=150.0, horizon=150.0),
        observability=ObservabilityConfig(trace_path=str(out / "trace.json")),
    )
    run_simulation(config)
    return json.loads((out / "trace.json").read_text())


class TestSessionIntegration:
    def test_session_installs_event_log(self):
        with ObservationSession() as session:
            assert active_event_log() is session.event_log
            events_mod.emit("broker.probe", resource="cpu:H1")
        assert active_event_log() is None
        assert session.event_log.count("broker.probe") == 1

    def test_summary_carries_event_counts(self):
        with ObservationSession() as session:
            events_mod.emit("broker.grant", session="s1", resource="cpu:H1")
            events_mod.emit("broker.grant", session="s2", resource="cpu:H1")
        summary = session.summarize()
        assert summary.event_counts == {"broker.grant": 2}
        assert summary.event_count("broker.grant") == 2
        assert summary.event_count("broker.reject") == 0

    def test_summary_report_lists_events(self):
        with ObservationSession() as session:
            events_mod.emit("session.admitted", session="s1")
        report = session.summary()
        assert "reservation events:" in report
        assert "session.admitted" in report
