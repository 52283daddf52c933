"""The online monitoring plane (repro.obs.monitor).

Four contracts under test:

* **Pure-stream determinism** -- every estimator and detector is a
  function of the event stream alone (no broker access, no wall clock
  in the logic), so replaying a recorded stream reproduces the live
  monitor and serial/parallel sweeps yield byte-identical digests;
* **No self-feeding** -- the monitor ignores its own event kinds on
  input, so subscribing it to the log it emits into cannot recurse;
* **Observer neutrality** -- with ``adapt=False`` a monitored run's
  simulation metrics are byte-identical to an unmonitored run's;
* **Closed loop** -- with ``adapt=True`` drift causally leads to
  ``session.renegotiated`` records sharing the session id, and the run
  still ends with quiescent brokers (even racing fault re-planning).
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs import ObservabilityConfig, active_event_log
from repro.obs.analyze import adaptation_summary, load_trace
from repro.obs.events import EventLog
from repro.obs.export import TRACE_SCHEMA_VERSION
from repro.obs.monitor import (
    EWMA_ALPHA,
    MONITOR_EVENT_KINDS,
    OBSERVE_EVERY,
    RATE_WINDOW,
    AdaptationPolicy,
    BrokerEstimate,
    MonitorConfig,
    OnlineMonitor,
    replay_events,
)
from repro.sim.experiment import SimulationConfig, run_configs, run_simulation
from repro.sim.workload import WorkloadSpec


def monitored_config(adapt=True, **kw):
    defaults = dict(
        algorithm="tradeoff",
        seed=7,
        staleness=2.0,
        workload=WorkloadSpec(rate_per_60tu=140.0, horizon=120.0),
        monitoring=MonitorConfig(adapt=adapt),
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def planned(log, session, available, *, psi=0.4, bottleneck="cpu:H1", time=1.0):
    log.emit(
        "session.planned",
        session=session,
        time=time,
        service="S1",
        level="Qf",
        rank=0,
        psi=psi,
        bottleneck=bottleneck,
        requested={k: v / 2.0 for k, v in available.items()},
        available=dict(available),
    )


def admitted(log, session, *, level=3, time=1.0):
    log.emit(
        "session.admitted",
        session=session,
        time=time,
        service="S1",
        numeric_level=level,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"drift_threshold": 0.0},
            {"drift_threshold": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            MonitorConfig(**kw)


class TestBrokerEstimate:
    def test_empty_history_is_inert(self):
        """No samples: alpha stays at the §4.3.1 neutral 1.0, the EWMA
        stays None (nothing to drift against), rates stay 0."""
        estimate = BrokerEstimate("cpu:H1")
        assert estimate.ewma_available is None
        assert estimate.alpha == 1.0
        assert estimate.rejection_rate(10.0) == 0.0
        digest = estimate.digest(10.0)
        assert digest["ewma_available"] is None and digest["updates"] == 0

    def test_first_sample_seeds_later_samples_smooth(self):
        estimate = BrokerEstimate("cpu:H1")
        estimate.record_available(1.0, 100.0)
        assert estimate.ewma_available == 100.0
        estimate.record_available(2.0, 50.0)
        assert estimate.ewma_available == pytest.approx(100.0 - EWMA_ALPHA * 50.0)
        assert estimate.updates == 2

    def test_timeless_samples_skip_alpha(self):
        # events without a sim time still feed the EWMA but cannot be
        # placed in the §4.3.1 averaging window
        estimate = BrokerEstimate("cpu:H1")
        estimate.record_available(None, 80.0)
        assert estimate.ewma_available == 80.0
        assert estimate.alpha == 1.0

    def test_rejection_rate_window_prunes(self):
        estimate = BrokerEstimate("cpu:H1")
        estimate.record_attempt(0.0, True)
        estimate.record_attempt(5.0, False)
        assert estimate.rejection_rate(5.0) == pytest.approx(0.5)
        # the early rejection ages out of the window
        assert estimate.rejection_rate(RATE_WINDOW + 1.0) == 0.0


class TestDriftDetection:
    def setup_monitor(self, **kw):
        config = MonitorConfig(adapt=False, **kw)
        log = EventLog()
        monitor = OnlineMonitor(config, log=log)
        log.subscribe(monitor.on_event)
        return monitor, log

    def test_drift_fires_once_per_baseline(self):
        monitor, log = self.setup_monitor()
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        log.emit(
            "broker.release", resource="cpu:H1", time=2.0,
            amount=10.0, available=50.0,
        )
        drifts = [e for e in log if e.kind == "session.drift"]
        assert len(drifts) == 1
        attrs = drifts[0].attributes
        assert drifts[0].session == "s1" and drifts[0].resource == "cpu:H1"
        assert attrs["planned"] == 100.0
        assert attrs["observed"] == 50.0
        assert attrs["direction"] == "down"
        assert attrs["relative"] == pytest.approx(0.5)
        # further divergence on the same baseline stays silent
        log.emit("broker.release", resource="cpu:H1", time=3.0, available=30.0)
        assert log.count("session.drift") == 1
        assert monitor.drift_detected == 1

    def test_readmission_refreshes_the_baseline(self):
        monitor, log = self.setup_monitor()
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        log.emit("broker.release", resource="cpu:H1", time=2.0, available=50.0)
        assert log.count("session.drift") == 1
        # a renegotiation re-admits the session against fresh numbers;
        # the drift flag re-arms against the new baseline
        planned(log, "s1", {"cpu:H1": 50.0}, time=3.0)
        admitted(log, "s1", level=2, time=3.0)
        log.emit("broker.release", resource="cpu:H1", time=4.0, available=50.0)
        assert log.count("session.drift") == 1  # spot on the new plan
        for n in range(4):  # pull the EWMA well below the new baseline
            log.emit(
                "broker.release", resource="cpu:H1", time=5.0 + n, available=1.0
            )
        assert log.count("session.drift") == 2
        assert monitor.drift_detected == 2

    def test_within_threshold_is_silent_and_upward_drift_labeled(self):
        monitor, log = self.setup_monitor(drift_threshold=0.5)
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        log.emit("broker.release", resource="cpu:H1", time=2.0, available=80.0)
        assert log.count("session.drift") == 0
        log.emit("broker.release", resource="cpu:H1", time=3.0, available=400.0)
        (drift,) = [e for e in log if e.kind == "session.drift"]
        assert drift.attributes["direction"] == "up"

    def test_stale_probes_are_ignored(self):
        monitor, log = self.setup_monitor()
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        log.emit(
            "broker.probe", resource="cpu:H1", time=2.0,
            available=1.0, stale=True,
        )
        assert log.count("session.drift") == 0
        # the bottleneck's psi estimate exists (from session.planned),
        # but the stale availability sample was never folded in
        assert monitor.estimates["cpu:H1"].ewma_available is None

    def test_closed_sessions_stop_drifting(self):
        monitor, log = self.setup_monitor()
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        monitor.session_closed("s1")
        log.emit("broker.release", resource="cpu:H1", time=2.0, available=10.0)
        assert log.count("session.drift") == 0

    def test_monitor_never_feeds_on_itself(self):
        monitor, log = self.setup_monitor()
        planned(log, "s1", {"cpu:H1": 100.0})
        admitted(log, "s1")
        seen_before = monitor.events_seen
        log.emit("broker.release", resource="cpu:H1", time=2.0, available=10.0)
        # the release *and* the drift it provoked both hit the
        # subscriber, but only the release counts as input
        assert log.count("session.drift") == 1
        assert monitor.events_seen == seen_before + 1
        # grant availability is pre-grant: the estimate folds in the post
        log.emit(
            "broker.grant", resource="cpu:H1", session="s2", time=3.0,
            requested=30.0, available=100.0,
        )
        estimate = monitor.estimates["cpu:H1"]
        assert estimate.ewma_available < 100.0

    def test_broker_observed_digests_emitted_periodically(self):
        config = MonitorConfig(adapt=False)
        log = EventLog()
        monitor = OnlineMonitor(config, log=log)
        log.subscribe(monitor.on_event)
        for n in range(2 * OBSERVE_EVERY):
            log.emit(
                "broker.release", resource="cpu:H1", time=float(n),
                available=100.0,
            )
        observed = [e for e in log if e.kind == "broker.observed"]
        assert len(observed) == 2
        assert observed[0].attributes["updates"] == OBSERVE_EVERY
        assert observed[0].attributes["ewma_available"] == pytest.approx(100.0)


class FakeCoordinator:
    """Stands in for ReservationCoordinator.renegotiate in unit tests."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def renegotiate(self, session_id, service_name, binding, planner, **kw):
        self.calls.append((session_id, kw["trigger"], kw["now"]))
        outcome, new_level = self.outcomes.pop(0)
        return SimpleNamespace(
            outcome=outcome,
            success=outcome in ("upgraded", "downgraded", "unchanged"),
            new_level=new_level,
        )


class TestAdaptationPolicy:
    def make_policy(self, outcomes):
        coordinator = FakeCoordinator(outcomes)
        policy = AdaptationPolicy(coordinator)
        policy.watch(
            "s1", service_name="S1", binding=None, planner=None, level=3
        )
        return coordinator, policy

    def test_budget_and_cooldown(self):
        # MAX_RENEGOTIATIONS = 2 per session, COOLDOWN = 5.0 between them
        coordinator, policy = self.make_policy(
            [("downgraded", 2), ("unchanged", 2), ("unchanged", 2)],
        )
        policy.on_drift("s1", "cpu:H1", 10.0)
        assert len(coordinator.calls) == 1
        policy.on_drift("s1", "cpu:H1", 12.0)  # within cooldown: skipped
        assert len(coordinator.calls) == 1
        policy.on_drift("s1", "cpu:H1", 20.0)
        assert len(coordinator.calls) == 2
        policy.on_drift("s1", "cpu:H1", 40.0)  # budget of 2 exhausted
        assert len(coordinator.calls) == 2
        assert policy.stats()["triggered"] == 2
        assert policy.stats()["outcomes"] == {"downgraded": 1, "unchanged": 1}
        assert policy.delivered == {"s1": 2}

    def test_unknown_sessions_and_unwatch_are_ignored(self):
        coordinator, policy = self.make_policy([("unchanged", 3)])
        policy.on_drift("ghost", "cpu:H1", 1.0)
        policy.unwatch("s1")
        policy.on_drift("s1", "cpu:H1", 1.0)
        assert coordinator.calls == []

    def test_failed_dropped_blocks_further_attempts(self):
        coordinator, policy = self.make_policy([("failed_dropped", None)])
        policy.on_drift("s1", "cpu:H1", 1.0)
        policy.on_drift("s1", "cpu:H1", 50.0)
        assert len(coordinator.calls) == 1
        assert policy.stats()["sessions_dropped"] == 1
        assert "s1" in policy.dropped

    def test_finalize_outcome_patches_level_and_drops(self):
        from repro.runtime.session import SessionOutcome

        coordinator, policy = self.make_policy([("downgraded", 1)])
        policy.on_drift("s1", "cpu:H1", 1.0)
        base = dict(
            service="S1", arrived_at=0.0, plan=None, reason="completed",
            duration=5.0, demand_scale=1.0,
        )
        outcome = SessionOutcome(session_id="s1", success=True, qos_level=3, **base)
        patched = policy.finalize_outcome(outcome)
        assert patched.qos_level == 1 and patched.success
        untouched = SessionOutcome(session_id="s9", success=True, qos_level=2, **base)
        assert policy.finalize_outcome(untouched) is untouched
        policy.dropped.add("s1")
        dropped = policy.finalize_outcome(outcome)
        assert not dropped.success
        assert dropped.reason == "renegotiation_failed"

    def test_reentrant_triggers_queue_instead_of_recursing(self):
        calls = []

        class ReentrantCoordinator:
            def __init__(self):
                self.policy = None

            def renegotiate(self, session_id, *a, **kw):
                calls.append(session_id)
                if len(calls) == 1:
                    # the renegotiation's own events raise a new trigger
                    self.policy.on_drift("s2", "cpu:H1", kw["now"])
                return SimpleNamespace(
                    outcome="unchanged", success=True, new_level=3
                )

        coordinator = ReentrantCoordinator()
        policy = AdaptationPolicy(coordinator)
        coordinator.policy = policy
        for sid in ("s1", "s2"):
            policy.watch(sid, service_name="S1", binding=None, planner=None, level=3)
        policy.on_drift("s1", "cpu:H1", 1.0)
        # s2's nested trigger ran after s1's renegotiation returned
        assert calls == ["s1", "s2"]


class TestReplay:
    def test_replay_matches_live_monitor(self):
        config = MonitorConfig(adapt=False)
        live_log = EventLog()
        live = OnlineMonitor(config, log=live_log)
        live_log.subscribe(live.on_event)
        planned(live_log, "s1", {"cpu:H1": 100.0})
        admitted(live_log, "s1")
        live_log.emit("broker.release", resource="cpu:H1", time=2.0, available=40.0)
        replayed, replay_log = replay_events(list(live_log), config)
        assert replayed.report() == live.report()
        # the replay's detections are not double-counted from the
        # recording's own monitor events
        assert replay_log.count("session.drift") == live_log.count("session.drift") == 1


class TestMonitoredSimulation:
    @pytest.fixture(scope="class")
    def adaptive_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("monitor") / "trace.json"
        config = monitored_config(
            observability=ObservabilityConfig(trace_path=str(out))
        )
        return run_simulation(config), out

    def test_adaptation_loop_closes(self, adaptive_run):
        result, _ = adaptive_run
        stats = result.monitor_stats
        assert stats is not None
        assert stats["drift_detected"] > 0
        assert stats["adaptation"]["triggered"] > 0
        assert stats["adaptation"]["sessions_renegotiated"] > 0

    def test_trace_round_trip_and_causality(self, adaptive_run):
        result, path = adaptive_run
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == TRACE_SCHEMA_VERSION
        doc = load_trace(path)
        assert doc.monitoring == result.monitor_stats
        assert payload["event_counts"].get("session.renegotiated", 0) > 0
        summary = adaptation_summary(doc)
        assert summary.total_renegotiations > 0
        # every renegotiation is causally traceable to a prior trigger
        # event sharing its session id
        assert summary.unmatched_renegotiations == 0
        for session, trigger_seq, reneg_seq in summary.causal_pairs:
            assert trigger_seq < reneg_seq

    def test_observer_neutrality_when_not_adapting(self):
        plain = run_simulation(monitored_config(monitoring=None))
        watched = run_simulation(monitored_config(adapt=False))
        assert watched.monitor_stats is not None
        assert watched.monitor_stats["drift_detected"] > 0
        assert plain.metrics == watched.metrics

    def test_monitoring_off_leaves_no_stats(self):
        result = run_simulation(monitored_config(monitoring=None))
        assert result.monitor_stats is None

    def test_renegotiation_races_fault_replanning(self):
        """Drift-driven renegotiation and failure-driven re-planning
        coexist: injected crashes while the adaptation loop runs must
        not leak capacity (run_simulation verifies quiescence)."""
        from repro.faults import FaultConfig

        config = monitored_config(
            seed=11,
            faults=FaultConfig(crash_rate=0.2, drop_rate=0.05, stale_rate=0.1),
        )
        result = run_simulation(config)
        assert result.monitor_stats is not None
        assert result.metrics.attempts > 0


class TestParallelIsolation:
    def test_worker_pool_matches_serial_and_leaks_nothing(self, monkeypatch):
        configs = [
            monitored_config(staleness=staleness) for staleness in (0.0, 2.0)
        ]
        monkeypatch.setattr("repro.sim.experiment._available_cpus", lambda: 2)
        serial = run_configs(configs, workers=1)
        parallel = run_configs(configs, workers=2)
        for left, right in zip(serial, parallel):
            assert left.monitor_stats == right.monitor_stats
            assert left.metrics == right.metrics
        # the pool (and the in-process fallback path) must not leave a
        # monitor-subscribed log installed in this process
        assert active_event_log() is None
