"""Tests for the runtime architecture: proxy, coordinator, sessions."""

import pytest

from repro.brokers import BrokerRegistry, LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.core import BasicPlanner
from repro.core.errors import BrokerError
from repro.des import Environment
from repro.runtime import (
    AvailabilityRequest,
    ModelStore,
    QoSProxy,
    ReservationCoordinator,
    ServiceSession,
)


@pytest.fixture
def rig(small_service, small_binding):
    """Registry + two proxies + coordinator for the small service."""
    env = Environment()
    registry = BrokerRegistry()
    cpu = LocalResourceBroker("H1", "cpu", 100.0, clock=lambda: env.now)
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0, clock=lambda: env.now)
    path = PathBroker("net:L1", [link], clock=lambda: env.now)
    for broker in (cpu, link, path):
        registry.register(broker)
    proxy_h1 = QoSProxy("H1", registry)
    proxy_h1.own("cpu:H1")
    proxy_h2 = QoSProxy("H2", registry)
    proxy_h2.own("net:L1")
    store = ModelStore()
    store.register(small_service)
    coordinator = ReservationCoordinator(registry, store, {"H1": proxy_h1, "H2": proxy_h2})
    return env, registry, coordinator, proxy_h1, proxy_h2, cpu, link


class TestModelStore:
    def test_register_and_lookup(self, small_service):
        store = ModelStore()
        store.register(small_service)
        assert store.service("small") is small_service
        assert "small" in store
        assert store.names() == ("small",)

    def test_duplicate_rejected(self, small_service):
        store = ModelStore()
        store.register(small_service)
        with pytest.raises(Exception):
            store.register(small_service)

    def test_missing_service(self):
        with pytest.raises(Exception):
            ModelStore().service("ghost")


class TestProxy:
    def test_ownership(self, rig):
        _env, _registry, _coord, proxy_h1, _h2, *_ = rig
        assert proxy_h1.owns("cpu:H1")
        assert not proxy_h1.owns("net:L1")
        assert proxy_h1.owned_resources() == ("cpu:H1",)

    def test_cannot_own_unregistered(self, rig):
        _env, _registry, _coord, proxy_h1, *_ = rig
        with pytest.raises(BrokerError):
            proxy_h1.own("disk:H1")

    def test_report_covers_only_owned(self, rig):
        _env, _registry, _coord, proxy_h1, *_ = rig
        request = AvailabilityRequest("s1", ("cpu:H1", "net:L1"))
        report = proxy_h1.report_availability(request)
        assert set(report.observations) == {"cpu:H1"}
        assert report.proxy_host == "H1"

    def test_release_unknown_session_is_noop(self, rig):
        _env, _registry, _coord, proxy_h1, *_ = rig
        assert proxy_h1.release_session("ghost") == 0


class TestCoordinator:
    def test_successful_establishment(self, rig, small_binding):
        _env, registry, coordinator, *_rest, cpu, link = rig
        result = coordinator.establish(
            "s1", "small", small_binding, BasicPlanner(),
            component_hosts={"c1": "H1", "c2": "H2"},
        )
        assert result.success
        assert result.plan.end_to_end_label == "Qf"
        assert cpu.available == 90.0   # Qb costs 10
        assert link.available == 80.0  # Qd->Qf costs 20
        assert coordinator.proxies["H1"].running_components("s1") == ("c1",)
        coordinator.teardown("s1")
        registry.assert_quiescent()

    def test_no_feasible_plan(self, rig, small_binding):
        _env, registry, coordinator, *_rest, cpu, link = rig
        cpu.reserve(99.5, "hog")
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert not result.success
        assert result.reason == "no_feasible_plan"
        assert result.plan is None
        assert result.qos_level is None

    def test_fat_session_scaling(self, rig, small_binding):
        _env, _registry, coordinator, *_rest, cpu, link = rig
        result = coordinator.establish(
            "s1", "small", small_binding, BasicPlanner(), demand_scale=2.0
        )
        assert result.success
        assert cpu.available == 80.0  # 2 x 10
        assert link.available == 60.0  # 2 x 20

    def test_stale_observation_can_cause_admission_failure(self, rig, small_binding):
        env, registry, coordinator, *_rest, cpu, link = rig
        # Reserve most of the link now; a stale observation from before
        # sees plenty and plans for Qf, then phase 3 fails.
        env.run(until=5.0)
        link.reserve(95.0, "hog")

        def stale(resource_id):
            return 1.0  # observe as of t=1, before the hog

        result = coordinator.establish(
            "s1", "small", small_binding, BasicPlanner(), observed_at=stale
        )
        assert not result.success
        assert result.reason == "admission_failed"
        assert result.plan is not None  # a plan was computed on stale data
        assert result.failed_resource == "net:L1"
        # rollback left no leaks
        assert cpu.available == 100.0
        assert link.available == pytest.approx(5.0)

    def test_proxy_ownership_required(self, rig, small_binding):
        _env, registry, coordinator, proxy_h1, proxy_h2, *_ = rig
        coordinator_missing = ReservationCoordinator(
            registry, coordinator.model_store, {"H1": proxy_h1}
        )
        with pytest.raises(BrokerError, match="owns"):
            coordinator_missing.establish("s1", "small", small_binding, BasicPlanner())

    def test_teardown_counts_releases(self, rig, small_binding):
        _env, registry, coordinator, *_ = rig
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        released = coordinator.teardown("s1")
        assert released == 2
        registry.assert_quiescent()


class TestServiceSession:
    def test_full_lifecycle_on_des(self, rig, small_binding):
        env, registry, coordinator, *_rest, cpu, link = rig
        session = ServiceSession(
            env, coordinator, "s1", "small", small_binding, BasicPlanner(), duration=25.0
        )
        process = env.process(session.run())
        env.run()
        outcome = process.value
        assert outcome.success
        assert outcome.qos_level == 2
        assert outcome.ended_at == 25.0
        registry.assert_quiescent()

    def test_holds_resources_during_session(self, rig, small_binding):
        env, _registry, coordinator, *_rest, cpu, link = rig
        session = ServiceSession(
            env, coordinator, "s1", "small", small_binding, BasicPlanner(), duration=10.0
        )
        env.process(session.run())
        env.run(until=5.0)
        assert cpu.available == 90.0
        env.run()
        assert cpu.available == 100.0

    def test_failed_session_records_reason(self, rig, small_binding):
        env, _registry, coordinator, *_rest, cpu, link = rig
        cpu.reserve(99.0, "hog")
        outcomes = []
        session = ServiceSession(
            env, coordinator, "s1", "small", small_binding, BasicPlanner(),
            duration=10.0, on_finish=outcomes.append,
        )
        env.process(session.run())
        env.run()
        assert len(outcomes) == 1
        assert not outcomes[0].success
        assert outcomes[0].reason == "no_feasible_plan"

    def test_duration_must_be_positive(self, rig, small_binding):
        env, _registry, coordinator, *_ = rig
        with pytest.raises(Exception):
            ServiceSession(
                env, coordinator, "s1", "small", small_binding, BasicPlanner(), duration=0.0
            )

    def test_outcome_fat_flag(self, rig, small_binding):
        env, _registry, coordinator, *_ = rig
        session = ServiceSession(
            env, coordinator, "s1", "small", small_binding, BasicPlanner(),
            duration=5.0, demand_scale=2.0,
        )
        process = env.process(session.run())
        env.run()
        assert process.value.fat
