"""Edge cases of the centralised coordinator and session plumbing."""

import pytest

from repro.brokers import BrokerRegistry, LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.core import BasicPlanner, headroom_contention_index
from repro.core.errors import BrokerError
from repro.core.plan import ComponentAssignment, ReservationPlan
from repro.core.resources import ResourceVector
from repro.runtime import ModelStore, QoSProxy, ReservationCoordinator
from repro.runtime.messages import PlanSegment


def build_rig(small_service):
    registry = BrokerRegistry()
    cpu = LocalResourceBroker("H1", "cpu", 100.0)
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0)
    path = PathBroker("net:L1", [link])
    for broker in (cpu, link, path):
        registry.register(broker)
    proxy_h1 = QoSProxy("H1", registry)
    proxy_h1.own("cpu:H1")
    proxy_h2 = QoSProxy("H2", registry)
    proxy_h2.own("net:L1")
    store = ModelStore()
    store.register(small_service)
    coordinator = ReservationCoordinator(registry, store, {"H1": proxy_h1, "H2": proxy_h2})
    return registry, coordinator, proxy_h1, proxy_h2, cpu, link


class TestProxySegments:
    def test_apply_segment_rejects_unowned_resources(self, small_service):
        _registry, _coordinator, proxy_h1, *_ = build_rig(small_service)
        segment = PlanSegment("s1", "H1", {"net:L1": 5.0})
        with pytest.raises(BrokerError, match="unowned"):
            proxy_h1.apply_segment(segment)

    def test_segment_rollback_on_partial_failure(self, small_service):
        registry, _coordinator, proxy_h1, *_ = build_rig(small_service)
        proxy_h1.own("net:L1")  # now owns both, for a 2-resource segment
        registry.broker("net:L1").reserve(96.0, "hog")
        segment = PlanSegment("s1", "H1", {"cpu:H1": 10.0, "net:L1": 50.0})
        with pytest.raises(Exception):
            proxy_h1.apply_segment(segment)
        assert registry.broker("cpu:H1").available == 100.0
        assert proxy_h1.held_for("s1") == ()


class TestCoordinatorConfig:
    def test_custom_contention_index_threads_through(self, small_service, small_binding):
        _registry, coordinator, *_ = build_rig(small_service)
        result = coordinator.establish(
            "s1", "small", small_binding, BasicPlanner(),
            contention_index=headroom_contention_index,
        )
        assert result.success
        # psi under the headroom definition: 20/(100-20) = 0.25
        assert result.plan.psi == pytest.approx(0.25)
        coordinator.teardown("s1")

    def test_teardown_of_unknown_session_is_zero(self, small_service):
        _registry, coordinator, *_ = build_rig(small_service)
        assert coordinator.teardown("never-existed") == 0


class TestTeardownIdempotency:
    """Teardown must be safe to repeat: a second (or misdirected)
    teardown returns 0 and leaves no partial broker state behind."""

    def test_double_teardown_returns_zero(self, small_service, small_binding):
        registry, coordinator, *_ = build_rig(small_service)
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert result.success
        first = coordinator.teardown("s1")
        assert first > 0
        assert coordinator.teardown("s1") == 0
        registry.assert_quiescent()

    def test_unknown_session_teardown_leaves_live_sessions_intact(
        self, small_service, small_binding
    ):
        registry, coordinator, proxy_h1, proxy_h2, cpu, _link = build_rig(small_service)
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        held_before = (proxy_h1.held_for("s1"), proxy_h2.held_for("s1"))
        available_before = cpu.available
        assert coordinator.teardown("phantom") == 0
        assert (proxy_h1.held_for("s1"), proxy_h2.held_for("s1")) == held_before
        assert cpu.available == available_before
        coordinator.teardown("s1")
        registry.assert_quiescent()

    def test_release_session_tolerates_an_already_freed_reservation(
        self, small_service, small_binding
    ):
        """A broker-side release that races teardown (e.g. a reaped
        orphan) must not break the rest of the session's cleanup."""
        registry, coordinator, proxy_h1, *_ = build_rig(small_service)
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        victim = proxy_h1.held_for("s1")[0]
        registry.broker(victim.resource_id).release(victim)  # out-of-band free
        coordinator.teardown("s1")  # must not raise on the double release
        registry.assert_quiescent()
        assert coordinator.teardown("s1") == 0


class TestEstablishRollback:
    """Regression: when a *later* proxy's segment is rejected in phase 3,
    every segment already applied by earlier proxies must be released and
    the brokers' availability fully restored (paper §4.2 atomicity)."""

    def test_partial_failure_releases_earlier_proxies(self, small_service, small_binding):
        registry = BrokerRegistry()
        cpu1 = LocalResourceBroker("H1", "cpu", 100.0)
        cpu2 = LocalResourceBroker("H2", "cpu", 100.0)
        link = LinkBandwidthBroker("L1", "H1", "H2", 100.0)
        path = PathBroker("net:L1", [link])
        for broker in (cpu1, cpu2, link, path):
            registry.register(broker)
        # Segments dispatch in sorted-host order, so the over-demanded
        # network resource (owned by "H3") is applied *after* both CPU
        # segments have already been reserved.
        proxies = {host: QoSProxy(host, registry) for host in ("H1", "H2", "H3")}
        proxies["H1"].own("cpu:H1")
        proxies["H2"].own("cpu:H2")
        proxies["H3"].own("net:L1")
        store = ModelStore()
        store.register(small_service)
        coordinator = ReservationCoordinator(registry, store, proxies)

        doomed_plan = ReservationPlan(
            service=small_service.name,
            assignments=(
                ComponentAssignment(
                    component="c1", qin_label="Qa", qout_label="Qb",
                    requirement=ResourceVector({"cpu": 10.0}),
                    bound=ResourceVector({"cpu:H1": 10.0, "cpu:H2": 10.0}),
                    weight=0.1, bottleneck_resource="cpu:H1", alpha=0.0,
                ),
                ComponentAssignment(
                    component="c2", qin_label="Qb", qout_label="Qf",
                    requirement=ResourceVector({"net": 150.0}),
                    bound=ResourceVector({"net:L1": 150.0}),  # > capacity 100
                    weight=1.5, bottleneck_resource="net:L1", alpha=0.0,
                ),
            ),
            end_to_end_label="Qf", end_to_end_rank=0, numeric_level=1,
            psi=1.5, bottleneck_resource="net:L1", bottleneck_alpha=0.0,
        )

        class StubPlanner:
            name = "stub"

            def plan(self, qrg):
                return doomed_plan

        before = {rid: registry.broker(rid).available for rid in registry.resource_ids()}
        result = coordinator.establish("s1", "small", small_binding, StubPlanner())

        assert not result.success
        assert result.reason == "admission_failed"
        assert result.failed_resource == "net:L1"
        after = {rid: registry.broker(rid).available for rid in registry.resource_ids()}
        assert after == before, "rollback must restore every broker's availability"
        for proxy in proxies.values():
            assert proxy.held_for("s1") == ()
