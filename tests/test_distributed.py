"""Tests for the distributed model store (paper §3): a coordinator over
ComponentHost proxies."""

import pytest

from repro.brokers import BrokerRegistry, LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.core import BasicPlanner, TradeoffPlanner
from repro.core.errors import ModelError
from repro.runtime import (
    ComponentHost,
    FragmentRequest,
    ModelStore,
    QoSProxy,
    ReservationCoordinator,
    SessionRequest,
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_distributed_rig(small_service):
    """A registry over cpu:H1 and net:L1, priced by two component hosts."""
    registry = BrokerRegistry()
    clock = _Clock()
    cpu = LocalResourceBroker("H1", "cpu", 100.0, clock=clock)
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0, clock=clock)
    path = PathBroker("net:L1", [link], clock=clock)
    registry.clock = clock  # exposed for tests that advance time
    for broker in (cpu, link, path):
        registry.register(broker)
    host1 = ComponentHost("H1", registry)
    host1.store_component(small_service.component("c1"))
    host2 = ComponentHost("H2", registry)
    host2.store_component(small_service.component("c2"))
    structure = ModelStore()
    structure.register(small_service)
    coordinator = ReservationCoordinator(registry, structure, {"H1": host1, "H2": host2})
    return registry, coordinator, host1, host2, cpu, link


@pytest.fixture
def distributed_rig(small_service):
    return build_distributed_rig(small_service)


class TestComponentHost:
    def test_stores_components(self, distributed_rig, small_service):
        _registry, _coordinator, host1, host2, *_ = distributed_rig
        assert host1.stored_components() == ("c1",)
        with pytest.raises(ModelError):
            host1.store_component(small_service.component("c1"))

    def test_fragment_prices_local_edges(self, distributed_rig, small_binding):
        _registry, _coordinator, host1, _host2, *_ = distributed_rig
        fragment = host1.price_fragment(
            FragmentRequest("s1", "c1"), small_binding
        )
        assert fragment.component == "c1"
        assert len(fragment.edges) == 2  # Qa->Qb, Qa->Qc
        assert set(fragment.observations) == {"cpu:H1"}

    def test_fragment_scaling(self, distributed_rig, small_binding):
        _registry, _coordinator, host1, *_ = distributed_rig
        fragment = host1.price_fragment(
            FragmentRequest("s1", "c1", demand_scale=2.0), small_binding
        )
        bounds = {edge.dst.label: edge.bound["cpu:H1"] for edge in fragment.edges}
        assert bounds == {"Qb": 20.0, "Qc": 10.0}

    def test_unknown_component_rejected(self, distributed_rig, small_binding):
        _registry, _coordinator, host1, *_ = distributed_rig
        with pytest.raises(ModelError):
            host1.price_fragment(FragmentRequest("s1", "ghost"), small_binding)


class TestDistributedCoordinator:
    def test_establishes_and_reserves(self, distributed_rig, small_binding):
        registry, coordinator, _h1, _h2, cpu, link = distributed_rig
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert result.success
        assert cpu.available == 90.0
        assert link.available == 80.0
        assert coordinator.teardown("s1") == 2
        registry.assert_quiescent()

    def test_matches_centralised_plans(self, small_service, small_binding, distributed_rig):
        """Both coordination styles must compute the same plan from the
        same availability -- the paper treats them as equivalent."""
        registry, distributed, h1, h2, cpu, link = distributed_rig
        # centralised rig on the same registry
        central_h1 = QoSProxy("H1", registry)
        central_h1.own("cpu:H1")
        central_h2 = QoSProxy("H2", registry)
        central_h2.own("net:L1")
        store = ModelStore()
        store.register(small_service)
        central = ReservationCoordinator(
            registry, store, {"H1": central_h1, "H2": central_h2}
        )
        for planner in (BasicPlanner(), TradeoffPlanner()):
            for scale in (1.0, 2.0):
                distributed_result = distributed.establish(
                    "d", "small", small_binding, planner, demand_scale=scale
                )
                distributed.teardown("d")
                central_result = central.establish(
                    "c", "small", small_binding, planner, demand_scale=scale
                )
                central.teardown("c")
                assert distributed_result.success == central_result.success
                assert (
                    distributed_result.plan.signature_string()
                    == central_result.plan.signature_string()
                )
                assert distributed_result.plan.psi == pytest.approx(central_result.plan.psi)
        registry.assert_quiescent()

    def test_no_feasible_plan(self, distributed_rig, small_binding):
        _registry, coordinator, _h1, _h2, cpu, _link = distributed_rig
        cpu.reserve(99.0, "hog")
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert not result.success
        assert result.reason == "no_feasible_plan"

    def test_stale_observation_admission_failure(self, distributed_rig, small_binding):
        registry, coordinator, _h1, _h2, cpu, link = distributed_rig
        registry.clock.now = 5.0
        link.reserve(95.0, "hog")  # true availability drops to 5 at t=5

        # observe as of "before the hog" -> plan Qf -> phase 3 fails
        result = coordinator.establish(
            "s1", "small", small_binding, BasicPlanner(),
            observed_at=lambda rid: 0.0 if rid == "net:L1" else None,
        )
        assert not result.success
        assert result.reason == "admission_failed"
        assert result.failed_resource == "net:L1"
        assert cpu.available == 100.0  # rolled back

    def test_missing_component_host(self, distributed_rig, small_binding, small_service):
        registry, _coordinator, host1, _h2, *_ = distributed_rig
        structure = ModelStore()
        structure.register(small_service)
        partial = ReservationCoordinator(registry, structure, {"H1": host1})
        with pytest.raises(ModelError, match="stores component"):
            partial.establish("s1", "small", small_binding, BasicPlanner())

    def test_a_batch_decides_as_sequential_establishments(
        self, small_service, small_binding
    ):
        """Component hosts price fragments per arrival, so a batch shares
        no phase-1 snapshot: each arrival is an ordinary establishment,
        seeing the reservations of the ones before it."""
        scales = (3.0, 3.0, 3.0, 1.0)
        outcomes = []
        for batched in (True, False):
            _registry, coordinator, _h1, _h2, cpu, link = build_distributed_rig(
                small_service
            )
            requests = [
                SessionRequest(f"s{index}", "small", small_binding, demand_scale=scale)
                for index, scale in enumerate(scales)
            ]
            if batched:
                results = coordinator.establish_batch(requests, TradeoffPlanner())
            else:
                results = [
                    coordinator.establish(
                        request.session_id,
                        "small",
                        small_binding,
                        TradeoffPlanner(),
                        demand_scale=request.demand_scale,
                    )
                    for request in requests
                ]
            outcomes.append(
                (
                    [
                        (
                            result.success,
                            result.reason,
                            result.plan and result.plan.signature_string(),
                            result.plan and result.plan.psi,
                        )
                        for result in results
                    ],
                    cpu.available,
                    link.available,
                )
            )
        batched, sequential = outcomes
        assert batched == sequential
        assert [success for success, *_ in sequential[0]] == [True, True, False, True]
