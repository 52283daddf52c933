"""Tests for BrokerRegistry: snapshots and transactional reservation."""

import pytest

from repro.brokers import BrokerRegistry, LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.core import ResourceVector
from repro.core.errors import AdmissionError, BrokerError


def make_registry():
    registry = BrokerRegistry()
    cpu = LocalResourceBroker("H1", "cpu", 100.0)
    link = LinkBandwidthBroker("L1", "H1", "H2", 80.0)
    path = PathBroker("net:H1-H2", [link])
    registry.register(cpu)
    registry.register(link)
    registry.register(path)
    return registry, cpu, link, path


class TestDirectory:
    def test_register_and_lookup(self):
        registry, cpu, _link, _path = make_registry()
        assert registry.broker("cpu:H1") is cpu
        assert "cpu:H1" in registry
        assert "nope" not in registry
        assert registry.resource_ids() == ("cpu:H1", "link:L1", "net:H1-H2")

    def test_duplicate_registration_rejected(self):
        registry, cpu, _link, _path = make_registry()
        with pytest.raises(BrokerError):
            registry.register(cpu)

    def test_unknown_broker_raises(self):
        registry, *_ = make_registry()
        with pytest.raises(BrokerError):
            registry.broker("disk:H9")


class TestSnapshots:
    def test_snapshot_collects_observations(self):
        registry, cpu, _link, _path = make_registry()
        cpu.reserve(25.0, "bg")
        snapshot = registry.snapshot(["cpu:H1", "net:H1-H2"])
        assert snapshot["cpu:H1"].available == 75.0
        assert snapshot["net:H1-H2"].available == 80.0

    def test_snapshot_with_observed_at_schedule(self):
        registry, cpu, _link, _path = make_registry()
        # the default clock is constant 0.0; a schedule returning None
        # falls back to the present
        snapshot = registry.snapshot(
            ["cpu:H1"], observed_at=lambda rid: None
        )
        assert snapshot["cpu:H1"].available == 100.0


class TestTransactions:
    def test_reserve_all_success(self):
        registry, cpu, link, _path = make_registry()
        demand = ResourceVector({"cpu:H1": 30.0, "net:H1-H2": 40.0})
        made = registry.reserve_all(demand, "s1")
        assert cpu.available == 70.0
        assert link.available == 40.0
        assert [(r.resource_id, r.amount) for r in made] == [
            ("cpu:H1", 30.0),
            ("net:H1-H2", 40.0),
        ]
        registry.release_all(made)
        registry.assert_quiescent()

    def test_reserve_all_rolls_back_on_failure(self):
        registry, cpu, link, _path = make_registry()
        demand = ResourceVector({"cpu:H1": 30.0, "net:H1-H2": 90.0})  # net too big
        with pytest.raises(AdmissionError):
            registry.reserve_all(demand, "s1")
        registry.assert_quiescent()
        assert cpu.available == 100.0
        assert link.available == 80.0

    def test_release_all_is_safe_to_repeat(self):
        registry, *_ = make_registry()
        made = registry.reserve_all(ResourceVector({"cpu:H1": 10.0}), "s1")
        registry.release_all(made)
        registry.release_all(made)  # empty now: no-op
        registry.assert_quiescent()

    def test_assert_quiescent_detects_leak(self):
        registry, cpu, *_ = make_registry()
        cpu.reserve(10.0, "leak")
        with pytest.raises(BrokerError, match="not quiescent"):
            registry.assert_quiescent()

    def test_total_outstanding(self):
        registry, *_ = make_registry()
        assert registry.total_outstanding() == 0
        registry.reserve_all(ResourceVector({"cpu:H1": 10.0, "net:H1-H2": 5.0}), "s1")
        # cpu 1 + link 1 (the path broker counts its links' reservations)
        assert registry.total_outstanding() >= 2
