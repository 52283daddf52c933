"""Tests for the two-level end-to-end path broker (paper §3)."""

import pytest

from repro.brokers import LinkBandwidthBroker, PathBroker
from repro.core.errors import AdmissionError, BrokerError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_route(*capacities):
    links = [
        LinkBandwidthBroker(f"L{i}", f"N{i}", f"N{i+1}", capacity)
        for i, capacity in enumerate(capacities)
    ]
    return PathBroker("net:N0-N9", links), links


class TestTwoLevelAvailability:
    def test_availability_is_min_over_links(self):
        path, links = make_route(100, 50, 80)
        assert path.available == 50.0
        assert path.capacity == 50.0
        links[0].reserve(70.0, "other")  # L0 drops to 30
        assert path.available == 30.0
        assert path.bottleneck_link() is links[0]

    def test_requires_at_least_one_link(self):
        with pytest.raises(BrokerError):
            PathBroker("net:x", [])

    def test_observe_reports_min(self):
        path, links = make_route(100, 60)
        links[1].reserve(20.0, "bg")
        assert path.observe().available == 40.0


class TestTransactionalReservation:
    def test_reserves_on_every_link(self):
        path, links = make_route(100, 100)
        reservation = path.reserve(30.0, "s1")
        assert all(link.available == 70.0 for link in links)
        assert len(reservation.parts) == 2
        path.release(reservation)
        assert all(link.available == 100.0 for link in links)
        assert all(link.outstanding() == 0 for link in links)

    def test_failure_rolls_back_partial_reservations(self):
        path, links = make_route(100, 20, 100)
        with pytest.raises(AdmissionError) as info:
            path.reserve(30.0, "s1")
        assert info.value.resource_id == "net:N0-N9"
        assert all(link.available == link.capacity for link in links)
        assert all(link.outstanding() == 0 for link in links)

    def test_shared_link_between_two_paths(self):
        shared = LinkBandwidthBroker("LS", "A", "B", 100.0)
        path1 = PathBroker("net:1", [shared])
        path2 = PathBroker("net:2", [shared])
        path1.reserve(60.0, "s1")
        assert path2.available == 40.0
        with pytest.raises(AdmissionError):
            path2.reserve(50.0, "s2")
        path2.reserve(40.0, "s2")
        assert shared.available == pytest.approx(0.0)

    def test_nonpositive_amount_rejected(self):
        path, _links = make_route(100)
        with pytest.raises(BrokerError):
            path.reserve(-5.0, "s1")

    def test_utilization_and_outstanding(self):
        path, _links = make_route(100, 200)
        path.reserve(50.0, "s1")
        assert path.utilization() == pytest.approx(0.5)
        assert path.outstanding() == 1


class TestStaleObservation:
    def test_stale_value_is_min_of_link_histories(self):
        clock = FakeClock()
        links = [
            LinkBandwidthBroker("L0", "A", "B", 100.0, clock=clock),
            LinkBandwidthBroker("L1", "B", "C", 80.0, clock=clock),
        ]
        path = PathBroker("net:A-C", links, clock=clock)
        clock.now = 5.0
        links[0].reserve(50.0, "bg")  # L0: 50 from t=5
        clock.now = 10.0
        assert path.observe_stale(3.0).available == 80.0  # min(100, 80)
        assert path.observe_stale(7.0).available == 50.0  # min(50, 80)

    def test_alpha_downtrend_on_path(self):
        clock = FakeClock()
        link = LinkBandwidthBroker("L0", "A", "B", 100.0, clock=clock)
        path = PathBroker("net:A-B", [link], clock=clock)
        path.observe()  # report 100 at t=0
        clock.now = 1.0
        path.reserve(50.0, "s1")
        assert path.observe().alpha == pytest.approx(0.5)
