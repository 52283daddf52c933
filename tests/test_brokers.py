"""Tests for base/local/link brokers: accounting, admission, trends."""

import pytest

from repro.brokers import LinkBandwidthBroker, LocalResourceBroker
from repro.core.errors import AdmissionError, BrokerError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAccounting:
    def test_initial_state(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        assert broker.capacity == 100.0
        assert broker.available == 100.0
        assert broker.reserved == 0.0
        assert broker.outstanding() == 0
        assert broker.resource_id == "cpu:H1"

    def test_capacity_must_be_positive(self):
        with pytest.raises(BrokerError):
            LocalResourceBroker("H1", "cpu", 0.0)

    def test_reserve_and_release_roundtrip(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        reservation = broker.reserve(30.0, "ssn-1")
        assert broker.available == 70.0
        assert broker.outstanding() == 1
        assert reservation.amount == 30.0
        assert reservation.session_id == "ssn-1"
        broker.release(reservation)
        assert broker.available == 100.0
        assert broker.outstanding() == 0

    def test_invariant_available_plus_reserved_is_capacity(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        held = [broker.reserve(a, f"s{a}") for a in (10, 20, 30)]
        assert broker.available + broker.reserved == pytest.approx(100.0)
        for reservation in held:
            broker.release(reservation)
        assert broker.available == pytest.approx(100.0)

    def test_admission_control_rejects_over_request(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        broker.reserve(90.0, "s1")
        with pytest.raises(AdmissionError) as info:
            broker.reserve(20.0, "s2")
        assert info.value.resource_id == "cpu:H1"
        # rejected request must not change state
        assert broker.available == pytest.approx(10.0)
        assert broker.outstanding() == 1

    def test_exact_fit_admitted(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        broker.reserve(100.0, "s1")
        assert broker.available == pytest.approx(0.0)

    def test_nonpositive_amount_rejected(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        with pytest.raises(BrokerError):
            broker.reserve(0.0, "s1")

    def test_double_release_rejected(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        reservation = broker.reserve(10.0, "s1")
        broker.release(reservation)
        with pytest.raises(BrokerError, match="double release"):
            broker.release(reservation)

    def test_utilization(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        broker.reserve(25.0, "s1")
        assert broker.utilization() == pytest.approx(0.25)


class TestObservation:
    def test_observe_reports_current_availability(self):
        clock = FakeClock()
        broker = LocalResourceBroker("H1", "cpu", 100.0, clock=clock)
        broker.reserve(40.0, "s1")
        observation = broker.observe()
        assert observation.available == 60.0
        assert observation.observed_at == 0.0

    def test_alpha_starts_at_one(self):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        assert broker.observe().alpha == 1.0

    def test_alpha_reflects_downtrend(self):
        clock = FakeClock()
        broker = LocalResourceBroker("H1", "cpu", 100.0, clock=clock, trend_window=3.0)
        broker.observe()  # report 100 at t=0
        clock.now = 1.0
        broker.reserve(50.0, "s1")
        observation = broker.observe()  # avg of window = 100 -> alpha = 0.5
        assert observation.alpha == pytest.approx(0.5)

    def test_alpha_reflects_uptrend(self):
        clock = FakeClock()
        broker = LocalResourceBroker("H1", "cpu", 100.0, clock=clock, trend_window=3.0)
        reservation = broker.reserve(50.0, "s1")
        broker.observe()  # report 50
        clock.now = 1.0
        broker.release(reservation)
        assert broker.observe().alpha == pytest.approx(2.0)

    def test_alpha_window_expires(self):
        clock = FakeClock()
        broker = LocalResourceBroker("H1", "cpu", 100.0, clock=clock, trend_window=3.0)
        broker.reserve(50.0, "s1")
        broker.observe()  # report 50 at t=0
        clock.now = 10.0  # outside the window: no history
        assert broker.observe().alpha == 1.0

    def test_observe_stale_returns_past_value(self):
        clock = FakeClock()
        broker = LocalResourceBroker("H1", "cpu", 100.0, clock=clock)
        clock.now = 5.0
        broker.reserve(40.0, "s1")
        clock.now = 10.0
        stale = broker.observe_stale(4.0)
        assert stale.available == 100.0  # before the reservation
        assert stale.observed_at == 4.0
        fresh = broker.observe_stale(6.0)
        assert fresh.available == 60.0


class TestLinkBroker:
    def test_link_identity(self):
        link = LinkBandwidthBroker("L1", "H1", "H2", 100.0)
        assert link.resource_id == "link:L1"
        assert link.connects("H2", "H1")
        assert not link.connects("H1", "H3")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            LinkBandwidthBroker("L1", "H1", "H1", 100.0)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            LinkBandwidthBroker("", "H1", "H2", 100.0)
