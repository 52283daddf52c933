"""Tests for advance (book-ahead) reservations -- the §6 extension."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brokers import AdvanceRegistry, TimelineBroker
from repro.core import BasicPlanner, build_qrg
from repro.core.errors import AdmissionError, BrokerError


class TestTimelineBroker:
    def test_initial_availability_everywhere(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        assert broker.available_at(0.0) == 100.0
        assert broker.available_at(1e6) == 100.0
        assert broker.available_over(5.0, 500.0) == 100.0

    def test_capacity_positive(self):
        with pytest.raises(BrokerError):
            TimelineBroker("cpu:H1", 0.0)

    def test_booking_occupies_exact_window(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        broker.reserve(30.0, "s1", start=10.0, end=20.0)
        assert broker.available_at(9.99) == 100.0
        assert broker.available_at(10.0) == 70.0
        assert broker.available_at(19.99) == 70.0
        assert broker.available_at(20.0) == 100.0

    def test_window_min_over_overlaps(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        broker.reserve(30.0, "s1", 0.0, 10.0)
        broker.reserve(50.0, "s2", 5.0, 15.0)
        assert broker.available_over(0.0, 5.0) == 70.0
        assert broker.available_over(5.0, 10.0) == 20.0  # both overlap
        assert broker.available_over(10.0, 15.0) == 50.0
        assert broker.available_over(0.0, 15.0) == 20.0

    def test_admission_over_whole_window(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        broker.reserve(80.0, "s1", 10.0, 12.0)  # narrow spike
        # a long booking crossing the spike must respect the spike
        with pytest.raises(AdmissionError):
            broker.reserve(30.0, "s2", 0.0, 100.0)
        broker.reserve(20.0, "s2", 0.0, 100.0)

    def test_rejected_booking_leaves_no_trace(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        broker.reserve(90.0, "s1", 0.0, 10.0)
        with pytest.raises(AdmissionError):
            broker.reserve(20.0, "s2", 5.0, 15.0)
        assert broker.available_over(10.0, 15.0) == 100.0
        assert broker.outstanding() == 1

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), 0.0, -5.0])
    def test_malformed_amount_books_nothing(self, amount):
        broker = TimelineBroker("cpu:x", 10.0)
        broker.reserve(4.0, "bg", 0.0, 5.0)
        with pytest.raises(BrokerError, match="finite and positive"):
            broker.reserve(amount, "s", 0.0, 1.0)
        assert broker.outstanding() == 1  # the background booking alone
        assert broker.available_over(0.0, 1.0) == 6.0
        assert broker.available_over(5.0, 9.0) == 10.0

    def test_cancel_restores_window(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        reservation = broker.reserve(40.0, "s1", 5.0, 9.0)
        broker.cancel(reservation)
        assert broker.available_over(0.0, 20.0) == 100.0
        assert broker.outstanding() == 0
        with pytest.raises(BrokerError, match="double cancel"):
            broker.cancel(reservation)

    def test_empty_window_rejected(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        with pytest.raises(BrokerError):
            broker.reserve(10.0, "s1", 5.0, 5.0)
        with pytest.raises(BrokerError):
            broker.available_over(7.0, 3.0)

    def test_adjacent_bookings_do_not_interact(self):
        broker = TimelineBroker("cpu:H1", 100.0)
        broker.reserve(100.0, "s1", 0.0, 10.0)
        broker.reserve(100.0, "s2", 10.0, 20.0)  # half-open: no overlap
        assert broker.available_at(10.0) == 0.0
        assert broker.available_over(0.0, 20.0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 90), st.floats(1, 30), st.floats(1.0, 30.0)
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_timeline_matches_naive_model(self, bookings):
        """Property: the step-function timeline equals a brute-force sum."""
        broker = TimelineBroker("r", 1000.0)
        accepted = []
        for start, span, amount in bookings:
            end = start + span
            try:
                broker.reserve(amount, "s", start, end)
                accepted.append((start, end, amount))
            except AdmissionError:  # pragma: no cover - capacity is ample
                pass
        for probe in np.linspace(0.0, 130.0, 53):
            naive = sum(a for s, e, a in accepted if s <= probe < e)
            assert broker.load_at(float(probe)) == pytest.approx(naive)


class TestAdvancePlanning:
    def test_plan_against_future_window(self, small_service, small_binding):
        """The unchanged planners plan advance reservations off a
        windowed snapshot -- the compositionality the extension targets."""
        registry = AdvanceRegistry()
        registry.register(TimelineBroker("cpu:H1", 100.0))
        registry.register(TimelineBroker("net:L1", 100.0))
        # The network is busy tomorrow 10-20 but free later.
        registry.broker("net:L1").reserve(90.0, "other", 10.0, 20.0)

        busy = registry.snapshot(["cpu:H1", "net:L1"], 10.0, 20.0)
        qrg_busy = build_qrg(small_service, small_binding, busy)
        plan_busy = BasicPlanner().plan(qrg_busy)
        assert plan_busy.end_to_end_label == "Qg"  # only the cheap level fits

        free = registry.snapshot(["cpu:H1", "net:L1"], 30.0, 40.0)
        qrg_free = build_qrg(small_service, small_binding, free)
        plan_free = BasicPlanner().plan(qrg_free)
        assert plan_free.end_to_end_label == "Qf"

    def test_reserve_plan_transactionally(self, small_service, small_binding):
        registry = AdvanceRegistry()
        registry.register(TimelineBroker("cpu:H1", 100.0))
        registry.register(TimelineBroker("net:L1", 25.0))
        snapshot = registry.snapshot(["cpu:H1", "net:L1"], 0.0, 10.0)
        plan = BasicPlanner().plan(build_qrg(small_service, small_binding, snapshot))
        made = registry.reserve_plan(plan, "s1", 0.0, 10.0)
        assert len(made) == 2
        # the same window can no longer fit a second identical session
        with pytest.raises(AdmissionError):
            registry.reserve_plan(plan, "s2", 5.0, 15.0)
        # but a disjoint future window can
        later = registry.reserve_plan(plan, "s3", 10.0, 20.0)
        registry.cancel_all(made + later)
        assert registry.broker("net:L1").available_over(0, 100) == 25.0

    def test_rollback_on_partial_failure(self, small_service, small_binding):
        registry = AdvanceRegistry()
        registry.register(TimelineBroker("cpu:H1", 100.0))
        registry.register(TimelineBroker("net:L1", 100.0))
        snapshot = registry.snapshot(["cpu:H1", "net:L1"], 0.0, 10.0)
        plan = BasicPlanner().plan(build_qrg(small_service, small_binding, snapshot))
        # Squeeze the net for the target window after planning.
        registry.broker("net:L1").reserve(95.0, "squeeze", 0.0, 10.0)
        with pytest.raises(AdmissionError):
            registry.reserve_plan(plan, "s1", 0.0, 10.0)
        assert registry.broker("cpu:H1").available_over(0.0, 10.0) == 100.0

    def test_rollback_on_any_failure_not_only_a_refusal(self):
        registry = AdvanceRegistry()
        registry.register(TimelineBroker("cpu:H1", 100.0))
        registry.register(TimelineBroker("net:L1", 100.0))
        plan = SimpleNamespace(demand={"cpu:H1": 10.0, "net:L1": float("nan")})
        with pytest.raises(BrokerError, match="finite and positive"):
            registry.reserve_plan(plan, "s1", 0.0, 10.0)
        cpu = registry.broker("cpu:H1")
        assert cpu.outstanding() == 0
        assert cpu.available_over(0.0, 10.0) == 100.0
        assert (cpu._times, cpu._loads) == ([], [])  # the timeline is empty again

    def test_registry_duplicate_and_missing(self):
        registry = AdvanceRegistry()
        broker = TimelineBroker("cpu:H1", 10.0)
        registry.register(broker)
        assert "cpu:H1" in registry
        with pytest.raises(BrokerError):
            registry.register(broker)
        with pytest.raises(BrokerError):
            registry.broker("ghost")
