"""Tests for AvailabilityHistory: alpha windows and change logs."""

import math
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.brokers import AvailabilityHistory, LocalResourceBroker
from repro.core.errors import BrokerError
from repro.sim.experiment import SimulationConfig, sweep
from repro.sim.workload import WorkloadSpec


class ResumReference:
    """§4.3's alpha by re-summing the window in exact rationals.

    The reference the O(1) accumulator is held to: the mean is the
    double nearest the true mean of the reports in the window.
    """

    def __init__(self, window: float = 3.0) -> None:
        self.window = float(window)
        self._reports = deque()

    def alpha(self, now: float, available: float) -> float:
        cutoff = now - self.window
        while self._reports and self._reports[0][0] < cutoff:
            self._reports.popleft()
        if self._reports:
            total = sum(Fraction(value) for _t, value in self._reports)
            mean = float(total / len(self._reports))
            index = 1.0 if mean <= 0 else available / mean
        else:
            index = 1.0
        self._reports.append((now, available))
        return index


#: (clock advance, reported value): frozen-clock runs (advance 0), steps
#: inside the window and jumps that empty it; values over ten decades.
_SCHEDULES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5, 7.0]),
        st.one_of(
            st.floats(min_value=1e-6, max_value=4e3),
            st.sampled_from([0.0, 1e-6, 1000.1, 3999.9, 4e3]),
        ),
    ),
    min_size=1,
    max_size=80,
)


class TestAlpha:
    def test_first_report_is_neutral(self):
        history = AvailabilityHistory(window=3.0)
        assert history.alpha(0.0, 100.0) == 1.0

    def test_alpha_is_ratio_to_window_mean(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 100.0)
        history.alpha(1.0, 60.0)
        # mean of {100, 60} = 80; current 40 -> 0.5
        assert history.alpha(2.0, 40.0) == pytest.approx(0.5)

    def test_window_drops_old_reports(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 10.0)
        # t=5: the t=0 report is outside (5-3, 5]
        assert history.alpha(5.0, 100.0) == 1.0

    def test_zero_mean_guard(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 0.0)
        assert history.alpha(1.0, 50.0) == 1.0

    def test_window_must_be_positive(self):
        with pytest.raises(BrokerError):
            AvailabilityHistory(window=0.0)

    def test_non_finite_report_is_refused(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 10.0)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(BrokerError):
                history.alpha(1.0, value)
        # ... and leaves the window as it was.
        assert history.alpha(1.0, 5.0) == 0.5

    @pytest.mark.parametrize(
        "value, reports", [(0.1, 3), (0.7, 3), (3.3, 6), (1000.1, 9), (3999.9, 9)]
    )
    def test_flat_window_is_exactly_one(self, value, reports):
        # sum([v] * n) / n != v for each of these under both CPython's
        # plain (<= 3.11) and compensated (3.12) float sum; the planner
        # branches on alpha >= 1.0, so "about 1" is the wrong answer.
        history = AvailabilityHistory(window=3.0)
        for _ in range(reports):
            history.alpha(0.0, value)
        assert history.alpha(0.0, value) == 1.0

    def test_reports_of_one_instant_merge(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 100.0)
        history.alpha(0.0, 0.1)  # a finer unit merges into the entry
        history.alpha(1.0, 60.0)
        assert (len(history._reports), history.report_count) == (2, 3)
        mean = (Fraction(100.0) + Fraction(0.1) + Fraction(60.0)) / 3
        assert history.alpha(1.0, 160.1) == 160.1 / float(mean)
        assert (len(history._reports), history.report_count) == (2, 4)
        # t=3.5: both reports of t=0 leave together.
        mean = (Fraction(60.0) + Fraction(160.1)) / 2
        assert history.alpha(3.5, 60.0) == 60.0 / float(mean)
        assert (len(history._reports), history.report_count) == (2, 3)


class TestAlphaIsExact:
    @given(schedule=_SCHEDULES)
    # A finer unit merging into an entry, then the merged entry leaving.
    @example(schedule=[(0.0, 4e3), (0.0, 0.1), (1.0, 3.0), (7.0, 5.0), (0.0, 5.0)])
    @example(schedule=[(0.0, 1000.0), (0.0, 1e-6), (0.0, 1000.1), (2.5, 0.1), (1.0, 7.0)])
    @settings(max_examples=200, deadline=None)
    def test_matches_the_exact_resum(self, schedule):
        """Alpha is bit-identical to the re-sum, and the log holds one
        entry per distinct instant in the window and counts its reports."""
        history, reference = AvailabilityHistory(3.0), ResumReference(3.0)
        now = 0.0
        for advance, value in schedule:
            now += advance
            assert history.alpha(now, value) == reference.alpha(now, value)
            in_window = [when for when, _value in reference._reports]
            assert [entry[0] for entry in history._reports] == sorted(set(in_window))
            assert history.report_count == len(in_window)

    @given(
        value=st.floats(min_value=1e-6, max_value=4e3),
        reports=st.integers(min_value=1, max_value=60),
        noise=_SCHEDULES,
    )
    @settings(max_examples=200, deadline=None)
    def test_flat_window_after_any_past(self, value, reports, noise):
        history = AvailabilityHistory(3.0)
        now = 0.0
        for advance, other in noise:
            now += advance
            history.alpha(now, other)
        now += 10.0  # everything before this leaves the window
        for _ in range(reports):
            history.alpha(now, value)
        assert history.alpha(now, value) == 1.0

    def test_cost_does_not_grow_with_history(self):
        def hundred_observes(broker) -> float:
            best = math.inf
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(100):
                    broker.observe()
                best = min(best, time.perf_counter() - started)
            return best

        # The daemon's clock: it never advances, so nothing is pruned.
        fresh = hundred_observes(LocalResourceBroker("H0", "cpu", 1000.0, clock=lambda: 0.0))
        aged_broker = LocalResourceBroker("H1", "cpu", 1000.0, clock=lambda: 0.0)
        for _ in range(20_000):
            aged_broker.observe()
        assert hundred_observes(aged_broker) < 5 * fresh


def _tradeoff_sweep(rates):
    base = SimulationConfig(
        algorithm="tradeoff", seed=7, workload=WorkloadSpec(horizon=600.0)
    )
    # In-process on purpose: a monkeypatched alpha does not reach pool workers.
    results = sweep(base, "rate_per_60tu", rates, workload_field=True, workers=1)
    return [result.metrics for result in results]


class TestAlphaMovesNoResult:
    """§5's tradeoff planner branches on alpha >= 1.0: last-bit errors move runs."""

    def test_tradeoff_sweep_equals_the_resum_reference(self, monkeypatch):
        rates = (60, 120, 180, 240)
        got = _tradeoff_sweep(rates)
        self._patch_alpha(monkeypatch, ResumReference)
        assert got == _tradeoff_sweep(rates)

    def test_the_sweep_catches_a_float_running_sum(self, monkeypatch):
        # The shortcut this module must not take: sum += new; sum -= old.
        # It passed every other test once; if this stops failing, the
        # sweep above has lost its teeth and needs a sharper workload.
        class FloatRunningSum(ResumReference):
            def __init__(self, window: float = 3.0) -> None:
                super().__init__(window)
                self._sum = 0.0

            def alpha(self, now, available):
                cutoff = now - self.window
                while self._reports and self._reports[0][0] < cutoff:
                    self._sum -= self._reports.popleft()[1]
                if self._reports:
                    mean = self._sum / len(self._reports)
                    index = 1.0 if mean <= 0 else available / mean
                else:
                    index = 1.0
                self._sum += available
                self._reports.append((now, available))
                return index

        got = _tradeoff_sweep((180,))
        self._patch_alpha(monkeypatch, FloatRunningSum)
        assert got != _tradeoff_sweep((180,))

    @staticmethod
    def _patch_alpha(monkeypatch, implementation):
        """Route every AvailabilityHistory's alpha through ``implementation``."""
        shadows = {}

        def alpha(self, now, available):
            shadow = shadows.get(id(self))
            if shadow is None:
                shadow = shadows[id(self)] = (self, implementation(self.window))
            return shadow[1].alpha(now, available)

        monkeypatch.setattr(AvailabilityHistory, "alpha", alpha)


class TestChangeLog:
    def test_value_at_reconstructs_history(self):
        history = AvailabilityHistory()
        history.record_change(0.0, 100.0)
        history.record_change(5.0, 60.0)
        history.record_change(9.0, 80.0)
        assert history.value_at(0.0) == 100.0
        assert history.value_at(4.9) == 100.0
        assert history.value_at(5.0) == 60.0
        assert history.value_at(7.0) == 60.0
        assert history.value_at(100.0) == 80.0

    def test_value_before_first_record_clamps(self):
        history = AvailabilityHistory()
        history.record_change(5.0, 60.0)
        assert history.value_at(1.0) == 60.0

    def test_value_with_no_records(self):
        assert AvailabilityHistory().value_at(1.0) is None

    def test_same_time_overwrites(self):
        history = AvailabilityHistory()
        history.record_change(1.0, 50.0)
        history.record_change(1.0, 40.0)
        assert history.value_at(1.0) == 40.0
        assert len(history) == 1

    def test_out_of_order_rejected(self):
        history = AvailabilityHistory()
        history.record_change(5.0, 50.0)
        with pytest.raises(BrokerError):
            history.record_change(4.0, 60.0)
