"""Tests for the §5.1 workload generator."""

import numpy as np
import pytest

from repro.des import RandomStreams
from repro.sim.workload import (
    PopularityDrift,
    SessionArrival,
    SessionClassifier,
    WorkloadGenerator,
    WorkloadSpec,
)


def take(generator, n=None):
    requests = list(generator.generate())
    return requests if n is None else requests[:n]


class TestSpecValidation:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec()
        assert spec.horizon == 10800.0
        assert spec.p_normal == pytest.approx(1 / 3)  # normal:fat = 1:2
        assert spec.p_short == pytest.approx(2 / 3)  # long:short = 1:2
        assert spec.fat_factors == (2.0, 10.0)
        assert spec.short_range == (20.0, 60.0)
        assert spec.long_range == (60.0, 600.0)

    def test_rate_positive(self):
        with pytest.raises(Exception):
            WorkloadSpec(rate_per_60tu=0)

    def test_fat_factors_exceed_one(self):
        with pytest.raises(Exception):
            WorkloadSpec(fat_factors=(1.0,), fat_weights=(1.0,))

    def test_weights_length_checked(self):
        with pytest.raises(Exception):
            WorkloadSpec(fat_factors=(2.0,), fat_weights=(0.5, 0.5))

    def test_mean_interarrival(self):
        assert WorkloadSpec(rate_per_60tu=120).mean_interarrival == 0.5


class TestGeneration:
    def spec(self, **kw):
        return WorkloadSpec(rate_per_60tu=600, horizon=600, **kw)

    def test_deterministic_given_seed(self):
        a = take(WorkloadGenerator(self.spec(), RandomStreams(5)))
        b = take(WorkloadGenerator(self.spec(), RandomStreams(5)))
        assert [(r.arrival_time, r.service, r.domain) for r in a] == [
            (r.arrival_time, r.service, r.domain) for r in b
        ]

    def test_arrivals_ordered_and_within_horizon(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(1)))
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0 < t < 600 for t in times)

    def test_rate_is_approximately_right(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(2)))
        # 600 sessions per 60 TU over 600 TU ~ 6000 sessions
        assert 5400 <= len(requests) <= 6600

    def test_durations_within_paper_range(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(3)))
        assert all(20.0 <= r.duration <= 600.0 for r in requests)

    def test_long_short_ratio(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(4)))
        long_fraction = np.mean([r.long for r in requests])
        assert long_fraction == pytest.approx(1 / 3, abs=0.03)

    def test_normal_fat_ratio(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(5)))
        fat_fraction = np.mean([r.fat for r in requests])
        assert fat_fraction == pytest.approx(2 / 3, abs=0.03)
        scales = {r.demand_scale for r in requests}
        assert scales == {1.0, 2.0, 10.0}

    def test_excluded_service_rule(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(6)))
        for r in requests:
            domain_index = int(r.domain[1:])
            excluded = f"S{(domain_index + 1) // 2}"
            assert r.service != excluded, r

    def test_domains_roughly_uniform(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(7)))
        counts = {d: 0 for d in self.spec().domains}
        for r in requests:
            counts[r.domain] += 1
        expected = len(requests) / 8
        for domain, count in counts.items():
            assert abs(count - expected) < 0.25 * expected, (domain, count)

    def test_custom_exclusion_map(self):
        generator = WorkloadGenerator(
            self.spec(), RandomStreams(8), excluded_service={"D1": "S3"}
        )
        requests = [r for r in take(generator) if r.domain == "D1"]
        assert requests
        assert all(r.service != "S3" for r in requests)

    def test_session_ids_unique(self):
        requests = take(WorkloadGenerator(self.spec(), RandomStreams(9)))
        ids = [r.session_id for r in requests]
        assert len(set(ids)) == len(ids)


class TestPopularityDrift:
    def test_weights_sum_to_one(self):
        drift = PopularityDrift(["S1", "S2", "S3"], np.random.default_rng(0), period=100.0)
        weights = drift.weights_at(50.0)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_piecewise_constant(self):
        drift = PopularityDrift(["S1", "S2"], np.random.default_rng(0), period=100.0)
        assert drift.weights_at(10.0) == drift.weights_at(99.0)
        assert drift.weights_at(10.0) != drift.weights_at(150.0)

    def test_query_pattern_independence(self):
        a = PopularityDrift(["S1", "S2"], np.random.default_rng(3), period=100.0)
        b = PopularityDrift(["S1", "S2"], np.random.default_rng(3), period=100.0)
        # a queried in order, b queried out of order: same interval values
        a0, a3 = a.weights_at(0.0), a.weights_at(350.0)
        b3, b0 = b.weights_at(350.0), b.weights_at(0.0)
        assert a0 == b0 and a3 == b3

    def test_period_validated(self):
        with pytest.raises(Exception):
            PopularityDrift(["S1"], np.random.default_rng(0), period=0.0)


class TestClassifier:
    def test_class_names(self):
        assert SessionClassifier.classify(False, False) == "norm.-short"
        assert SessionClassifier.classify(False, True) == "norm.-long"
        assert SessionClassifier.classify(True, False) == "fat-short"
        assert SessionClassifier.classify(True, True) == "fat-long"
        assert len(SessionClassifier.CLASSES) == 4


class TestSessionArrival:
    """The renamed workload-side record and its protocol converter."""

    def make(self, **overrides):
        fields = dict(
            session_id="sess-1",
            arrival_time=0.0,
            domain="D1",
            service="S2",
            demand_scale=1.0,
            duration=30.0,
        )
        fields.update(overrides)
        return SessionArrival(**fields)

    def test_duration_boundary_matches_classifier(self):
        # long_range includes its lower bound, so a draw of exactly 60.0
        # is a *long* session; the old `duration > 60.0` check disagreed
        # with SessionClassifier and miscounted boundary draws.
        assert not self.make(duration=59.999).long
        assert self.make(duration=60.0).long
        assert self.make(duration=60.001).long
        boundary = SessionClassifier.LONG_BOUNDARY
        assert self.make(duration=boundary).long == SessionClassifier.is_long(boundary)
        assert self.make(duration=60.0).session_class == "norm.-long"
        assert self.make(duration=60.0, demand_scale=2.0).session_class == "fat-long"

    def test_generated_arrivals_agree_with_classifier(self):
        generator = WorkloadGenerator(
            WorkloadSpec(rate_per_60tu=240.0, horizon=120.0), RandomStreams(5)
        )
        for arrival in generator.generate():
            assert arrival.long == SessionClassifier.is_long(arrival.duration)
            assert arrival.session_class in SessionClassifier.CLASSES

    def test_to_session_request_converter(self):
        from repro.runtime.messages import SessionRequest as ProtocolRequest

        arrival = self.make(demand_scale=2.0)
        binding = object()
        hosts = {"cS": "H1", "cP": "H2", "cC": "D1"}
        request = arrival.to_session_request(
            binding, component_hosts=hosts, source_label="D1"
        )
        assert isinstance(request, ProtocolRequest)
        assert request.session_id == arrival.session_id
        assert request.service_name == arrival.service
        assert request.binding is binding
        assert request.component_hosts == hosts
        assert request.source_label == "D1"
        assert request.demand_scale == 2.0
