"""Integration tests: full (small) simulation runs and their invariants."""

import math

import pytest

from repro.core.errors import ModelError
from repro.sim import SimulationConfig, WorkloadSpec, run_simulation
from repro.sim.experiment import rate_sweep, sweep


def quick_config(**kw):
    defaults = dict(
        seed=1,
        workload=WorkloadSpec(rate_per_60tu=100, horizon=500),
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestRunSimulation:
    def test_basic_run_completes(self):
        result = run_simulation(quick_config())
        assert result.metrics.attempts > 300
        assert 0.5 < result.success_rate <= 1.0
        assert 1.0 <= result.avg_qos_level <= 3.0
        assert result.wall_seconds > 0

    def test_deterministic_given_seed(self):
        a = run_simulation(quick_config())
        b = run_simulation(quick_config())
        assert a.metrics.attempts == b.metrics.attempts
        assert a.success_rate == b.success_rate
        assert a.avg_qos_level == b.avg_qos_level

    def test_different_seeds_differ(self):
        a = run_simulation(quick_config(seed=1))
        b = run_simulation(quick_config(seed=2))
        assert (a.metrics.attempts, a.success_rate) != (b.metrics.attempts, b.success_rate)

    def test_all_algorithms_run(self):
        for algorithm in ("basic", "tradeoff", "random"):
            result = run_simulation(quick_config(algorithm=algorithm))
            assert result.metrics.attempts > 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(Exception):
            quick_config(algorithm="mystery")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(staleness=math.nan),
            dict(staleness=math.inf),
            dict(trend_window=math.nan),
            dict(capacity_range=(1000.0, math.inf)),
            dict(diversity_ratio=math.inf),
            dict(seed=1.5),
            dict(seed=True),
        ],
    )
    def test_non_finite_numbers_and_non_int_counts_are_refused(self, bad):
        with pytest.raises(ModelError):
            SimulationConfig(**bad)

    def test_class_rows_cover_all_sessions(self):
        result = run_simulation(quick_config())
        total = sum(n for _name, _sr, _qos, n in result.metrics.class_rows)
        assert total == result.metrics.attempts

    def test_staleness_reduces_success(self):
        accurate = run_simulation(quick_config(workload=WorkloadSpec(rate_per_60tu=200, horizon=600)))
        stale = run_simulation(
            quick_config(staleness=8.0, workload=WorkloadSpec(rate_per_60tu=200, horizon=600))
        )
        assert stale.success_rate <= accurate.success_rate
        assert "admission_failed" in stale.metrics.failure_reasons

    def test_accurate_runs_never_fail_admission(self):
        """With atomic establishment and accurate observations, a computed
        plan always reserves successfully (the paper's base assumption)."""
        result = run_simulation(quick_config())
        assert "admission_failed" not in result.metrics.failure_reasons

    def test_diversity_compression_runs(self):
        result = run_simulation(quick_config(diversity_ratio=3.0))
        assert result.metrics.attempts > 0

    def test_contention_index_variants_run(self):
        for index in ("headroom", "log"):
            result = run_simulation(quick_config(contention_index=index))
            assert result.metrics.attempts > 0

    def test_keep_outcomes(self):
        config = quick_config(keep_outcomes=True)
        result = run_simulation(config)
        assert result.config.keep_outcomes


class TestPaperShape:
    """The headline qualitative claims of §5, at reduced scale."""

    def test_basic_beats_random_under_contention(self):
        spec = WorkloadSpec(rate_per_60tu=200, horizon=800)
        basic = run_simulation(SimulationConfig(algorithm="basic", seed=3, workload=spec))
        random_ = run_simulation(SimulationConfig(algorithm="random", seed=3, workload=spec))
        assert basic.success_rate > random_.success_rate

    def test_tradeoff_beats_basic_in_success_but_not_qos(self):
        spec = WorkloadSpec(rate_per_60tu=200, horizon=800)
        basic = run_simulation(SimulationConfig(algorithm="basic", seed=3, workload=spec))
        tradeoff = run_simulation(SimulationConfig(algorithm="tradeoff", seed=3, workload=spec))
        assert tradeoff.success_rate >= basic.success_rate
        assert tradeoff.avg_qos_level < basic.avg_qos_level

    def test_basic_and_random_stay_near_top_qos(self):
        spec = WorkloadSpec(rate_per_60tu=150, horizon=600)
        for algorithm in ("basic", "random"):
            result = run_simulation(SimulationConfig(algorithm=algorithm, seed=4, workload=spec))
            assert result.avg_qos_level > 2.8

    def test_fat_sessions_fare_worse_than_normal(self):
        result = run_simulation(
            SimulationConfig(
                algorithm="basic", seed=5, workload=WorkloadSpec(rate_per_60tu=220, horizon=800)
            )
        )
        rows = {name: sr for name, sr, _qos, _n in result.metrics.class_rows}
        assert rows["fat-short"] < rows["norm.-short"]
        assert rows["fat-long"] < rows["norm.-long"]

    def test_multiple_paths_selected(self):
        result = run_simulation(quick_config(workload=WorkloadSpec(rate_per_60tu=150, horizon=800)))
        assert len(result.paths.percentages("A")) >= 3
        assert len(result.paths.percentages("B")) >= 3


class TestSweeps:
    def test_sweep_over_workload_field(self):
        base = quick_config(workload=WorkloadSpec(rate_per_60tu=60, horizon=300))
        results = sweep(base, "rate_per_60tu", [60, 120], workload_field=True)
        assert len(results) == 2
        assert results[0].config.workload.rate_per_60tu == 60
        assert results[1].config.workload.rate_per_60tu == 120

    def test_sweep_over_config_field(self):
        base = quick_config(workload=WorkloadSpec(rate_per_60tu=100, horizon=300))
        results = sweep(base, "staleness", [0.0, 4.0])
        assert [r.config.staleness for r in results] == [0.0, 4.0]

    def test_rate_sweep_shape(self):
        base = quick_config(workload=WorkloadSpec(rate_per_60tu=60, horizon=300))
        table = rate_sweep(["basic", "random"], [60, 120], base=base)
        assert set(table) == {"basic", "random"}
        assert all(len(runs) == 2 for runs in table.values())


class TestMidRunInvariants:
    def test_accounting_holds_throughout_a_run(self):
        """Poll every broker during a contended run: reserved never
        exceeds capacity and availability is never negative."""
        from repro.des import Environment, RandomStreams
        from repro.core.planner import BasicPlanner
        from repro.runtime.session import ServiceSession
        from repro.sim.environment import GridEnvironment
        from repro.sim.workload import WorkloadGenerator, WorkloadSpec

        env = Environment()
        streams = RandomStreams(11)
        grid = GridEnvironment(env, streams)
        planner = BasicPlanner()
        spec = WorkloadSpec(rate_per_60tu=220, horizon=300)
        generator = WorkloadGenerator(spec, streams)
        violations = []

        def arrivals():
            for request in generator.generate():
                if request.arrival_time > env.now:
                    yield env.timeout(request.arrival_time - env.now)
                session = ServiceSession(
                    env, grid.coordinator, request.session_id, request.service,
                    grid.binding_for(request.service, request.domain),
                    planner, request.duration, demand_scale=request.demand_scale,
                )
                env.process(session.run())

        def watchdog():
            while env.peek() != float("inf"):
                for broker in grid.registry.brokers():
                    if broker.available < -1e-6:
                        violations.append((env.now, broker.resource_id, "negative"))
                    if broker.reserved > broker.capacity + 1e-6:
                        violations.append((env.now, broker.resource_id, "over"))
                yield env.timeout(7.0)

        env.process(arrivals())
        env.process(watchdog())
        env.run()
        assert violations == []
        grid.registry.assert_quiescent()
