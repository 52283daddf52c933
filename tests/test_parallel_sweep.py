"""Batch execution: byte-identical results for every worker count.

The contract under test: :func:`run_configs` produces exactly the same
metrics on a process pool as in-process (runs are pure functions of
their configs), its results are always detached and picklable (live
observations become summaries in whichever process ran the config), the
worker count is ``workers=`` or ``REPRO_SWEEP_WORKERS`` clamped to the
batch and the schedulable CPUs, and at most one
:class:`ObservationSession` may be live per process.
"""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.sim.experiment as experiment
from repro.analysis import reproduce
from repro.analysis.experiments import ExperimentReport
from repro.obs import (
    ObservabilityConfig,
    ObservabilityError,
    ObservationSession,
    active_observation_session,
    reset_worker_observability,
)
from repro.core import ALGORITHMS
from repro.sim.experiment import (
    WORKERS_ENV,
    SimulationConfig,
    derive_run_seed,
    effective_workers,
    rate_sweep,
    run_configs,
    run_simulation,
    sweep,
)
from repro.sim.workload import WorkloadSpec

BASE = SimulationConfig(workload=WorkloadSpec(horizon=250.0))
RATES = [60.0, 150.0]


@pytest.fixture
def two_cpus(monkeypatch):
    """A real 2-process pool even on a 1-CPU box: the byte-identity
    contract across the process boundary is what these tests pin."""
    monkeypatch.setattr(experiment, "_available_cpus", lambda: 2)


@pytest.fixture
def pools(monkeypatch):
    """Every pool :func:`run_configs` builds, as ``(max_workers, chunksize)``."""
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            self.size = max_workers
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            built.append((self.size, chunksize))
            return super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    return built


class TestDeterminism:
    def test_parallel_rate_sweep_matches_serial_for_every_planner(self, two_cpus):
        serial = rate_sweep(ALGORITHMS, RATES, base=BASE, workers=1)
        parallel = rate_sweep(ALGORITHMS, RATES, base=BASE, workers=2)
        assert set(serial) == set(ALGORITHMS) == set(parallel)
        for algorithm in ALGORITHMS:
            assert len(parallel[algorithm]) == len(RATES)
            for s, p in zip(serial[algorithm], parallel[algorithm]):
                assert p.config == s.config
                assert p.metrics == s.metrics
                assert p.paths == s.paths

    def test_parallel_sweep_matches_serial(self, two_cpus, pools):
        serial = sweep(BASE, "staleness", [0.0, 2.0], workers=1)
        parallel = sweep(BASE, "staleness", [0.0, 2.0], workers=2)
        assert pools == [(2, 1)]
        for s, p in zip(serial, parallel):
            assert p.metrics == s.metrics

    @pytest.mark.parametrize("chunk_size", [1, 5])
    def test_chunked_dispatch_matches_serial(self, chunk_size, two_cpus, pools):
        # The chunk size is derived (~4 chunks per worker, never below
        # 1), so the batch is sized to produce the one under test.
        tiny = SimulationConfig(workload=WorkloadSpec(horizon=40.0))
        seeds = list(range(chunk_size * 2 * 4))
        serial = sweep(tiny, "seed", seeds, workers=1)
        parallel = sweep(tiny, "seed", seeds, workers=2)
        assert pools == [(2, chunk_size)]
        for s, p in zip(serial, parallel):
            assert p.metrics == s.metrics

    def test_single_worker_pool_runs_inline_and_detached(self):
        results = run_configs([BASE], workers=1)
        assert len(results) == 1
        assert results[0].observation is None

    def test_derived_seeds_are_deterministic_and_distinct(self):
        first = [derive_run_seed(7, i) for i in range(8)]
        second = [derive_run_seed(7, i) for i in range(8)]
        assert first == second
        assert len(set(first)) == len(first)
        assert first != [derive_run_seed(8, i) for i in range(8)]


class TestWorkerEdgeCases:
    """Worker-count edge cases: no pool when a pool cannot help."""

    def _poison_pool(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("ProcessPoolExecutor constructed")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", boom)

    def test_workers_1_delegates_to_serial_without_a_pool(self, monkeypatch, two_cpus):
        self._poison_pool(monkeypatch)
        direct = [run_simulation(config) for config in (BASE, BASE.with_(seed=9))]
        inline = run_configs([BASE, BASE.with_(seed=9)], workers=1)
        for s, p in zip(direct, inline):
            assert p.metrics == s.metrics
            # Inline execution still detaches observations, exactly like
            # a worker would, so the result shape is count-independent.
            assert p.observation is None

    def test_single_config_never_constructs_a_pool(self, monkeypatch):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: 8)
        self._poison_pool(monkeypatch)
        [result] = run_configs([BASE], workers=8)
        assert result.metrics == run_simulation(BASE).metrics

    def test_workers_clamp_to_batch_size(self, monkeypatch):
        monkeypatch.setattr(experiment, "_available_cpus", lambda: 100)
        assert effective_workers(3, 100) == 3
        assert effective_workers(1, 100) == 1
        assert effective_workers(0, 100) == 0

    def test_workers_clamp_to_available_cpus(self, monkeypatch, pools):
        cpus = experiment._available_cpus()
        assert effective_workers(cpus + 64, cpus + 64) == cpus
        # ...and nothing opts out: on one schedulable CPU no pool is built
        monkeypatch.setattr(experiment, "_available_cpus", lambda: 1)
        run_configs([BASE, BASE.with_(seed=9)], workers=2)
        assert pools == []

    def test_default_workers_follow_cpu_count(self, monkeypatch):
        # a default (environment) count beyond the CPUs follows the CPUs
        monkeypatch.setenv(WORKERS_ENV, "1000")
        assert effective_workers(1000) == experiment._available_cpus()


class TestRunnerSelection:
    """``workers=None`` reads ``REPRO_SWEEP_WORKERS``; unset means 1."""

    def test_default_is_serial(self, monkeypatch, two_cpus, pools):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert effective_workers(12) == 1
        run_configs([BASE, BASE.with_(seed=9)])
        assert pools == []

    def test_env_var_turns_sweeps_parallel(self, monkeypatch, two_cpus, pools):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert effective_workers(12) == 2
        run_configs([BASE, BASE.with_(seed=9)])
        assert pools == [(2, 1)]
        # an explicit count wins over the environment
        run_configs([BASE, BASE.with_(seed=9)], workers=1)
        assert pools == [(2, 1)]

    def test_reproduce_workers_flag_is_the_env_var(
        self, monkeypatch, two_cpus, pools, capsys
    ):
        """``--workers 2`` and ``REPRO_SWEEP_WORKERS=2`` are one default:
        same pool, same report, ``os.environ`` left as found."""

        def tiny(seed, quick):
            results = run_configs([BASE.with_(seed=seed), BASE.with_(seed=seed + 1)])
            return ExperimentReport("tiny", str([r.metrics for r in results]))

        monkeypatch.setitem(reproduce.EXPERIMENTS, "tiny", tiny)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        found = dict(os.environ)
        assert reproduce.main(["-e", "tiny", "--workers", "2"]) == 0
        assert dict(os.environ) == found
        by_flag = capsys.readouterr().out

        monkeypatch.setenv(WORKERS_ENV, "2")
        assert reproduce.main(["-e", "tiny"]) == 0
        assert capsys.readouterr().out == by_flag
        assert pools == [(2, 1), (2, 1)]

        # an inherited value is overridden for the call and then restored
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert reproduce.main(["-e", "tiny", "--workers", "2"]) == 0
        assert os.environ[WORKERS_ENV] == "1"
        assert pools == [(2, 1)] * 3


class TestDetachedResults:
    def test_observed_parallel_run_ships_summary_not_live_session(
        self, tmp_path, two_cpus, pools
    ):
        obs = ObservabilityConfig(trace_path=str(tmp_path / "trace.json"))
        configs = [
            BASE.with_(algorithm=algorithm, observability=obs)
            for algorithm in ("basic", "random")
        ]
        results = run_configs(configs, workers=2)
        assert pools == [(2, 1)]
        for result in results:
            assert result.observation is None
            summary = result.observation_summary
            assert summary is not None
            assert summary.span_count("establish") == summary.counter_total(
                "coordinator.establish"
            )
            assert summary.span_count("phase2_plan") == summary.span_count("establish") > 0
            pickle.loads(pickle.dumps(result))
        # Each run exported to its own file instead of overwriting.
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["trace.run000.json", "trace.run001.json"]

    def test_serial_batch_derives_the_same_export_paths(self, tmp_path):
        obs = ObservabilityConfig(summary_path=str(tmp_path / "summary.txt"))
        configs = [
            BASE.with_(algorithm=algorithm, observability=obs)
            for algorithm in ("basic", "random")
        ]
        run_configs(configs, workers=1)
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["summary.run000.txt", "summary.run001.txt"]

    def test_detached_summary_matches_live_observation(self):
        config = BASE.with_(observability=ObservabilityConfig())
        live = run_simulation(config)
        [detached] = run_configs([config], workers=1)
        assert live.observation is not None
        expected = live.observation.summarize()
        assert detached.observation_summary.span_totals.keys() == expected.span_totals.keys()
        for name in expected.span_totals:
            assert detached.observation_summary.span_count(name) == expected.span_count(name)

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_results_are_detached_for_every_worker_count(
        self, workers, monkeypatch, two_cpus
    ):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        observed = BASE.with_(observability=ObservabilityConfig())
        results = run_configs([observed, BASE], workers=workers)
        assert [r.observation for r in results] == [None, None]
        assert results[0].observation_summary is not None
        assert results[1].observation_summary is None

    def test_unobserved_result_is_picklable(self):
        [result] = run_configs([BASE], workers=1)
        pickle.loads(pickle.dumps(result))


class TestObservationExclusivity:
    def test_nested_sessions_raise(self):
        with ObservationSession():
            with pytest.raises(ObservabilityError, match="already active"):
                with ObservationSession():
                    pass

    def test_session_registers_and_clears_active_marker(self):
        assert active_observation_session() is None
        with ObservationSession() as session:
            assert active_observation_session() is session
        assert active_observation_session() is None

    def test_failed_activation_leaves_first_session_usable(self):
        with ObservationSession() as outer:
            with pytest.raises(ObservabilityError):
                ObservationSession().__enter__()
            assert active_observation_session() is outer
        assert active_observation_session() is None

    def test_reset_worker_observability_clears_inherited_state(self):
        session = ObservationSession()
        session.__enter__()
        try:
            # Simulate what a forked pool worker inherits, then reset.
            reset_worker_observability()
            assert active_observation_session() is None
            with ObservationSession():
                pass
        finally:
            reset_worker_observability()
