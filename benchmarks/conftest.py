"""Shared benchmark helpers.

Benchmarks run the paper's experiments at reduced scale (shorter
horizons, fewer sweep points) so the whole suite completes in a couple
of minutes; the full-scale reproduction is ``repro-reproduce`` (see
EXPERIMENTS.md).  Every benchmark stores the artifact's headline numbers
in ``benchmark.extra_info`` so the saved benchmark JSON doubles as a
record of the reproduced shapes.  What a seeded run reproduces exactly
(session, event and cache-hit counts) a benchmark asserts as a literal;
a wall-clock reading is held only to the bound its claim states.
"""

from __future__ import annotations

import pytest

from repro.sim import SimulationConfig, WorkloadSpec, run_simulation

#: Reduced-scale defaults shared by the artifact benchmarks.
BENCH_HORIZON = 600.0
BENCH_SEED = 7


def bench_config(algorithm: str = "basic", rate: float = 180.0, **kw) -> SimulationConfig:
    workload = kw.pop("workload", None)
    if workload is None:
        workload = WorkloadSpec(rate_per_60tu=rate, horizon=kw.pop("horizon", BENCH_HORIZON))
    return SimulationConfig(algorithm=algorithm, seed=BENCH_SEED, workload=workload, **kw)


def run_all_algorithms(rate: float, horizon: float = BENCH_HORIZON, **kw):
    return {
        algorithm: run_simulation(bench_config(algorithm, rate, horizon=horizon, **kw))
        for algorithm in ("random", "basic", "tradeoff")
    }


def pytest_collection_modifyitems(items) -> None:
    """Every case in this directory is a benchmark: tag it ``bench``.

    Lets the tier-1 suite and quick iteration deselect the whole
    directory with ``-m "not bench"`` without per-test decoration.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)
