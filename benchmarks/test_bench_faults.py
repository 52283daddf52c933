"""Fault-tolerant protocol benchmarks.

Two claims are measured:

* the fault machinery is free when unused -- a zero-fault run through
  :class:`~repro.faults.FaultTolerantCoordinator` produces *identical*
  metrics to the plain coordinator (asserted);
* under a heavy composite fault level (f=0.15: drops + crashes + stale
  reports) the protocol degrades gracefully rather than collapsing --
  success stays above half the fault-free rate, every injected fault is
  accounted, and no capacity leaks (asserted inside the run itself).

Every count of the seeded runs is asserted exactly as well.
"""

from conftest import bench_config
from repro.faults import FaultConfig
from repro.sim import run_simulation

BENCH_RATE = 120.0
FAULT_LEVEL = 0.15


def test_bench_fault_tolerance(benchmark):
    plain = run_simulation(bench_config("tradeoff", BENCH_RATE))
    zero = run_simulation(bench_config("tradeoff", BENCH_RATE, faults=FaultConfig()))
    # The byte-identity contract, at benchmark scale.
    assert zero.metrics == plain.metrics
    assert zero.paths == plain.paths
    assert zero.fault_stats == {"orphans_reaped": 0}

    faulty_config = bench_config(
        "tradeoff",
        BENCH_RATE,
        faults=FaultConfig(
            drop_rate=FAULT_LEVEL, crash_rate=FAULT_LEVEL, stale_rate=FAULT_LEVEL
        ),
    )
    faulty = benchmark.pedantic(
        lambda: run_simulation(faulty_config), rounds=1, iterations=1
    )

    injected = sum(
        count for kind, count in faulty.fault_stats.items() if kind != "orphans_reaped"
    )
    survival = faulty.success_rate / plain.success_rate
    benchmark.extra_info["injected"] = injected
    benchmark.extra_info["survival"] = survival
    assert faulty.metrics.attempts == 1209
    assert (plain.metrics.successes, zero.metrics.successes) == (1014, 1014)
    assert faulty.metrics.successes == 845
    assert injected == 2909
    assert faulty.fault_stats.get("orphans_reaped", 0) == 75
    assert injected > 0
    assert survival >= 0.5, (
        f"success collapsed under f={FAULT_LEVEL}: "
        f"{faulty.success_rate:.3f} vs fault-free {plain.success_rate:.3f}"
    )
