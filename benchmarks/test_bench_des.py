"""DES substrate benchmarks: event throughput and broker operations.

The evaluation's biggest runs schedule hundreds of thousands of events
(43k sessions x arrival/departure/bookkeeping); these benchmarks keep
the kernel's cost visible.
"""

import pytest

from repro.brokers import LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.des import Environment


def test_bench_timeout_churn(benchmark):
    """Schedule-and-run 10k timeouts through the event loop."""

    def churn():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ticker(env, 1000))
        env.run()
        return env.now

    now = benchmark(churn)
    assert now == 1000.0


def test_bench_process_spawning(benchmark):
    """Spawn 5k short-lived processes (one session each)."""

    def spawn_wave():
        env = Environment()

        def session(env):
            yield env.timeout(5.0)
            return 1

        def arrivals(env):
            for _ in range(5000):
                env.process(session(env))
                yield env.timeout(0.01)

        env.process(arrivals(env))
        env.run()
        return env.now

    benchmark(spawn_wave)


def test_bench_broker_reserve_release(benchmark):
    """Raw admission-control throughput of a local broker."""
    broker = LocalResourceBroker("H1", "cpu", 1e9)

    def cycle():
        held = [broker.reserve(10.0, "s") for _ in range(200)]
        for reservation in held:
            broker.release(reservation)

    benchmark(cycle)
    assert broker.outstanding() == 0


def test_bench_path_broker_transaction(benchmark):
    """Two-level reservation across a 3-hop route."""
    links = [LinkBandwidthBroker(f"L{i}", f"N{i}", f"N{i+1}", 1e9) for i in range(3)]
    path = PathBroker("net:bench", links)

    def cycle():
        held = [path.reserve(5.0, "s") for _ in range(100)]
        for reservation in held:
            path.release(reservation)

    benchmark(cycle)
    assert all(link.outstanding() == 0 for link in links)
