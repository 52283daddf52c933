"""Cluster scale benchmark: 1-shard vs 3-shard admission throughput.

Boots real ``repro-serve`` shard daemons as subprocesses (each owning
its ShardMap slice of the same-seed grid), fronts them with an
in-process :class:`~repro.cluster.router.ClusterDaemon`, and replays
the same seeded open-loop workload through the router in both shapes:

* **one shard** -- the router forwards verbatim (the byte-identity
  path), so this measures the cost of the extra network hop;
* **three shards** -- every admission plans against a merged
  availability snapshot and commits two-phase across the involved
  shards, so this measures the full cross-shard protocol.

Both shapes' throughput and latency percentiles are recorded; the
seeded session count is asserted exactly.  The wall ratio documents
the 2PC overhead; nothing holds it to a bound.
"""

import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterDaemon
from repro.service.loadgen import LoadGenConfig, run_load
from repro.sim.workload import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 11
LOAD = LoadGenConfig(
    workload=WorkloadSpec(rate_per_60tu=900.0, horizon=8.0),
    seed=7,
    time_scale=0.005,
    max_hold_seconds=0.2,
)
_BOOT = re.compile(r"repro-serve: listening on [^:]+:(\d+) ")


def _spawn_shard(index: int, count: int) -> subprocess.Popen:
    argv = [
        sys.executable, "-m", "repro.service.cli",
        "--port", "0", "--seed", str(SEED),
    ]
    if count > 1:
        argv += ["--shard-index", str(index), "--shard-count", str(count)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        argv,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _port_of(process: subprocess.Popen) -> int:
    line = process.stdout.readline()
    match = _BOOT.search(line)
    assert match, f"no boot line from shard daemon: {line!r}"
    return int(match.group(1))


async def _run_cluster(shard_count: int):
    processes = [_spawn_shard(i, shard_count) for i in range(shard_count)]
    try:
        addresses = tuple(("127.0.0.1", _port_of(p)) for p in processes)
        router = ClusterDaemon(
            ClusterConfig(shards=addresses, port=0, seed=SEED)
        )
        await router.start()
        try:
            return await run_load("127.0.0.1", router.port, LOAD)
        finally:
            await router.shutdown()
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.wait(timeout=10)


def test_bench_cluster_scale(benchmark):
    """One seeded burst through a 1-shard and a 3-shard cluster."""

    def run_both():
        one = asyncio.run(_run_cluster(1))
        three = asyncio.run(_run_cluster(3))
        return one, three

    one, three = benchmark.pedantic(run_both, rounds=1, iterations=1)

    assert one.errors == 0
    assert three.errors == 0
    # The workload is seeded, so both shapes see the identical arrivals.
    assert one.sessions == three.sessions
    assert one.admitted + one.rejected == one.sessions
    assert three.admitted + three.rejected == three.sessions
    assert one.throughput > 0 and three.throughput > 0
    assert one.sessions == 118

    benchmark.extra_info.update({
        "sessions": one.sessions,
        "one_shard_wall_seconds": one.wall_seconds,
        "one_shard_throughput_per_wall_second": one.throughput,
        "one_shard_latency_p50_ms": one.percentile_ms(50),
        "one_shard_latency_p99_ms": one.percentile_ms(99),
        "three_shard_wall_seconds": three.wall_seconds,
        "three_shard_throughput_per_wall_second": three.throughput,
        "three_shard_latency_p50_ms": three.percentile_ms(50),
        "three_shard_latency_p99_ms": three.percentile_ms(99),
        "cross_shard_overhead_wall_ratio": (
            three.wall_seconds / one.wall_seconds if one.wall_seconds else 0.0
        ),
        "one_shard_admitted": one.admitted,
        "one_shard_rejected": one.rejected,
        "three_shard_admitted": three.admitted,
        "three_shard_rejected": three.rejected,
        "one_shard_connection_reuses": one.connection_reuses,
        "three_shard_connection_reuses": three.connection_reuses,
    })
