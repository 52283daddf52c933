"""Service daemon load benchmark: open-loop admissions over real sockets.

Boots a :class:`~repro.service.daemon.ReservationDaemon` on an ephemeral
port and replays a seeded §5.1 workload against it with the open-loop
generator -- every arrival is its own concurrent HTTP client, so the
run's peak in-flight count is well past the 16-concurrent-client floor
the acceptance criteria pin.  Throughput and admission-latency
percentiles are recorded; the seeded session count is asserted exactly.

Admission/rejection tallies depend on completion interleaving (a torn-
down session frees capacity for whoever arrives next), so they are
recorded, never pinned.
"""

import asyncio

from repro.service import DaemonConfig, ReservationDaemon
from repro.service.loadgen import LoadGenConfig, run_load
from repro.sim.workload import WorkloadSpec

DAEMON_SEED = 11
LOAD_SEED = 7
#: ~188 arrivals squeezed into ~1 wall second: mean spacing 0.25 ms
#: against ~1 ms serialized admissions guarantees deep concurrency.
LOAD = LoadGenConfig(
    workload=WorkloadSpec(rate_per_60tu=1200.0, horizon=10.0),
    seed=LOAD_SEED,
    time_scale=0.005,
    max_hold_seconds=0.2,
)
MIN_CONCURRENT_CLIENTS = 16


async def _run_once():
    daemon = ReservationDaemon(DaemonConfig(port=0, seed=DAEMON_SEED))
    await daemon.start()
    try:
        return await run_load("127.0.0.1", daemon.port, LOAD)
    finally:
        await daemon.shutdown()


def test_bench_service_load(benchmark):
    """Throughput + admission latency under deep open-loop concurrency."""
    report = benchmark.pedantic(
        lambda: asyncio.run(_run_once()), rounds=1, iterations=1
    )

    assert report.errors == 0
    assert report.peak_inflight >= MIN_CONCURRENT_CLIENTS
    assert report.admitted + report.rejected == report.sessions
    assert report.torn_down == report.admitted
    assert report.throughput > 0

    assert report.sessions == 188
    benchmark.extra_info.update(report.to_dict())
