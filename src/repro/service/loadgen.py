"""Open-loop load generator: WorkloadSpec arrivals as concurrent clients.

Replays the §5.1 Poisson arrival process against a live
:class:`~repro.service.daemon.ReservationDaemon`: every
:class:`~repro.sim.workload.SessionArrival` becomes one HTTP client that
fires its ``/v1/establish`` at ``arrival_time * time_scale`` seconds
after start *regardless of how earlier requests are doing* (open loop --
the daemon's queueing shows up as admission latency, exactly what a
closed loop would hide).  Admitted sessions hold their reservation for
a scaled duration and then tear down.

The run distils into a :class:`LoadReport`: throughput, admission-latency
percentiles and the admitted / rejected / error tallies.

Also runnable standalone against an already-running daemon::

    repro-serve --port 8787 &
    python -m repro.service.loadgen --port 8787 --rate 600 --horizon 30
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

from repro.des.rng import RandomStreams
from repro.obs import context as _context
from repro.obs import trace as _trace
from repro.obs.export import observability_to_dict
from repro.service.client import UNREACHABLE, ServiceClient, ServiceClientError
from repro.sim.workload import SessionArrival, WorkloadGenerator, WorkloadSpec

__all__ = ["LoadGenConfig", "LoadReport", "arrival_payload", "run_load", "main"]


def arrival_payload(arrival: SessionArrival) -> dict:
    """The wire form of one workload arrival.

    The daemon reconstructs a :class:`SessionArrival` from this payload
    and converts it with :meth:`SessionArrival.to_session_request` once
    the binding is known -- the two halves of the workload-to-protocol
    converter the load generator rides on.
    """
    return {
        "session_id": arrival.session_id,
        "service": arrival.service,
        "domain": arrival.domain,
        "demand_scale": arrival.demand_scale,
        "duration": arrival.duration,
        "arrival_time": arrival.arrival_time,
    }


@dataclass(frozen=True)
class LoadGenConfig:
    """One load run: the workload to replay and how fast to replay it."""

    #: The arrival process (TU-denominated, exactly as in simulation).
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(rate_per_60tu=600.0, horizon=30.0)
    )
    seed: int = 7
    #: Wall seconds per workload TU (0.01 = a 60 TU horizon in 0.6 s).
    time_scale: float = 0.01
    #: Hold admitted reservations for ``duration * time_scale`` wall
    #: seconds (capped) before tearing down; 0 tears down immediately.
    max_hold_seconds: float = 0.25
    #: Bind a fresh root trace context per arrival so every request
    #: carries ``traceparent`` headers, and record client-side spans
    #: into a run-local tracer; the run's :class:`LoadReport` then
    #: carries a schema-v4 trace document ready for ``repro-obs
    #: stitch`` against the daemon's flight dump.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale!r}")


@dataclass
class LoadReport:
    """What one open-loop run measured."""

    sessions: int
    admitted: int
    rejected: int
    errors: int
    torn_down: int
    wall_seconds: float
    latencies_ms: List[float]
    peak_inflight: int
    #: Raw sockets the client opened vs. requests served over a reused
    #: keep-alive connection (the satellite win this report evidences).
    connections_opened: int = 0
    connection_reuses: int = 0
    #: Client-side schema-v4 trace document (tracing runs only); written
    #: to its own file, never into :meth:`to_dict`.
    trace_document: Optional[dict] = None

    @property
    def throughput(self) -> float:
        """Completed admission decisions per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.admitted + self.rejected) / self.wall_seconds

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        import numpy as np

        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def to_dict(self) -> dict:
        """The report as the JSON document the CLI prints."""
        import numpy as np

        return {
            "sessions": self.sessions,
            "wall_seconds": self.wall_seconds,
            "throughput_per_wall_second": self.throughput,
            "admission_latency_p50_ms": self.percentile_ms(50),
            "admission_latency_p90_ms": self.percentile_ms(90),
            "admission_latency_p99_ms": self.percentile_ms(99),
            "admission_latency_max_ms": self.percentile_ms(100),
            "admission_latency_mean_ms": (
                float(np.mean(self.latencies_ms)) if self.latencies_ms else 0.0
            ),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "errors": self.errors,
            "torn_down": self.torn_down,
            "peak_inflight": self.peak_inflight,
            "connections_opened": self.connections_opened,
            "connection_reuses": self.connection_reuses,
        }


class _Tracker:
    """Shared counters across the open-loop client tasks."""

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0
        self.errors = 0
        self.torn_down = 0
        self.latencies_ms: List[float] = []
        self.inflight = 0
        self.peak_inflight = 0

    def enter(self) -> None:
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def leave(self) -> None:
        self.inflight -= 1


async def run_load(host: str, port: int, config: LoadGenConfig) -> LoadReport:
    """Replay the configured workload against a live daemon."""
    generator = WorkloadGenerator(config.workload, RandomStreams(config.seed))
    arrivals = list(generator.generate())
    client = ServiceClient(host, port)
    tracker = _Tracker()
    tracer = _trace.Tracer() if config.trace else None
    started = _time.perf_counter()
    # In-process runs (tests) have the daemon's flight tracer installed;
    # tracing() puts it back when we are done.
    with _trace.tracing(tracer) if tracer is not None else nullcontext():
        try:
            tasks = [
                asyncio.create_task(
                    _one_client(client, arrival, config, tracker, started)
                )
                for arrival in arrivals
            ]
            if tasks:
                await asyncio.gather(*tasks)
        finally:
            await client.aclose()
    wall = _time.perf_counter() - started
    trace_document = None
    if tracer is not None:
        trace_document = observability_to_dict(
            tracer,
            meta={
                "side": "client",
                "loadgen_seed": str(config.seed),
                "loadgen_sessions": str(len(arrivals)),
            },
        )
    return LoadReport(
        sessions=len(arrivals),
        admitted=tracker.admitted,
        rejected=tracker.rejected,
        errors=tracker.errors,
        torn_down=tracker.torn_down,
        wall_seconds=wall,
        latencies_ms=tracker.latencies_ms,
        peak_inflight=tracker.peak_inflight,
        connections_opened=client.connections_opened,
        connection_reuses=client.connections_reused,
        trace_document=trace_document,
    )


async def _one_client(
    client: ServiceClient,
    arrival: SessionArrival,
    config: LoadGenConfig,
    tracker: _Tracker,
    started: float,
) -> None:
    # Open loop: fire at the scheduled time, however earlier requests fare.
    due = arrival.arrival_time * config.time_scale
    delay = due - (_time.perf_counter() - started)
    if delay > 0:
        await asyncio.sleep(delay)
    tracker.enter()
    token = None
    if config.trace:
        # One root context per arrival: establish, hold and teardown all
        # share the trace id, so the stitched timeline covers the whole
        # session lifecycle.
        token = _context.bind_trace_context(
            _context.new_trace_context(request_id=arrival.session_id)
        )
    try:
        sent = _time.perf_counter()
        try:
            with _trace.span("loadgen.establish") as span:
                span.set(session=arrival.session_id, service=arrival.service)
                outcome = await client.establish(**arrival_payload(arrival))
        except (ServiceClientError,) + UNREACHABLE:
            tracker.errors += 1
            return
        tracker.latencies_ms.append((_time.perf_counter() - sent) * 1e3)
        if not outcome.get("success"):
            tracker.rejected += 1
            return
        tracker.admitted += 1
        await _hold_and_teardown(client, arrival, config, tracker)
    finally:
        if token is not None:
            _context.reset_trace_context(token)
        tracker.leave()


async def _hold_and_teardown(
    client: ServiceClient,
    arrival: SessionArrival,
    config: LoadGenConfig,
    tracker: _Tracker,
) -> None:
    hold = min(arrival.duration * config.time_scale, config.max_hold_seconds)
    if hold > 0:
        await asyncio.sleep(hold)
    try:
        await client.teardown(arrival.session_id)
        tracker.torn_down += 1
    except (ServiceClientError,) + UNREACHABLE:
        tracker.errors += 1


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.service.loadgen`` -- drive a running daemon."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--rate", type=float, default=600.0,
                        help="sessions per 60 TU (workload rate)")
    parser.add_argument("--horizon", type=float, default=30.0,
                        help="workload horizon in TU")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--time-scale", type=float, default=0.01,
                        help="wall seconds per workload TU")
    parser.add_argument("--max-hold", type=float, default=0.25,
                        help="cap on scaled reservation hold, seconds")
    parser.add_argument("--out", default=None,
                        help="write the report JSON here")
    parser.add_argument("--trace-json", default=None,
                        help="trace every request and write the client-side "
                             "trace document (schema v4) here; stitch it "
                             "against the daemon's flight dump with "
                             "'repro-obs stitch'")
    args = parser.parse_args(argv)

    config = LoadGenConfig(
        workload=WorkloadSpec(rate_per_60tu=args.rate, horizon=args.horizon),
        seed=args.seed,
        time_scale=args.time_scale,
        max_hold_seconds=args.max_hold,
        trace=args.trace_json is not None,
    )
    report = asyncio.run(run_load(args.host, args.port, config))
    document = report.to_dict()
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.trace_json and report.trace_document is not None:
        with open(args.trace_json, "w") as handle:
            json.dump(report.trace_document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(text)
    if report.errors:
        print(f"{report.errors} request error(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
