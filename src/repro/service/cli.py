"""``repro-serve``: run the reservation daemon until SIGINT/SIGTERM.

Boots a :class:`~repro.service.daemon.ReservationDaemon` over a seeded
:class:`~repro.sim.environment.GridEnvironment` and serves the admission
API and ``/metrics`` until a termination signal arrives; shutdown drains
in-flight admissions before closing the listener (bounded by
``--drain-timeout``).

SIGQUIT does *not* stop the daemon: it dumps the flight recorder (the
always-on ring of recent spans, events and wire counters) to
``--flight-dir`` and keeps serving -- the kill -QUIT postmortem idiom.
``--access-log`` writes one structured JSON line per request to stderr.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.core import ALGORITHMS, CONTENTION_INDICES

if TYPE_CHECKING:
    from repro.service.daemon import DaemonConfig

__all__ = [
    "add_grid_arguments",
    "build_config",
    "grid_options",
    "main",
    "plain_http_only",
    "serve_until_signalled",
]


def plain_http_only() -> None:
    """Keep OpenSSL out of a serving process: make ``import ssl`` fail.

    ``repro-serve`` and ``repro-cluster`` speak plain HTTP, and asyncio
    imports ``ssl`` only if it can.  A ``None`` entry in ``sys.modules``
    is the documented way to make an import raise ``ImportError``, so
    asyncio then runs without TLS support.  A ``main()`` calls this
    before anything imports asyncio, which is why this module and
    :mod:`repro.cluster.cli` import their asyncio-bound modules inside
    the functions that use them.  If ``ssl`` is already loaded, this is
    a no-op.
    """
    sys.modules.setdefault("ssl", None)


def add_grid_arguments(parser: argparse.ArgumentParser, seed_help: str) -> None:
    """The flags that define the grid; ``repro-serve`` and ``repro-cluster``
    must agree on them, so they are declared once."""
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    parser.add_argument("--algorithm", default="basic", choices=sorted(ALGORITHMS))
    parser.add_argument("--contention-index", default="ratio",
                        choices=sorted(CONTENTION_INDICES))
    parser.add_argument("--capacity-min", type=float, default=1000.0)
    parser.add_argument("--capacity-max", type=float, default=4000.0)
    parser.add_argument("--no-tie-break", action="store_true",
                        help="disable the §4.3 load tie-break")


def grid_options(args: argparse.Namespace) -> dict:
    """The grid-shaped config fields parsed by :func:`add_grid_arguments`."""
    return {
        "seed": args.seed,
        "algorithm": args.algorithm,
        "capacity_range": (args.capacity_min, args.capacity_max),
        "contention_index": args.contention_index,
        "tie_break": not args.no_tie_break,
    }


async def serve_until_signalled(daemon, prog: str, banner: str, on_sigquit=None) -> None:
    """Announce a started daemon, serve until SIGINT/SIGTERM, then drain.

    ``on_sigquit`` (when given) runs on SIGQUIT without stopping the
    daemon -- the kill -QUIT postmortem idiom.
    """
    import asyncio

    stop = asyncio.Event()
    handlers = {signal.SIGINT: stop.set, signal.SIGTERM: stop.set}
    if on_sigquit is not None and hasattr(signal, "SIGQUIT"):
        handlers[signal.SIGQUIT] = on_sigquit
    loop = asyncio.get_running_loop()
    for signum, handler in handlers.items():
        try:
            loop.add_signal_handler(signum, handler)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            signal.signal(signum, lambda *_, handler=handler: handler())
    print(
        f"{prog}: listening on {daemon.config.host}:{daemon.port} ({banner})",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        print(f"{prog}: draining and shutting down", flush=True)
        await daemon.shutdown(drain=True)


def build_config(argv: Optional[List[str]] = None) -> DaemonConfig:
    from repro.service.daemon import DaemonConfig

    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="listen port (0 = ephemeral, printed on boot)")
    add_grid_arguments(
        parser,
        "grid + planner seed (admissions are deterministic given the seed "
        "and request order)",
    )
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds to wait for in-flight admissions on "
                             "shutdown")
    parser.add_argument("--access-log", action="store_true",
                        help="write one JSON access-log line per request "
                             "to stderr (method/path/status/duration/"
                             "trace_id)")
    parser.add_argument("--flight-dir", default=None,
                        help="directory for flight-recorder dumps "
                             "(SIGQUIT, unhandled exceptions, and "
                             "POST /v1/debug/dump); unset = in-band "
                             "snapshots only")
    parser.add_argument("--shard-index", type=int, default=0,
                        help="serve the ShardMap slice of the grid with "
                             "this index, out of --shard-count")
    parser.add_argument("--shard-count", type=int, default=1,
                        help="total number of shards in the cluster")
    parser.add_argument("--lease-ttl", type=float, default=5.0,
                        help="wall-clock TTL (seconds) of cross-shard "
                             "reserve leases before the reaper "
                             "releases them")
    args = parser.parse_args(argv)
    return DaemonConfig(
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        access_log=args.access_log,
        flight_dir=args.flight_dir,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        lease_ttl=args.lease_ttl,
        **grid_options(args),
    )


async def _serve(config: DaemonConfig) -> None:
    from repro.service.daemon import ReservationDaemon

    daemon = ReservationDaemon(config)
    await daemon.start()

    def _sigquit_dump() -> None:
        try:
            path = daemon.service.flight_dump("sigquit")
        except Exception as exc:  # pragma: no cover - dump must not kill us
            print(f"repro-serve: flight dump failed: {exc}",
                  file=sys.stderr, flush=True)
            return
        if path is None:
            print("repro-serve: SIGQUIT received but --flight-dir is unset; "
                  "no dump written", file=sys.stderr, flush=True)
        else:
            print(f"repro-serve: flight recorder dumped to {path}",
                  file=sys.stderr, flush=True)

    await serve_until_signalled(
        daemon,
        "repro-serve",
        f"algorithm={config.algorithm}, seed={config.seed}, "
        f"shard={config.shard_index}/{config.shard_count}",
        _sigquit_dump,
    )


def main(argv: Optional[List[str]] = None) -> int:
    plain_http_only()
    import asyncio

    config = build_config(argv)
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
