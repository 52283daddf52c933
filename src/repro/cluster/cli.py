"""``repro-cluster``: run the cross-shard router until SIGINT/SIGTERM.

Boots a :class:`~repro.cluster.router.ClusterDaemon` fronting one shard
daemon per ``--shard host:port`` flag.  The router plans each admission
against a merged availability snapshot from the involved shards and
executes it as a two-phase reserve/commit, so a shard dying mid-round
never loses or double-grants capacity.  It runs that one path at every
shard count; with a single ``--shard`` an establish or teardown still
answers what the daemon itself would.

The shards must be ``repro-serve`` instances started with the *same*
``--seed``/capacity range and ``--shard-index i --shard-count N`` for
``i`` in ``0..N-1``, listed in that order -- every party replicates the
identical grid, the shard map just divides who may grant what.  A plain
``repro-serve`` is shard 0 of 1, so a single ``--shard`` may name one.
At boot the router exits with status 2 if a shard it reaches disagrees
on the seed, its index or the count, and warns of a shard it cannot
reach yet.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.errors import ModelError
from repro.service.cli import (
    add_grid_arguments,
    grid_options,
    plain_http_only,
    serve_until_signalled,
)

if TYPE_CHECKING:
    from repro.cluster.router import ClusterConfig

__all__ = ["build_config", "main"]


def _shard_address(text: str) -> Tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"shard address {text!r} is not host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard address {text!r} has a non-numeric port"
        ) from None
    return host, port


def build_config(argv: Optional[List[str]] = None) -> ClusterConfig:
    from repro.cluster.router import ClusterConfig

    parser = argparse.ArgumentParser(
        prog="repro-cluster", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8790,
                        help="listen port (0 = ephemeral, printed on boot)")
    parser.add_argument("--shard", dest="shards", action="append",
                        type=_shard_address, metavar="HOST:PORT",
                        help="one shard daemon address; repeat per shard, "
                             "in shard-index order")
    add_grid_arguments(parser, "grid seed -- must match every shard daemon")
    args = parser.parse_args(argv)
    if not args.shards:
        parser.error("at least one --shard host:port is required")
    try:
        return ClusterConfig(
            shards=tuple(args.shards),
            host=args.host,
            port=args.port,
            **grid_options(args),
        )
    except ModelError as exc:
        parser.error(str(exc))


async def _serve(config: ClusterConfig) -> int:
    from repro.cluster.router import ClusterDaemon

    daemon = ClusterDaemon(config)
    await daemon.start()
    unreachable, misconfigured = await daemon.coordinator.check()
    for problem in unreachable:
        print(f"repro-cluster: warning: {problem}", file=sys.stderr, flush=True)
    for problem in misconfigured:
        print(f"repro-cluster: error: {problem}", file=sys.stderr, flush=True)
    if misconfigured:
        await daemon.shutdown(drain=False)
        return 2
    await serve_until_signalled(
        daemon,
        "repro-cluster",
        f"shards={len(config.shards)}, seed={config.seed}, "
        f"algorithm={config.algorithm}",
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    plain_http_only()
    import asyncio

    config = build_config(argv)
    try:
        return asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


if __name__ == "__main__":
    sys.exit(main())
