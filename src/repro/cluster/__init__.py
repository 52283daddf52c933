"""Sharded multi-daemon cluster layer.

Partitions the single-environment broker directory into shard-owned
registries (:mod:`repro.cluster.shardmap`), runs each shard behind its
own reservation daemon, and routes admissions through a cluster
coordinator that plans against a merged availability snapshot and
executes cross-shard reservations in one round of reserves that carry
their commits (:mod:`repro.cluster.router`), whose every decision on a shard's answer
is made by the sans-I/O protocol core (:mod:`repro.cluster.protocol`).
``repro-cluster``
(:mod:`repro.cluster.cli`) serves the router over the same wire
protocol as a single daemon.

The package imports nothing at import time: ``python -m
repro.cluster.cli`` runs this file before the CLI's ``main()`` keeps
``ssl`` out of the process, and the router imports asyncio.
"""

#: Public names, resolved lazily (PEP 562) from the submodule that
#: defines them.
_EXPORTS = {
    "ClusterConfig": "repro.cluster.router",
    "ClusterCoordinator": "repro.cluster.router",
    "ClusterDaemon": "repro.cluster.router",
    "LocalShardClient": "repro.cluster.router",
    "ShardMap": "repro.cluster.shardmap",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
