"""Deterministic resource -> shard assignment.

The sharding unit is the *failure-domain group*: one host together with
every client domain whose access proxy runs on that host (they share
fate -- losing the host severs the domains' access paths anyway).
Groups are distributed round-robin over the shards in sorted host
order, so any process that knows the topology and the shard count
computes the identical map with no directory service -- the
queueless/uncentralised discovery shape of Coti et al.  That holds
because the ownership rule is written once:
:meth:`~repro.network.topology.Topology.owner_of` names the node that
owns a resource, the grid's proxies own resources by it, and the shard
of a resource is the shard of its owning node.  Every resource is
therefore owned by exactly one shard -- the invariant the cross-shard
reconciliation checker leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.errors import ModelError
from repro.network.topology import Topology

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Immutable node/resource -> shard index assignment."""

    shard_count: int
    #: owning node (host or domain name) -> shard index
    assignments: Mapping[str, int]
    #: Whose ownership rule places a resource on its node.
    topology: Topology

    @classmethod
    def from_topology(cls, topology: Topology, shard_count: int) -> "ShardMap":
        """Build the map from a topology."""
        hosts = sorted(topology.hosts)
        if shard_count < 1:
            raise ModelError(f"shard_count must be >= 1, got {shard_count}")
        if shard_count > len(hosts):
            raise ModelError(
                f"shard_count {shard_count} exceeds the {len(hosts)} "
                "failure-domain groups (one per host)"
            )
        assignments: Dict[str, int] = {}
        for index, host in enumerate(hosts):
            assignments[host] = index % shard_count
        for name in sorted(topology.domains):
            assignments[name] = assignments[topology.domains[name].proxy_host]
        return cls(shard_count, assignments, topology)

    # -- lookups ---------------------------------------------------------------

    def shard_of_node(self, node: str) -> int:
        """Shard index of a host or domain name."""
        try:
            return self.assignments[node]
        except KeyError:
            raise ModelError(f"node {node!r} is not in the shard map") from None

    def shard_of(self, resource_id: str) -> int:
        """Shard index owning a resource id."""
        return self.shard_of_node(self.topology.owner_of(resource_id))

    def owned_resource_ids(self, shard: int, resource_ids) -> Tuple[str, ...]:
        """Filter a resource-id iterable down to one shard's slice."""
        return tuple(
            rid for rid in sorted(resource_ids) if self.shard_of(rid) == shard
        )
