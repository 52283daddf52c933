"""Deterministic resource -> shard assignment.

The sharding unit is the *failure-domain group*: one host together with
every client domain whose access proxy runs on that host (they share
fate -- losing the host severs the domains' access paths anyway).
Groups are distributed round-robin over the shards in sorted host
order, so any process that knows the topology and the shard count
computes the identical map with no directory service -- the
queueless/uncentralised discovery shape of Coti et al.

Resource ownership mirrors :class:`~repro.sim.environment.GridEnvironment`
exactly: a cpu broker belongs to its host; a path or link resource
belongs to its domain endpoint when it has one (the receiver side of a
domain access link), otherwise to the lexicographically first host
endpoint.  The shard of a resource is the shard of its owning node,
which keeps every resource owned by exactly one shard -- the invariant
the cross-shard reconciliation checker leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.core.errors import ModelError

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Immutable node/resource -> shard index assignment."""

    shard_count: int
    #: owning node (host or domain name) -> shard index
    assignments: Mapping[str, int]
    #: domain name -> access proxy host (to classify path endpoints)
    domain_proxy_hosts: Mapping[str, str]
    #: link id -> (endpoint_a, endpoint_b) (to place ``link:`` resources)
    link_endpoints: Mapping[str, Tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def from_topology(cls, topology, shard_count: int) -> "ShardMap":
        """Build the map from a :class:`~repro.network.topology.Topology`."""
        return cls.build(
            hosts=sorted(topology.hosts),
            domain_proxy_hosts={
                name: topology.domains[name].proxy_host
                for name in topology.domains
            },
            link_endpoints={
                link_id: (link.endpoint_a, link.endpoint_b)
                for link_id, link in topology.links.items()
            },
            shard_count=shard_count,
        )

    @classmethod
    def build(
        cls,
        *,
        hosts,
        domain_proxy_hosts: Mapping[str, str],
        shard_count: int,
        link_endpoints: Mapping[str, Tuple[str, str]] = None,
    ) -> "ShardMap":
        hosts = sorted(hosts)
        if shard_count < 1:
            raise ModelError(f"shard_count must be >= 1, got {shard_count}")
        if shard_count > len(hosts):
            raise ModelError(
                f"shard_count {shard_count} exceeds the {len(hosts)} "
                "failure-domain groups (one per host)"
            )
        assignments: Dict[str, int] = {}
        for index, host in enumerate(hosts):
            shard = index % shard_count
            assignments[host] = shard
            for domain in sorted(domain_proxy_hosts):
                if domain_proxy_hosts[domain] == host:
                    assignments[domain] = shard
        unplaced = set(domain_proxy_hosts) - set(assignments)
        if unplaced:
            raise ModelError(
                f"domains {sorted(unplaced)} name proxy hosts outside {hosts}"
            )
        return cls(
            shard_count=shard_count,
            assignments=dict(assignments),
            domain_proxy_hosts=dict(domain_proxy_hosts),
            link_endpoints=dict(link_endpoints or {}),
        )

    # -- lookups ---------------------------------------------------------------

    def shard_of_node(self, node: str) -> int:
        """Shard index of a host or domain name."""
        try:
            return self.assignments[node]
        except KeyError:
            raise ModelError(f"node {node!r} is not in the shard map") from None

    def owner_node(self, resource_id: str) -> str:
        """The node owning a resource, mirroring GridEnvironment's rule."""
        if resource_id.startswith("net:"):
            endpoints = resource_id[len("net:"):].split("-")
        elif resource_id.startswith("link:"):
            link_id = resource_id[len("link:"):]
            try:
                endpoints = list(self.link_endpoints[link_id])
            except KeyError:
                raise ModelError(
                    f"link {link_id!r} is not in the shard map's topology"
                ) from None
        elif ":" in resource_id:
            # Local resources (``cpu:H1``) belong to their host.
            return resource_id.split(":", 1)[1]
        else:
            raise ModelError(f"cannot place resource {resource_id!r}")
        domains = [e for e in endpoints if e in self.domain_proxy_hosts]
        return domains[0] if domains else sorted(endpoints)[0]

    def shard_of(self, resource_id: str) -> int:
        """Shard index owning a resource id."""
        return self.shard_of_node(self.owner_node(resource_id))

    def owned_resource_ids(self, shard: int, resource_ids) -> Tuple[str, ...]:
        """Filter a resource-id iterable down to one shard's slice."""
        return tuple(
            rid for rid in sorted(resource_ids) if self.shard_of(rid) == shard
        )
