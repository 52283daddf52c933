"""Topology model and the paper's figure-9 environment builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ModelError


@dataclass(frozen=True)
class Host:
    """An end host able to run service components (H1-H4 in figure 9)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("host name must be non-empty")


@dataclass(frozen=True)
class Domain:
    """A client domain; its clients attach through one proxy host.

    In the paper's setup (§5.1) the proxy component of a session from
    domain ``D_i`` runs on a host determined by the domain, which is why
    the proxy host is part of the domain definition here.
    """

    name: str
    proxy_host: str

    def __post_init__(self) -> None:
        if not self.name or not self.proxy_host:
            raise ModelError("domain name and proxy host must be non-empty")


@dataclass(frozen=True)
class Link:
    """An undirected network link (L1-L14 in figure 9).

    Endpoints are host names or domain names (access links attach a
    domain's client population to its proxy host).
    """

    link_id: str
    endpoint_a: str
    endpoint_b: str

    def __post_init__(self) -> None:
        if not self.link_id:
            raise ModelError("link id must be non-empty")
        if self.endpoint_a == self.endpoint_b:
            raise ModelError(f"link {self.link_id!r} connects {self.endpoint_a!r} to itself")

    def connects(self, a: str, b: str) -> bool:
        """True when this link joins the two endpoints."""
        return {a, b} == {self.endpoint_a, self.endpoint_b}

    def other_end(self, endpoint: str) -> str:
        """The opposite endpoint of the link."""
        if endpoint == self.endpoint_a:
            return self.endpoint_b
        if endpoint == self.endpoint_b:
            return self.endpoint_a
        raise ModelError(f"{endpoint!r} is not an endpoint of link {self.link_id!r}")


class Topology:
    """Hosts + domains + links, with adjacency lookups."""

    def __init__(
        self,
        hosts: Iterable[Host],
        domains: Iterable[Domain],
        links: Iterable[Link],
    ) -> None:
        self.hosts: Dict[str, Host] = {}
        for host in hosts:
            if host.name in self.hosts:
                raise ModelError(f"duplicate host {host.name!r}")
            self.hosts[host.name] = host
        self.domains: Dict[str, Domain] = {}
        for domain in domains:
            if domain.name in self.domains or domain.name in self.hosts:
                raise ModelError(f"duplicate node name {domain.name!r}")
            if domain.proxy_host not in self.hosts:
                raise ModelError(
                    f"domain {domain.name!r} names unknown proxy host {domain.proxy_host!r}"
                )
            self.domains[domain.name] = domain
        node_names = set(self.hosts) | set(self.domains)
        self.links: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[Tuple[str, Link]]] = {name: [] for name in node_names}
        for link in links:
            if link.link_id in self.links:
                raise ModelError(f"duplicate link id {link.link_id!r}")
            for endpoint in (link.endpoint_a, link.endpoint_b):
                if endpoint not in node_names:
                    raise ModelError(
                        f"link {link.link_id!r} references unknown node {endpoint!r}"
                    )
            self.links[link.link_id] = link
            self._adjacency[link.endpoint_a].append((link.endpoint_b, link))
            self._adjacency[link.endpoint_b].append((link.endpoint_a, link))
        for name in self._adjacency:
            self._adjacency[name].sort(key=lambda pair: (pair[0], pair[1].link_id))

    def neighbors(self, node: str) -> List[Tuple[str, Link]]:
        """(neighbor, link) pairs adjacent to ``node``, sorted."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def node_names(self) -> Tuple[str, ...]:
        """All host and domain names, sorted."""
        return tuple(sorted(set(self.hosts) | set(self.domains)))

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link joining two nodes, or None."""
        for neighbor, link in self._adjacency.get(a, []):
            if neighbor == b:
                return link
        return None

    def owner_of(self, resource_id: str) -> str:
        """The node whose QoSProxy owns a resource: the one ownership rule.

        A local resource (``cpu:H1``) belongs to its node.  A path
        (``net:A-B``) or a link (``link:L3``) belongs to its domain
        endpoint when it has one (the receiver side of a domain access
        link), otherwise to the lexicographically first endpoint (host
        resources are bidirectional).  The grid's proxies own resources
        by it, and a cluster's shards by the shard of the owning node.
        """
        kind, _, name = resource_id.partition(":")
        if kind == "net":
            endpoints = name.split("-")
        elif kind == "link":
            link = self.links.get(name)
            if link is None:
                raise ModelError(f"link {name!r} is not in the topology")
            endpoints = [link.endpoint_a, link.endpoint_b]
        elif name:
            return name
        else:
            raise ModelError(f"cannot place resource {resource_id!r}")
        domains = [endpoint for endpoint in endpoints if endpoint in self.domains]
        return domains[0] if domains else sorted(endpoints)[0]


def build_scaled_topology(
    num_hosts: int,
    domains_per_host: int = 2,
    *,
    mesh: bool = True,
) -> Topology:
    """A figure-9-shaped environment at arbitrary scale.

    ``num_hosts`` servers (``H1..``) connected as a full mesh (or a ring
    when ``mesh=False``), each fronting ``domains_per_host`` client
    domains over dedicated access links.  ``build_figure9_topology()``
    is the (4, 2, mesh) instance.  Used by the scalability benchmarks to
    grow the environment beyond the paper's setup.
    """
    if num_hosts < 2:
        raise ModelError(f"need at least 2 hosts, got {num_hosts}")
    if domains_per_host < 1:
        raise ModelError(f"need at least 1 domain per host, got {domains_per_host}")
    hosts = [Host(f"H{i}") for i in range(1, num_hosts + 1)]
    domains = [
        Domain(f"D{i}", proxy_host=f"H{(i + domains_per_host - 1) // domains_per_host}")
        for i in range(1, num_hosts * domains_per_host + 1)
    ]
    links: List[Link] = []
    index = 1
    if mesh:
        for a in range(1, num_hosts + 1):
            for b in range(a + 1, num_hosts + 1):
                links.append(Link(f"L{index}", f"H{a}", f"H{b}"))
                index += 1
    else:
        for a in range(1, num_hosts + 1):
            b = a % num_hosts + 1
            links.append(Link(f"L{index}", f"H{a}", f"H{b}"))
            index += 1
    for domain in domains:
        links.append(Link(f"L{index}", domain.proxy_host, domain.name))
        index += 1
    return Topology(hosts, domains, links)


def build_figure9_topology() -> Topology:
    """The evaluation environment's structure (paper figure 9).

    Four high-performance hosts H1-H4 in a full mesh (6 core links) and
    eight client domains D1-D8, each attached to its proxy host by one
    access link (8 links) -- 14 links total, matching L1-L14.  Domain
    ``D_i``'s proxy host is ``H_ceil(i/2)``, consistent with §5.1's rule
    that a client from ``D_i`` never requests service ``S_ceil(i/2)``
    (whose main server is that same host): server and proxy hosts of a
    session are therefore always distinct.
    """
    hosts = [Host(f"H{i}") for i in range(1, 5)]
    domains = [Domain(f"D{i}", proxy_host=f"H{(i + 1) // 2}") for i in range(1, 9)]
    links: List[Link] = []
    index = 1
    for a in range(1, 5):
        for b in range(a + 1, 5):
            links.append(Link(f"L{index}", f"H{a}", f"H{b}"))
            index += 1
    for i in range(1, 9):
        links.append(Link(f"L{index}", f"H{(i + 1) // 2}", f"D{i}"))
        index += 1
    return Topology(hosts, domains, links)
