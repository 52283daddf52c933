"""The simulated reservation-enabled Grid (paper §5.1, figure 9).

Assembles, on top of the DES engine:

* the figure-9 topology (4 hosts in full mesh, 8 domains, 14 links);
* one CPU-style :class:`LocalResourceBroker` per host (``hS`` and ``hP``
  are "assumed to be of the same type", §5.1, so server and proxy
  components of co-located sessions share one pool);
* one :class:`LinkBandwidthBroker` per link and two-level
  :class:`PathBroker` end-to-end network resources for every host-host
  and host-domain pair that sessions use;
* one :class:`QoSProxy` per host and per client domain, a shared
  :class:`ModelStore` with the S1-S4 definitions, and the
  :class:`ReservationCoordinator`.

Initial resource capacities are drawn uniformly from the configured
range (1000-4000 units in the paper).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.brokers.link import LinkBandwidthBroker
from repro.brokers.local import LocalResourceBroker
from repro.brokers.path import PathBroker
from repro.brokers.registry import BrokerRegistry
from repro.core.component import Binding
from repro.core.errors import ModelError
from repro.core.service import DistributedService
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.network.routing import RoutingTable
from repro.network.topology import Topology, build_figure9_topology
from repro.obs import metrics as _metrics
from repro.runtime.coordinator import ReservationCoordinator
from repro.runtime.model_store import ModelStore
from repro.runtime.proxy import QoSProxy
from repro.sim.services import (
    SLOT_NET_PC,
    SLOT_NET_SP,
    SLOT_PROXY,
    SLOT_SERVER,
    build_evaluation_services,
)


def _pair_id(a: str, b: str) -> str:
    """Canonical id for the end-to-end network resource between a and b."""
    first, second = sorted((a, b))
    return f"net:{first}-{second}"


class GridEnvironment:
    """Figure 9's environment, ready to run sessions on."""

    #: Main server host of each service (S_i is served by H_i, §5.1).
    SERVICE_SERVERS = {"S1": "H1", "S2": "H2", "S3": "H3", "S4": "H4"}

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        *,
        services: Optional[Mapping[str, DistributedService]] = None,
        capacity_range: Tuple[float, float] = (1000.0, 4000.0),
        trend_window: float = 3.0,
        topology: Optional[Topology] = None,
        service_servers: Optional[Mapping[str, str]] = None,
    ) -> None:
        low, high = capacity_range
        if not (0 < low <= high):
            raise ModelError(f"invalid capacity range {capacity_range!r}")
        self.env = env
        self.streams = streams
        self.topology = topology if topology is not None else build_figure9_topology()
        self.routing = RoutingTable(self.topology)
        self.registry = BrokerRegistry()
        clock = lambda: env.now  # noqa: E731 - tiny closure over the clock

        capacity_rng = streams.pcg64("capacities")

        def draw_capacity() -> float:
            """One capacity draw from the configured uniform range."""
            return capacity_rng.uniform(float(low), float(high))

        # Host-local CPU pools.
        self.cpu_brokers: Dict[str, LocalResourceBroker] = {}
        for host in sorted(self.topology.hosts):
            broker = LocalResourceBroker(
                host, "cpu", draw_capacity(), clock=clock, trend_window=trend_window
            )
            self.registry.register(broker)
            self.cpu_brokers[host] = broker

        # Per-link bandwidth brokers (lower level).
        self.link_brokers: Dict[str, LinkBandwidthBroker] = {}
        for link_id in sorted(self.topology.links):
            link = self.topology.links[link_id]
            broker = LinkBandwidthBroker(
                link_id,
                link.endpoint_a,
                link.endpoint_b,
                draw_capacity(),
                clock=clock,
                trend_window=trend_window,
            )
            self.registry.register(broker)
            self.link_brokers[link_id] = broker

        # End-to-end path brokers (higher level): host<->host pairs for
        # lPS and proxy-host<->domain pairs for lCP.
        self.path_brokers: Dict[str, PathBroker] = {}
        hosts = sorted(self.topology.hosts)
        for index, a in enumerate(hosts):
            for b in hosts[index + 1 :]:
                self._add_path_broker(a, b, clock, trend_window)
        for domain in sorted(self.topology.domains):
            proxy_host = self.topology.domains[domain].proxy_host
            self._add_path_broker(proxy_host, domain, clock, trend_window)

        # QoSProxies: one per host and per domain, each owning the cpu
        # and path resources the topology's ownership rule gives its node.
        self.proxies: Dict[str, QoSProxy] = {}
        for node in sorted(self.topology.hosts) + sorted(self.topology.domains):
            self.proxies[node] = QoSProxy(node, self.registry)
        for brokers in (self.cpu_brokers, self.path_brokers):
            for broker in brokers.values():
                owner = self.topology.owner_of(broker.resource_id)
                self.proxies[owner].own(broker.resource_id)

        # Model store + coordinator (centralised approach, §3).
        self.model_store = ModelStore()
        service_map = services if services is not None else build_evaluation_services()
        self.services: Dict[str, DistributedService] = dict(service_map)
        if service_servers is not None:
            self.service_servers: Dict[str, str] = dict(service_servers)
        else:
            self.service_servers = dict(self.SERVICE_SERVERS)
        self.model_store.register_all(self.services.values())
        self.coordinator = ReservationCoordinator(self.registry, self.model_store, self.proxies)

        # With observability enabled, publish the drawn capacities so
        # traces/exports are self-describing about the environment.
        registry_metrics = _metrics.active_registry()
        if registry_metrics is not None:
            for broker in self.registry.brokers():
                registry_metrics.gauge(
                    "broker.capacity", resource=broker.resource_id
                ).set(broker.capacity)

    def _add_path_broker(self, a: str, b: str, clock, trend_window: float) -> None:
        resource_id = _pair_id(a, b)
        route = self.routing.route(a, b)
        links = [self.link_brokers[link.link_id] for link in route]
        broker = PathBroker(resource_id, links, clock=clock, trend_window=trend_window)
        self.registry.register(broker)
        self.path_brokers[resource_id] = broker

    # -- session wiring (paper §5.1) ------------------------------------------

    def proxy_host_of_domain(self, domain: str) -> str:
        """The host running the proxy component for a domain's clients."""
        try:
            return self.topology.domains[domain].proxy_host
        except KeyError:
            raise ModelError(f"unknown domain {domain!r}") from None

    def server_of_service(self, service_name: str) -> str:
        """The main server host of an evaluation service (S_i -> H_i)."""
        try:
            return self.service_servers[service_name]
        except KeyError:
            raise ModelError(f"unknown evaluation service {service_name!r}") from None

    def binding_for(self, service_name: str, domain: str) -> Binding:
        """Bind a session's component slots to concrete resources.

        ``cS`` runs on the service's main server, ``cP`` on the domain's
        proxy host, ``cC`` at the client: ``hS``/``hP`` bind to the CPU
        pools, ``lPS`` to the server-proxy path, ``lCP`` to the
        proxy-domain access path.
        """
        server = self.server_of_service(service_name)
        proxy_host = self.proxy_host_of_domain(domain)
        if server == proxy_host:
            raise ModelError(
                f"session from {domain!r} for {service_name!r} would co-locate server "
                "and proxy; §5.1's exclusion rule forbids this combination"
            )
        return Binding(
            {
                ("cS", SLOT_SERVER): self.cpu_brokers[server].resource_id,
                ("cP", SLOT_PROXY): self.cpu_brokers[proxy_host].resource_id,
                ("cP", SLOT_NET_SP): _pair_id(server, proxy_host),
                ("cC", SLOT_NET_PC): _pair_id(proxy_host, domain),
            }
        )

    def component_hosts_for(self, service_name: str, domain: str) -> Dict[str, str]:
        """component -> host placement of one session (§5.1)."""
        return {
            "cS": self.server_of_service(service_name),
            "cP": self.proxy_host_of_domain(domain),
            "cC": domain,
        }

    def excluded_service_for_domain(self, domain: str) -> str:
        """§5.1: a client from D_i never requests S_ceil(i/2)."""
        index = int(domain[1:])
        return f"S{(index + 1) // 2}"

    def resource_ids(self) -> Tuple[str, ...]:
        """The registered resource ids, sorted."""
        return self.registry.resource_ids()
