"""The *distributed* model-store approach (paper §3).

§3 offers two placements for the QoS-Resource Model definition: the
centralised one (the main QoSProxy stores everything, which the paper
assumes for the rest of the text) and a distributed one, where "the
Q_in and Q_out levels and the Translation Function of each service
component will be stored and accessed by the QoSProxy of the host where
the service component runs".

This module holds the distributed flavour's proxy and messages.  A
:class:`~repro.runtime.coordinator.ReservationCoordinator` given
:class:`ComponentHost` proxies runs it, per session:

1. the main proxy asks each participating proxy for its component's
   *QRG fragment* -- the feasible, locally priced (Q_in, Q_out) edges
   (the proxy holds the translation function and can query its local
   brokers directly, folding phase 1 into fragment computation);
2. the main proxy stitches the fragments into the full QRG (it still
   holds the service *structure*: dependency graph and ranking, which
   are service-level rather than component-level knowledge) and runs
   the planning algorithm;
3. plan dispatch and tear-down *are* the centralised path.

Only who phase 1 asks and how the priced QRG is put together differ.
Given the same availability both placements compute identical plans
(asserted by the test suite), so everything else in the library --
sessions, simulation, metrics -- accepts either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.brokers.registry import BrokerRegistry
from repro.core.component import Binding, ServiceComponent
from repro.core.errors import ModelError
from repro.core.qrg import IntraEdge, price_component_edges
from repro.core.resources import ResourceObservation
from repro.core.translation import ScaledTranslation
from repro.runtime.proxy import QoSProxy


@dataclass(frozen=True)
class FragmentRequest:
    """Main proxy -> component host: price your component's edges."""

    session_id: str
    component: str
    demand_scale: float = 1.0


@dataclass(frozen=True)
class ComponentFragment:
    """Component host -> main proxy: the locally priced QRG fragment."""

    session_id: str
    component: str
    proxy_host: str
    edges: Tuple[IntraEdge, ...]
    observations: Mapping[str, ResourceObservation]


class ComponentHost(QoSProxy):
    """A QoSProxy that also stores the definitions of local components."""

    def __init__(self, host: str, registry: BrokerRegistry) -> None:
        super().__init__(host, registry)
        self._components: Dict[str, ServiceComponent] = {}

    def store_component(self, component: ServiceComponent) -> None:
        """Store a component definition at this proxy (§3, distributed)."""
        if component.name in self._components:
            raise ModelError(
                f"proxy {self.host!r} already stores component {component.name!r}"
            )
        self._components[component.name] = component

    def stored_components(self) -> Tuple[str, ...]:
        """Names of the components stored at this proxy, sorted."""
        return tuple(sorted(self._components))

    def price_fragment(
        self,
        request: FragmentRequest,
        binding: Binding,
        *,
        observed_at: Optional[Callable[[str], Optional[float]]] = None,
        contention_index=None,
    ) -> ComponentFragment:
        """Compute the component's feasible edges from local observations."""
        try:
            component = self._components[request.component]
        except KeyError:
            raise ModelError(
                f"proxy {self.host!r} does not store component {request.component!r}"
            ) from None
        if request.demand_scale != 1.0:
            component = component.with_translation(
                ScaledTranslation(component.translation, request.demand_scale)
            )
        # Observe exactly the resources this component's slots bind to.
        # The host fronts those brokers (§3: it queries them directly),
        # so pricing is also what declares the ownership phase 3's
        # segments are routed by.
        resource_ids = sorted(
            {binding.resource_id(component.name, slot) for slot in component.slots()}
        )
        for resource_id in resource_ids:
            self.own(resource_id)
        snapshot = self.registry.snapshot(resource_ids, observed_at=observed_at)
        edges = price_component_edges(
            component, binding, snapshot, contention_index=contention_index
        )
        return ComponentFragment(
            session_id=request.session_id,
            component=component.name,
            proxy_host=self.host,
            edges=tuple(edges),
            observations=dict(snapshot),
        )
