"""Reservation-plan computation for chain services (paper §4.1-4.2).

Two planners live here:

* :class:`BasicPlanner` -- the paper's main algorithm: pick the highest
  reachable end-to-end QoS level, then the minimax ("shortest" with
  ``+ := max``) path to it, i.e. the feasible plan with the lowest
  bottleneck contention index.
* :class:`RandomPlanner` -- the contention-*unaware* baseline of §5:
  picks the same (highest reachable) end-to-end level but a uniformly
  random feasible path to it.

The tradeoff extension is in :mod:`repro.core.tradeoff`; DAG services are
planned by :mod:`repro.core.dagplan`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple

from repro.core.dijkstra import (
    PathSearchResult,
    enumerate_paths,
    minimax_dijkstra,
    path_bottleneck,
)
from repro.core.errors import PlanningError
from repro.core.plan import ComponentAssignment, ReservationPlan
from repro.core.qrg import IntraEdge, QoSResourceGraph, QRGNode

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class Planner(Protocol):
    """Anything that turns a QRG into a reservation plan (or None)."""

    def plan(self, qrg: QoSResourceGraph) -> Optional[ReservationPlan]:
        """Compute a reservation plan for the QRG (None when infeasible)."""
        ...  # pragma: no cover - protocol body


def _reachable_sinks(
    qrg: QoSResourceGraph, search: PathSearchResult[QRGNode]
) -> List[QRGNode]:
    distance = search.distance
    return [node for node in qrg.sink_nodes() if node in distance]


def _best_sink(qrg: QoSResourceGraph, sinks: Sequence[QRGNode]) -> Optional[QRGNode]:
    """Highest-ranked sink under the service's end-to-end ranking."""
    if not sinks:
        return None
    by_label = {node.label: node for node in sinks}
    best_label = qrg.service.ranking.best(by_label)
    return by_label[best_label] if best_label is not None else None


def _bottleneck_edge(edges: Sequence[Optional[IntraEdge]]) -> IntraEdge:
    """The intra edge with the largest weight (first such along the path)."""
    best: Optional[IntraEdge] = None
    for edge in edges:
        if edge is None:
            continue
        if best is None or edge.weight > best.weight:
            best = edge
    if best is None:
        raise PlanningError("path contains no intra-component edges")
    return best


def assemble_plan(
    qrg: QoSResourceGraph,
    sink: QRGNode,
    node_path: Sequence[QRGNode],
    edges: Sequence[Optional[IntraEdge]],
) -> ReservationPlan:
    """Turn an explicit QRG path into a :class:`ReservationPlan`."""
    intra = [edge for edge in edges if edge is not None]
    assignments = tuple(map(ComponentAssignment.from_edge, intra))
    bottleneck = _bottleneck_edge(intra)
    ranking = qrg.service.ranking
    return ReservationPlan(
        service=qrg.service.name,
        assignments=assignments,
        end_to_end_label=sink.label,
        end_to_end_rank=ranking.rank(sink.label),
        numeric_level=ranking.numeric_level(sink.label),
        psi=bottleneck.weight,
        bottleneck_resource=bottleneck.bottleneck_resource,
        bottleneck_alpha=bottleneck.alpha,
        path_signature=tuple(node.label for node in node_path),
    )


class BasicPlanner:
    """The paper's basic runtime algorithm (§4.1).

    ``tie_break=False`` disables the min-edge-weight tie-breaking rule
    (ablation only; the paper always applies it).
    """

    name = "basic"

    def __init__(self, tie_break: bool = True) -> None:
        self.tie_break = tie_break

    def plan(self, qrg: QoSResourceGraph) -> Optional[ReservationPlan]:
        """Compute a reservation plan for the QRG (None when infeasible)."""
        search = minimax_dijkstra(qrg.source_node, qrg.successors, tie_break=self.tie_break)
        sink = _best_sink(qrg, _reachable_sinks(qrg, search))
        if sink is None:
            return None
        node_path = search.path_to(sink)
        return assemble_plan(qrg, sink, node_path, search.edges_along(node_path))


class RandomPlanner:
    """Contention-unaware baseline (paper §5).

    Selects the highest reachable end-to-end QoS level -- it is equally
    "greedy" on QoS -- but picks uniformly at random among the feasible
    paths to it, ignoring contention indices entirely.
    """

    name = "random"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        if rng is None:
            import numpy as np

            rng = np.random.default_rng()
        self.rng = rng

    def plan(self, qrg: QoSResourceGraph) -> Optional[ReservationPlan]:
        """Compute a reservation plan for the QRG (None when infeasible)."""
        search = minimax_dijkstra(qrg.source_node, qrg.successors, tie_break=False)
        sink = _best_sink(qrg, _reachable_sinks(qrg, search))
        if sink is None:
            return None
        paths = enumerate_paths(qrg.source_node, sink, qrg.successors)
        if not paths:  # pragma: no cover - reachable sink implies >=1 path
            return None
        hops = paths[int(self.rng.integers(len(paths)))]
        node_path = [qrg.source_node] + [node for node, _w, _e in hops]
        edges = [edge for _node, _w, edge in hops]
        return assemble_plan(qrg, sink, node_path, edges)


def feasible_end_to_end_levels(qrg: QoSResourceGraph) -> List[str]:
    """Labels of all reachable end-to-end levels, best first."""
    search = minimax_dijkstra(qrg.source_node, qrg.successors)
    reachable = [node.label for node in _reachable_sinks(qrg, search)]
    return qrg.service.ranking.sorted_best_first(reachable)
