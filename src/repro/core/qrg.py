"""The QoS-Resource Graph (paper §4.1.1).

A QRG is a per-session snapshot graph:

* **nodes** -- the ``Q_in`` / ``Q_out`` levels of every participating
  component (plus, implicitly, the source data quality, which is the
  source component's selected input level);
* **intra-component edges** -- from a ``Q_in`` node to a ``Q_out`` node of
  the same component, existing iff the translated requirement is
  satisfiable under current availability, weighted by the contention
  index of the edge's bottleneck resource (eq. 2-3);
* **equivalence edges** -- from a component's ``Q_out`` node to the
  equivalent ``Q_in`` node of a downstream component, weight 0.

For DAG services, a fan-in component's input node corresponds to a
*group* of upstream output nodes (its concatenation parts); the group
structure is kept explicitly for the two-pass heuristic of §4.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.component import Binding
from repro.core.errors import ModelError, PlanningError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.core.qos import QoSLevel
from repro.core.resources import (
    AvailabilitySnapshot,
    ContentionIndex,
    ResourceVector,
    ratio_contention_index,
)
from repro.core.service import DistributedService


@dataclass(frozen=True, order=True)
class QRGNode:
    """Identity of one QRG node: (component, side, level label)."""

    component: str
    kind: str  # "in" | "out"
    label: str

    def __post_init__(self) -> None:
        if self.kind not in ("in", "out"):
            raise ModelError(f"invalid QRG node kind: {self.kind!r}")
        # Nodes are hashed constantly (adjacency indices, planner maps);
        # the cached value keeps repeated hashing O(1).
        object.__setattr__(
            self, "_hash", hash((self.component, self.kind, self.label))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"{self.component}.{self.kind}:{self.label}"


@dataclass(frozen=True)
class IntraEdge:
    """A feasible (Q_in -> Q_out) edge of one component.

    ``requirement`` is slot-keyed (the component's view); ``bound`` is
    resource-id-keyed (the environment's view, after applying the
    session's binding).  ``weight`` is the max per-resource contention
    index; ``bottleneck_resource`` the arg-max resource id; ``alpha`` the
    Availability Change Index of that resource (1.0 without trend data).
    """

    src: QRGNode
    dst: QRGNode
    requirement: ResourceVector
    bound: ResourceVector
    weight: float
    bottleneck_resource: str
    alpha: float
    per_resource: Mapping[str, float] = field(hash=False, default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class EquivEdge:
    """A zero-weight equivalence edge (upstream Q_out -> downstream Q_in)."""

    src: QRGNode
    dst: QRGNode


@dataclass(frozen=True)
class FanInGroup:
    """One way to realise a fan-in input node from upstream outputs.

    ``parts`` lists the upstream output nodes whose concatenation equals
    the input node's level, in fan-in order.  The input node is usable
    only when *all* parts are reachable (AND semantics, paper §4.3.2).
    """

    input_node: QRGNode
    parts: Tuple[QRGNode, ...]


class QoSResourceGraph:
    """The constructed snapshot graph plus lookup indices."""

    def __init__(
        self,
        service: DistributedService,
        source_node: QRGNode,
        nodes: Dict[QRGNode, QoSLevel],
        intra_edges: List[IntraEdge],
        equiv_edges: List[EquivEdge],
        fanin_groups: List[FanInGroup],
        snapshot: AvailabilitySnapshot,
    ) -> None:
        self.service = service
        self.source_node = source_node
        self.nodes = nodes
        self.intra_edges = intra_edges
        self.equiv_edges = equiv_edges
        self.fanin_groups = fanin_groups
        self.snapshot = snapshot
        # Adjacency indices.
        self._out_intra: Dict[QRGNode, List[IntraEdge]] = {}
        self._in_intra: Dict[QRGNode, List[IntraEdge]] = {}
        for edge in intra_edges:
            self._out_intra.setdefault(edge.src, []).append(edge)
            self._in_intra.setdefault(edge.dst, []).append(edge)
        self._out_equiv: Dict[QRGNode, List[EquivEdge]] = {}
        self._in_equiv: Dict[QRGNode, List[EquivEdge]] = {}
        for eq in equiv_edges:
            self._out_equiv.setdefault(eq.src, []).append(eq)
            self._in_equiv.setdefault(eq.dst, []).append(eq)
        self._groups_by_input: Dict[QRGNode, List[FanInGroup]] = {}
        for group in fanin_groups:
            self._groups_by_input.setdefault(group.input_node, []).append(group)

    # -- topology queries --------------------------------------------------

    def sink_nodes(self) -> List[QRGNode]:
        """Output nodes of the sink component (end-to-end QoS levels)."""
        sink = self.service.sink_component
        return [QRGNode(sink.name, "out", level.label) for level in sink.output_levels]

    def intra_from(self, node: QRGNode) -> List[IntraEdge]:
        """Intra-component edges leaving ``node``."""
        return self._out_intra.get(node, [])

    def intra_into(self, node: QRGNode) -> List[IntraEdge]:
        """Intra-component edges entering ``node``."""
        return self._in_intra.get(node, [])

    def equiv_from(self, node: QRGNode) -> List[EquivEdge]:
        """Equivalence edges leaving ``node``."""
        return self._out_equiv.get(node, [])

    def equiv_into(self, node: QRGNode) -> List[EquivEdge]:
        """Equivalence edges entering ``node``."""
        return self._in_equiv.get(node, [])

    def groups_for_input(self, node: QRGNode) -> List[FanInGroup]:
        """Fan-in groups realising a fan-in input node."""
        return self._groups_by_input.get(node, [])

    def successors(self, node: QRGNode) -> List[Tuple[QRGNode, float, Optional[IntraEdge]]]:
        """(next node, edge weight, intra edge or None) -- for Dijkstra."""
        result: List[Tuple[QRGNode, float, Optional[IntraEdge]]] = []
        for edge in self.intra_from(node):
            result.append((edge.dst, edge.weight, edge))
        for eq in self.equiv_from(node):
            result.append((eq.dst, 0.0, None))
        return result

    def edge_between(self, src: QRGNode, dst: QRGNode) -> Optional[IntraEdge]:
        """The intra edge from ``src`` to ``dst``, or None."""
        for edge in self.intra_from(src):
            if edge.dst == dst:
                return edge
        return None

    def count_nodes(self) -> int:
        """Number of QRG nodes."""
        return len(self.nodes)

    def count_edges(self) -> int:
        """Number of QRG edges (intra + equivalence)."""
        return len(self.intra_edges) + len(self.equiv_edges)


def resolve_source_level(
    service: DistributedService, source_label: Optional[str] = None
) -> QoSLevel:
    """The session's source data quality level (paper §4.1.1)."""
    source_component = service.source_component
    if source_label is None:
        if len(source_component.input_levels) != 1:
            raise PlanningError(
                f"source component {source_component.name!r} has several input levels "
                f"({[l.label for l in source_component.input_levels]}); pass source_label"
            )
        return source_component.input_levels[0]
    return source_component.input_level(source_label)


# ---------------------------------------------------------------------------
# Skeleton / pricing split (availability-independent vs per-snapshot).
#
# Only two things about a QRG depend on the availability snapshot: which
# intra-component edges survive the feasibility filter, and the psi
# weights (paper §4.1).  Everything else -- the node set, the equivalence
# edges, the fan-in groups, and the *bound* requirement vector of every
# candidate edge -- is a pure function of (service, binding, source
# level).  A :class:`QRGSkeleton` captures that invariant half once, so
# repeated sessions with the same (service, binding) pay only the cheap
# per-snapshot pricing pass.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeTemplate:
    """One candidate (Q_in -> Q_out) edge before feasibility/pricing.

    ``requirement`` is slot-keyed, ``bound`` resource-id-keyed -- exactly
    the two vectors an :class:`IntraEdge` carries, minus the
    snapshot-dependent weight fields.  ``bound_items`` repeats the bound
    vector as a flat tuple so the per-snapshot pricing loop iterates
    without Mapping-protocol overhead.
    """

    src: QRGNode
    dst: QRGNode
    requirement: ResourceVector
    bound: ResourceVector
    bound_items: Tuple[Tuple[str, float], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.bound_items:
            object.__setattr__(self, "bound_items", tuple(self.bound.items()))


@dataclass(frozen=True)
class QRGSkeleton:
    """The availability-independent half of a QRG.

    Immutable and reusable across snapshots: :func:`price_skeleton`
    turns it plus one :class:`AvailabilitySnapshot` into a full
    :class:`QoSResourceGraph` identical to a from-scratch
    :func:`build_qrg`.
    """

    service: DistributedService
    source_node: QRGNode
    source_level: QoSLevel
    nodes: Tuple[Tuple[QRGNode, QoSLevel], ...]
    edge_templates: Tuple[EdgeTemplate, ...]
    equiv_edges: Tuple[EquivEdge, ...]
    fanin_groups: Tuple[FanInGroup, ...]


def component_edge_templates(
    component,
    binding: Binding,
    *,
    allowed_input_labels: Optional[frozenset] = None,
) -> List[EdgeTemplate]:
    """Unpriced candidate edges of ONE component (the local half)."""
    templates: List[EdgeTemplate] = []
    for qin, qout, requirement in component.supported_pairs():
        if allowed_input_labels is not None and qin.label not in allowed_input_labels:
            continue
        templates.append(
            EdgeTemplate(
                src=QRGNode(component.name, "in", qin.label),
                dst=QRGNode(component.name, "out", qout.label),
                requirement=requirement,
                bound=binding.bind_requirement(component.name, requirement),
            )
        )
    return templates


def _walk_structure(
    service: DistributedService, source_level: QoSLevel
) -> Tuple[QRGNode, Dict[QRGNode, QoSLevel], List[EquivEdge], List[FanInGroup]]:
    """Source node, nodes, equivalence edges and fan-in groups of a QRG.

    The one walk over the service graph: everything here is a function
    of (service, source level) alone -- no binding, no snapshot -- so the
    skeleton (:func:`build_skeleton`) and the stitching of remotely
    priced fragments (:func:`assemble_qrg`) both take it from here.
    """
    source = service.graph.source
    nodes: Dict[QRGNode, QoSLevel] = {}
    equiv_edges: List[EquivEdge] = []
    fanin_groups: List[FanInGroup] = []

    for name in service.graph.topological_order():
        component = service.component(name)
        input_levels = (source_level,) if name == source else component.input_levels
        for level in input_levels:
            nodes[QRGNode(name, "in", level.label)] = level
        for level in component.output_levels:
            nodes[QRGNode(name, "out", level.label)] = level

        upstream_names = service.graph.upstreams(name)
        if not upstream_names:
            continue
        fan_in = len(upstream_names) > 1
        for parts, combined in service.upstream_output_combinations(name):
            matches = service.equivalent_input_levels(name, combined)
            for match in matches:
                input_node = QRGNode(name, "in", match.label)
                part_nodes = tuple(
                    QRGNode(upstream, "out", level.label) for upstream, level in parts
                )
                if fan_in:
                    fanin_groups.append(FanInGroup(input_node=input_node, parts=part_nodes))
                    for part_node in part_nodes:
                        equiv_edges.append(EquivEdge(src=part_node, dst=input_node))
                else:
                    equiv_edges.append(EquivEdge(src=part_nodes[0], dst=input_node))

    return QRGNode(source, "in", source_level.label), nodes, equiv_edges, fanin_groups


def build_skeleton(
    service: DistributedService,
    binding: Binding,
    *,
    source_label: Optional[str] = None,
) -> QRGSkeleton:
    """Construct the availability-independent skeleton of a QRG.

    Nodes, equivalence edges and fan-in groups are complete;
    intra-component edges are kept as *templates* (with their bound
    requirement vectors already computed) awaiting the feasibility
    filter and psi weights of :func:`price_skeleton`.
    """
    source_level = resolve_source_level(service, source_label)
    source_node, nodes, equiv_edges, fanin_groups = _walk_structure(service, source_level)

    templates: List[EdgeTemplate] = []
    for name in service.graph.topological_order():
        allowed = frozenset({source_level.label}) if name == source_node.component else None
        templates.extend(
            component_edge_templates(
                service.component(name), binding, allowed_input_labels=allowed
            )
        )

    return QRGSkeleton(
        service=service,
        source_node=source_node,
        source_level=source_level,
        nodes=tuple(nodes.items()),
        edge_templates=tuple(templates),
        equiv_edges=tuple(equiv_edges),
        fanin_groups=tuple(fanin_groups),
    )


def assemble_qrg(
    service: DistributedService,
    source_level: QoSLevel,
    intra_edges: List[IntraEdge],
    snapshot: AvailabilitySnapshot,
) -> QoSResourceGraph:
    """The *structural* half around already-priced edges.

    ``intra_edges`` are fragments shipped by remote proxies (the
    distributed approach of §3).  Edges from input levels other than
    the selected source level of the source component are dropped here,
    so remote pricers need not know which source level the session
    selected.
    """
    source_node, nodes, equiv_edges, fanin_groups = _walk_structure(service, source_level)
    return QoSResourceGraph(
        service=service,
        source_node=source_node,
        nodes=nodes,
        intra_edges=[
            edge
            for edge in intra_edges
            if edge.src.component != source_node.component or edge.src == source_node
        ],
        equiv_edges=equiv_edges,
        fanin_groups=fanin_groups,
        snapshot=snapshot,
    )


def _new_intra_edge(
    src: QRGNode,
    dst: QRGNode,
    requirement: ResourceVector,
    bound: ResourceVector,
    weight: float,
    bottleneck_resource: str,
    alpha: float,
    per_resource: Dict[str, float],
) -> IntraEdge:
    """Construct an :class:`IntraEdge` without the frozen-dataclass
    ``object.__setattr__``-per-field ceremony (~2.4x cheaper).

    Pricing creates one instance per feasible edge per session, which
    makes construction itself a measurable share of the planning hot
    path.  Field set and semantics are identical to the generated
    ``__init__`` (IntraEdge has no ``__post_init__``).
    """
    edge = object.__new__(IntraEdge)
    edge.__dict__.update(
        src=src,
        dst=dst,
        requirement=requirement,
        bound=bound,
        weight=weight,
        bottleneck_resource=bottleneck_resource,
        alpha=alpha,
        per_resource=per_resource,
    )
    return edge


def _price_templates(
    templates: Iterable[EdgeTemplate],
    snapshot: AvailabilitySnapshot,
    contention_index: Optional[ContentionIndex],
) -> List[IntraEdge]:
    """The one pricing rule (paper eq. 2-3): feasibility filter + psi.

    A template becomes an edge iff every bound requirement fits the
    snapshot; its weight is the largest per-resource index, ties going
    to the larger resource id, and ``alpha`` is that bottleneck's.  A
    snapshot lacking a bound resource raises, naming the first missing
    one in template order.  ``None`` means the ratio index.

    This is ``bound.satisfiable_under`` + ``bound.contention`` inlined
    (property-tested against them): the loop runs per session, and the
    Mapping-protocol round trips are measurable at that frequency.
    """
    if contention_index is None:
        contention_index = ratio_contention_index
    availability = snapshot.availability()
    intra_edges: List[IntraEdge] = []
    for template in templates:
        feasible = True
        for resource_id, required in template.bound_items:
            available = availability.get(resource_id)
            if available is None:
                raise PlanningError(
                    f"snapshot lacks resource {resource_id!r} needed by "
                    f"component {template.src.component!r}"
                )
            if required > available:
                feasible = False
        if not feasible:
            continue
        per_resource: Dict[str, float] = {}
        best: Optional[Tuple[float, str]] = None
        for resource_id, required in template.bound_items:
            value = contention_index(required, availability[resource_id])
            per_resource[resource_id] = value
            if best is None or (value, resource_id) > best:
                best = (value, resource_id)
        assert best is not None
        psi, bottleneck = best
        intra_edges.append(
            _new_intra_edge(
                template.src,
                template.dst,
                template.requirement,
                template.bound,
                psi,
                bottleneck,
                snapshot[bottleneck].alpha,
                per_resource,
            )
        )
    return intra_edges


def price_component_edges(
    component,
    binding: Binding,
    snapshot: AvailabilitySnapshot,
    *,
    allowed_input_labels: Optional[frozenset] = None,
    contention_index: Optional[ContentionIndex] = ratio_contention_index,
) -> List[IntraEdge]:
    """Feasible, priced (Q_in -> Q_out) edges of ONE component.

    This is the *local* half of QRG construction: it needs only the
    component's own definition, its slot binding, and the availability of
    the resources it touches -- which is why, in the distributed model
    store of §3, each host's QoSProxy can compute its own component's
    fragment and ship it to the main proxy.
    """
    templates = component_edge_templates(
        component, binding, allowed_input_labels=allowed_input_labels
    )
    return _price_templates(templates, snapshot, contention_index)


def price_skeleton(
    skeleton: QRGSkeleton,
    snapshot: AvailabilitySnapshot,
    *,
    contention_index: Optional[ContentionIndex] = ratio_contention_index,
) -> QoSResourceGraph:
    """The cheap per-snapshot pass: feasibility filter + psi weights.

    Produces a graph equal (same nodes, edges, weights) to calling
    :func:`build_qrg` from scratch against the same snapshot.
    """
    return QoSResourceGraph(
        service=skeleton.service,
        source_node=skeleton.source_node,
        nodes=dict(skeleton.nodes),
        intra_edges=_price_templates(skeleton.edge_templates, snapshot, contention_index),
        equiv_edges=list(skeleton.equiv_edges),
        fanin_groups=list(skeleton.fanin_groups),
        snapshot=snapshot,
    )


#: Cache key: (service name, source label, extra discriminators, binding items).
SkeletonKey = Tuple

#: Most entries a per-session-key memo may hold.  ``demand_scale`` is
#: part of the key and arrives off the wire as any positive float, so an
#: unbounded memo grows for the life of a daemon; the §5.1 working set is
#: at most 96 keys, an order of magnitude below this.
MEMO_MAX_ENTRIES = 1024


def memoise_bounded(memo: Dict, key, value) -> None:
    """Insert on a miss, first evicting the oldest-inserted entry if full."""
    if len(memo) >= MEMO_MAX_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value


class QRGSkeletonCache:
    """Memoises :func:`build_skeleton` results across sessions.

    Keyed *by value* on (service name, source label, caller-supplied
    extras, binding contents) -- bindings are rebuilt per session, so
    identity-based caching would never hit.  The cache trusts the caller
    to keep one service name pointing at one definition; anything that
    swaps a definition under a live cache must call :meth:`invalidate`
    (the explicit invalidation hook).  Holds at most
    :data:`MEMO_MAX_ENTRIES` skeletons; a miss on a full cache evicts the
    oldest-inserted one (an evicted key simply rebuilds).

    ``hits`` / ``misses`` are plain counters for benchmarks; with a
    metrics registry installed the cache also increments the
    ``qrg.skeleton_cache`` counter (label ``outcome=hit|miss``).
    """

    def __init__(self) -> None:
        self._skeletons: Dict[SkeletonKey, QRGSkeleton] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def binding_key(binding: Binding) -> Tuple:
        """Hashable by-value key of a session binding."""
        return tuple(sorted(binding.items()))

    def skeleton_for(
        self,
        service: DistributedService,
        binding: Binding,
        *,
        source_label: Optional[str] = None,
        extra: Tuple = (),
    ) -> QRGSkeleton:
        """The (possibly cached) skeleton for (service, binding).

        ``extra`` lets callers add discriminators that change the service
        definition without changing its name -- e.g. the coordinator's
        per-session ``demand_scale``.
        """
        key: SkeletonKey = (service.name, source_label, extra, self.binding_key(binding))
        skeleton = self._skeletons.get(key)
        registry = _metrics.active_registry()
        if skeleton is None:
            self.misses += 1
            if registry is not None:
                registry.counter("qrg.skeleton_cache", outcome="miss").inc()
            skeleton = build_skeleton(service, binding, source_label=source_label)
            memoise_bounded(self._skeletons, key, skeleton)
        else:
            self.hits += 1
            if registry is not None:
                registry.counter("qrg.skeleton_cache", outcome="hit").inc()
        return skeleton

    def invalidate(self, service_name: Optional[str] = None) -> int:
        """Drop cached skeletons; returns how many were dropped.

        With ``service_name`` only that service's entries go; without it
        the whole cache is cleared.  Call this whenever a service
        definition changes behind a name the cache has seen.
        """
        if service_name is None:
            dropped = len(self._skeletons)
            self._skeletons.clear()
            return dropped
        stale = [key for key in self._skeletons if key[0] == service_name]
        for key in stale:
            del self._skeletons[key]
        return len(stale)

    def invalidate_resources(self, resource_ids) -> int:
        """Drop skeletons whose binding touches any of ``resource_ids``.

        The per-host invalidation hook: when a host fails (or its
        resources are rebound), only the skeletons bound to its
        resources are stale -- every other service keeps its warm
        entry, so fault recovery does not cold-start the whole cache.
        Returns how many skeletons were dropped.
        """
        doomed = set(resource_ids)
        if not doomed:
            return 0
        # Key element 3 is the binding's ((component, slot), resource_id)
        # items, so membership is decidable without the skeletons.
        stale = [
            key
            for key in self._skeletons
            if any(rid in doomed for _slot, rid in key[3])
        ]
        for key in stale:
            del self._skeletons[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._skeletons)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (for benchmarks and reports)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._skeletons)}


def build_qrg(
    service: DistributedService,
    binding: Binding,
    snapshot: AvailabilitySnapshot,
    *,
    source_label: Optional[str] = None,
    contention_index: ContentionIndex = ratio_contention_index,
    skeleton_cache: Optional[QRGSkeletonCache] = None,
) -> QoSResourceGraph:
    """Construct the QRG for one session (paper §4.1.1).

    Parameters
    ----------
    service:
        The QoS-Resource Model definition.
    binding:
        Per-session mapping of (component, slot) -> concrete resource id.
    snapshot:
        Per-resource observations (availability + availability change
        index) collected from the Resource Brokers.
    source_label:
        Which input level of the source component is the session's source
        data quality.  Defaults to the source component's sole input
        level; required when it has several.
    contention_index:
        The psi definition (paper footnote 2 allows alternatives).
    skeleton_cache:
        Reuse availability-independent skeletons across calls (the graph
        is identical either way; only construction cost changes).
    """
    with _trace.span("qrg_build", service=service.name) as span:
        if skeleton_cache is not None:
            skeleton = skeleton_cache.skeleton_for(
                service, binding, source_label=source_label
            )
        else:
            skeleton = build_skeleton(service, binding, source_label=source_label)
        qrg = price_skeleton(skeleton, snapshot, contention_index=contention_index)
        span.set(nodes=qrg.count_nodes(), edges=qrg.count_edges())
        return qrg
