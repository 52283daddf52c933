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

from collections import namedtuple
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


class QRGNode(namedtuple("QRGNode", ("component", "kind", "label"))):
    """Identity of one QRG node: (component, side, level label).

    A tuple underneath: nodes are hashed and compared constantly
    (adjacency indices, planner maps, the search's settled set), and a
    tuple does both in C.  Value semantics throughout -- equal fields
    mean equal, hash-equal, interchangeable nodes, ordered by
    (component, kind, label) -- whether or not two instances are one
    object (fragments shipped by remote proxies never are).
    """

    __slots__ = ()

    def __new__(cls, component: str, kind: str, label: str) -> "QRGNode":
        if kind not in ("in", "out"):
            raise ModelError(f"invalid QRG node kind: {kind!r}")
        return tuple.__new__(cls, (component, kind, label))

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}:{self[2]}"


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


#: One search hop: (next node, edge weight, intra edge or None).
Hop = Tuple[QRGNode, float, Optional[IntraEdge]]


def _grouped(pairs: Iterable[Tuple]) -> Mapping:
    """``(key, value)`` pairs as a read-only key -> tuple of its values, in order."""
    grouped: Dict = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return MappingProxyType({key: tuple(values) for key, values in grouped.items()})


class QRGStructure:
    """Everything about a QRG that (service, source level) fixes.

    The one walk over the service graph.  Nodes, equivalence edges in
    both directions, fan-in groups by input node, the sink nodes and
    every node's zero-weight search hops need neither a binding nor a
    snapshot, so they are computed here once and *shared read-only* by
    every :class:`QoSResourceGraph` over this structure -- which is why
    all of it is tuples behind a read-only mapping, and why every
    reference to a node is to one instance (:meth:`node`): dict and set
    lookups then succeed on identity without comparing fields.  A
    :class:`QRGSkeletonCache` keeps one per (service, source level,
    extras), shared by the skeletons of every binding.
    """

    def __init__(self, service: DistributedService, source_level: QoSLevel) -> None:
        source = service.graph.source
        self._interned: Dict[QRGNode, QRGNode] = {}
        node = self.node
        nodes: Dict[QRGNode, QoSLevel] = {}
        equiv_edges: List[EquivEdge] = []
        fanin_groups: List[FanInGroup] = []
        for name in service.graph.topological_order():
            component = service.component(name)
            input_levels = (source_level,) if name == source else component.input_levels
            for level in input_levels:
                nodes[node(name, "in", level.label)] = level
            for level in component.output_levels:
                nodes[node(name, "out", level.label)] = level

            upstream_names = service.graph.upstreams(name)
            if not upstream_names:
                continue
            fan_in = len(upstream_names) > 1
            for parts, combined in service.upstream_output_combinations(name):
                for match in service.equivalent_input_levels(name, combined):
                    input_node = node(name, "in", match.label)
                    part_nodes = tuple(
                        node(upstream, "out", level.label) for upstream, level in parts
                    )
                    if fan_in:
                        fanin_groups.append(FanInGroup(input_node=input_node, parts=part_nodes))
                    for part_node in part_nodes:
                        equiv_edges.append(EquivEdge(src=part_node, dst=input_node))

        self.service = service
        self.source_node = node(source, "in", source_level.label)
        self.nodes: Mapping[QRGNode, QoSLevel] = MappingProxyType(nodes)
        self.equiv_edges = tuple(equiv_edges)
        self.fanin_groups = tuple(fanin_groups)
        sink = service.sink_component
        self.sinks = tuple(node(sink.name, "out", level.label) for level in sink.output_levels)
        self.equiv_from = _grouped((eq.src, eq) for eq in equiv_edges)
        self.equiv_into = _grouped((eq.dst, eq) for eq in equiv_edges)
        self.groups_by_input = _grouped((group.input_node, group) for group in fanin_groups)
        self.equiv_hops: Mapping[QRGNode, Tuple[Hop, ...]] = _grouped(
            (eq.src, (eq.dst, 0.0, None)) for eq in equiv_edges
        )

    def node(self, component: str, kind: str, label: str) -> QRGNode:
        """The one instance this structure uses for a node identity."""
        fresh = QRGNode(component, kind, label)
        return self._interned.setdefault(fresh, fresh)


class QoSResourceGraph:
    """One session's snapshot graph: a shared structure plus priced edges.

    Only the intra-edge adjacency is built per graph; everything the
    accessors return is a tuple (or a read-only mapping), so no caller
    can reach into the structure other graphs share.
    """

    def __init__(
        self,
        structure: QRGStructure,
        intra_edges: List[IntraEdge],
        snapshot: AvailabilitySnapshot,
    ) -> None:
        self.structure = structure
        self.service = structure.service
        self.source_node = structure.source_node
        self.nodes = structure.nodes
        self.equiv_edges = structure.equiv_edges
        self.fanin_groups = structure.fanin_groups
        self.intra_edges = intra_edges
        self.snapshot = snapshot
        # ``_grouped`` minus its generator and proxy: this runs per session.
        hops: Dict[QRGNode, List[Hop]] = {}
        for edge in intra_edges:
            hops.setdefault(edge.src, []).append((edge.dst, edge.weight, edge))
        self._intra_hops = {src: tuple(bucket) for src, bucket in hops.items()}
        # Only the DAG planners ask for these two: indexed on first use.
        self._intra_from: Optional[Mapping[QRGNode, Tuple[IntraEdge, ...]]] = None
        self._intra_into: Optional[Mapping[QRGNode, Tuple[IntraEdge, ...]]] = None

    # -- topology queries --------------------------------------------------

    def sink_nodes(self) -> Tuple[QRGNode, ...]:
        """Output nodes of the sink component (end-to-end QoS levels)."""
        return self.structure.sinks

    def intra_from(self, node: QRGNode) -> Tuple[IntraEdge, ...]:
        """Intra-component edges leaving ``node``."""
        if self._intra_from is None:
            self._intra_from = _grouped((edge.src, edge) for edge in self.intra_edges)
        return self._intra_from.get(node, ())

    def intra_into(self, node: QRGNode) -> Tuple[IntraEdge, ...]:
        """Intra-component edges entering ``node``."""
        if self._intra_into is None:
            self._intra_into = _grouped((edge.dst, edge) for edge in self.intra_edges)
        return self._intra_into.get(node, ())

    def equiv_from(self, node: QRGNode) -> Tuple[EquivEdge, ...]:
        """Equivalence edges leaving ``node``."""
        return self.structure.equiv_from.get(node, ())

    def equiv_into(self, node: QRGNode) -> Tuple[EquivEdge, ...]:
        """Equivalence edges entering ``node``."""
        return self.structure.equiv_into.get(node, ())

    def groups_for_input(self, node: QRGNode) -> Tuple[FanInGroup, ...]:
        """Fan-in groups realising a fan-in input node."""
        return self.structure.groups_by_input.get(node, ())

    def successors(self, node: QRGNode) -> Sequence[Hop]:
        """(next node, edge weight, intra edge or None) -- for Dijkstra.

        Intra edges leave only ``in`` nodes and equivalences only ``out``
        nodes, so a node's hops are one ready-made tuple or the other.
        """
        return self._intra_hops.get(node) or self.structure.equiv_hops.get(node, ())

    def edge_between(self, src: QRGNode, dst: QRGNode) -> Optional[IntraEdge]:
        """The intra edge from ``src`` to ``dst``, or None."""
        for hop_dst, _weight, edge in self._intra_hops.get(src, ()):
            if hop_dst == dst:
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


@dataclass(frozen=True, slots=True)
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
    :func:`build_qrg`.  The templates' nodes are the structure's own
    instances.
    """

    structure: QRGStructure
    edge_templates: Tuple[EdgeTemplate, ...]


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


def build_skeleton(
    service: DistributedService,
    binding: Binding,
    *,
    source_label: Optional[str] = None,
    structure: Optional[QRGStructure] = None,
) -> QRGSkeleton:
    """Construct the availability-independent skeleton of a QRG.

    Nodes, equivalence edges and fan-in groups are complete;
    intra-component edges are kept as *templates* (with their bound
    requirement vectors already computed) awaiting the feasibility
    filter and psi weights of :func:`price_skeleton`.  ``structure``,
    when given, is (service, source level)'s and is shared, not rebuilt.
    """
    if structure is None:
        structure = QRGStructure(service, resolve_source_level(service, source_label))
    source_node = structure.source_node
    node = structure.node

    templates: List[EdgeTemplate] = []
    for name in service.graph.topological_order():
        allowed = frozenset({source_node.label}) if name == source_node.component else None
        for template in component_edge_templates(
            service.component(name), binding, allowed_input_labels=allowed
        ):
            # Swap the minted nodes for the structure's own instances.
            templates.append(
                replace(template, src=node(*template.src), dst=node(*template.dst))
            )
    return QRGSkeleton(structure=structure, edge_templates=tuple(templates))


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
    structure = QRGStructure(service, source_level)
    source_node = structure.source_node
    return QoSResourceGraph(
        structure,
        [
            edge
            for edge in intra_edges
            if edge.src.component != source_node.component or edge.src == source_node
        ],
        snapshot,
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
        bottleneck: Optional[str] = None
        psi = 0.0
        for resource_id, required in template.bound_items:
            value = contention_index(required, availability[resource_id])
            per_resource[resource_id] = value
            if (
                bottleneck is None
                or value > psi
                or (value == psi and resource_id > bottleneck)
            ):
                psi, bottleneck = value, resource_id
        assert bottleneck is not None
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
        skeleton.structure,
        _price_templates(skeleton.edge_templates, snapshot, contention_index),
        snapshot,
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
    identity-based caching would never hit.  The skeletons of every
    binding share one :class:`QRGStructure` per key minus the binding,
    (service name, source label, extras): a structure is binding-free.
    The cache trusts the caller
    to keep one service name pointing at one definition; anything that
    swaps a definition under a live cache must call :meth:`invalidate`
    (the explicit invalidation hook).  Holds at most
    :data:`MEMO_MAX_ENTRIES` skeletons and as many structures; a miss on
    a full memo evicts its oldest-inserted entry (an evicted key simply
    rebuilds).

    ``hits`` / ``misses`` are plain counters for benchmarks; with a
    metrics registry installed the cache also increments the
    ``qrg.skeleton_cache`` counter (label ``outcome=hit|miss``).
    """

    def __init__(self) -> None:
        self._skeletons: Dict[SkeletonKey, QRGSkeleton] = {}
        self._structures: Dict[Tuple, QRGStructure] = {}
        self.hits = 0
        self.misses = 0
        self._instruments = _metrics.Instruments()

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
                self._instruments.counter(
                    registry, "qrg.skeleton_cache", outcome="miss"
                ).inc()
            structure = self._structures.get(key[:3])
            skeleton = build_skeleton(
                service, binding, source_label=source_label, structure=structure
            )
            if structure is None:
                memoise_bounded(self._structures, key[:3], skeleton.structure)
            memoise_bounded(self._skeletons, key, skeleton)
        else:
            self.hits += 1
            if registry is not None:
                self._instruments.counter(
                    registry, "qrg.skeleton_cache", outcome="hit"
                ).inc()
        return skeleton

    def invalidate(self, service_name: Optional[str] = None) -> int:
        """Drop cached skeletons; returns how many were dropped.

        With ``service_name`` only that service's entries (and shared
        structures) go; without it the whole cache is cleared.  Call this
        whenever a service definition changes behind a name the cache has
        seen.
        """
        if service_name is None:
            dropped = len(self._skeletons)
            self._skeletons.clear()
            self._structures.clear()
            return dropped
        for key in [key for key in self._structures if key[0] == service_name]:
            del self._structures[key]
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
        The shared structures stay: they hold no binding.  Returns how
        many skeletons were dropped.
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
