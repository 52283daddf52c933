"""Minimax ("shortest-with-max") path search (paper §4.1.2).

The paper computes the end-to-end reservation plan as the shortest path
from the QRG source to the best reachable sink **with the ``+`` operator
redefined as ``max``**: the length of a path is the maximum edge weight
along it, i.e. the contention index of the path's bottleneck resource.

Dijkstra's algorithm remains correct under this semiring because ``max``
is monotone and edge weights are non-negative.  The paper adds a
tie-breaking rule: when two predecessors yield the same (max) value for a
node, prefer the one arriving over the *smaller* edge weight.  We extend
the tie-break deterministically: smaller incoming edge weight, then
smaller predecessor distance, then lexicographically smallest predecessor.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Hashable, Iterable, List, Sequence, Tuple, TypeVar

Node = TypeVar("Node", bound=Hashable)

#: Adjacency oracle: node -> iterable of (successor, weight, edge payload).
Successors = Callable[[Node], Iterable[Tuple[Node, float, object]]]


@dataclass
class PathSearchResult(Generic[Node]):
    """Distances and predecessor links from one minimax Dijkstra run."""

    source: Node
    distance: Dict[Node, float]
    predecessor: Dict[Node, Node]
    predecessor_edge: Dict[Node, object]

    def reachable(self, node: Node) -> bool:
        """True when the node was reached by the search."""
        return node in self.distance

    def path_to(self, node: Node) -> List[Node]:
        """Node sequence from the source to ``node`` (inclusive)."""
        if node not in self.distance:
            raise KeyError(f"{node!r} is not reachable from {self.source!r}")
        source, predecessor = self.source, self.predecessor
        path = [node]
        while node != source:
            node = predecessor[node]
            path.append(node)
        path.reverse()
        return path

    def edges_along(self, path: Sequence[Node]) -> List[object]:
        """Edge payloads along a :meth:`path_to` result (None for 0-cost hops)."""
        predecessor_edge = self.predecessor_edge
        return [predecessor_edge[node] for node in path[1:]]

    def edges_to(self, node: Node) -> List[object]:
        """Edge payloads along the path to ``node`` (None for 0-cost hops)."""
        return self.edges_along(self.path_to(node))


def minimax_dijkstra(
    source: Node,
    successors: Successors,
    *,
    tie_break: bool = True,
) -> PathSearchResult[Node]:
    """Single-source minimax path search.

    Parameters
    ----------
    source:
        Start node.
    successors:
        Adjacency oracle returning ``(next_node, weight, edge)`` triples;
        weights must be >= 0.
    tie_break:
        Apply the paper's min-edge-weight tie-breaking rule.  Disabling it
        (ablation) keeps first-found predecessors.
    """
    inf = math.inf
    pop, push = heapq.heappop, heapq.heappush
    distance: Dict[Node, float] = {source: 0.0}
    predecessor: Dict[Node, Node] = {}
    predecessor_edge: Dict[Node, object] = {}
    incoming_weight: Dict[Node, float] = {}
    done: set = set()

    counter = 0
    heap: List[Tuple[float, int, Node]] = [(0.0, counter, source)]
    while heap:
        dist_u, _count, u = pop(heap)
        # A node is pushed again only with a strictly smaller distance, so
        # its best entry pops first and every later one finds it settled.
        if u in done:
            continue
        done.add(u)
        for v, weight, edge in successors(u):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight!r} on {u!r} -> {v!r}")
            candidate = weight if weight > dist_u else dist_u
            current = distance.get(v, inf)
            if candidate < current:
                distance[v] = candidate
                predecessor[v] = u
                predecessor_edge[v] = edge
                incoming_weight[v] = weight
                counter += 1
                push(heap, (candidate, counter, v))
            elif tie_break and candidate == current and v not in done and v in predecessor:
                # Same bottleneck value: prefer the smaller incoming edge
                # weight (paper's rule), then the smaller upstream value,
                # then a stable lexicographic order.  (An unreached ``v``
                # ties only at infinity, which never replaces nothing.)
                rival = predecessor[v]
                rival_weight = incoming_weight[v]
                if weight != rival_weight:
                    better = weight < rival_weight
                elif dist_u != distance[rival]:
                    better = dist_u < distance[rival]
                else:
                    better = str(u) < str(rival)
                if better:
                    predecessor[v] = u
                    predecessor_edge[v] = edge
                    incoming_weight[v] = weight
    return PathSearchResult(
        source=source,
        distance=distance,
        predecessor=predecessor,
        predecessor_edge=predecessor_edge,
    )


def enumerate_paths(
    source: Node,
    target: Node,
    successors: Successors,
    *,
    limit: int = 100000,
) -> List[List[Tuple[Node, float, object]]]:
    """All simple paths source -> target as lists of (node, weight, edge).

    Each path is represented by its hop list: entry i is ``(node_i+1,
    weight_i, edge_i)``.  Used by the contention-unaware *random* baseline
    (paper §5: "randomly selects a feasible end-to-end reservation path")
    and by brute-force test oracles.  Raises if more than ``limit`` paths
    exist (guards against accidental explosion).
    """
    paths: List[List[Tuple[Node, float, object]]] = []
    stack: List[Tuple[Node, float, object]] = []
    on_path = {source}

    def visit(node: Node) -> None:
        """Depth-first enumeration of simple paths."""
        if node == target:
            paths.append(list(stack))
            if len(paths) > limit:
                raise RuntimeError(f"more than {limit} paths from {source!r} to {target!r}")
            return
        for succ, weight, edge in successors(node):
            if succ in on_path:
                continue
            on_path.add(succ)
            stack.append((succ, weight, edge))
            visit(succ)
            stack.pop()
            on_path.discard(succ)

    visit(source)
    return paths


def path_bottleneck(path_hops: List[Tuple[Node, float, object]]) -> float:
    """The minimax length of an explicit hop list (max of weights)."""
    if not path_hops:
        return 0.0
    return max(weight for _node, weight, _edge in path_hops)
