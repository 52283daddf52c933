"""Tests for the minimax path search, incl. brute-force cross-checks."""

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import enumerate_paths, minimax_dijkstra, path_bottleneck


def adjacency(edges):
    """edges: dict[(u, v)] = weight -> successors oracle."""
    table = {}
    for (u, v), w in edges.items():
        table.setdefault(u, []).append((v, w, (u, v)))
    return lambda node: table.get(node, [])


class TestMinimaxDijkstra:
    def test_trivial_source(self):
        result = minimax_dijkstra("s", adjacency({}))
        assert result.distance == {"s": 0.0}
        assert result.path_to("s") == ["s"]

    def test_single_edge(self):
        result = minimax_dijkstra("s", adjacency({("s", "t"): 0.5}))
        assert result.distance["t"] == 0.5
        assert result.path_to("t") == ["s", "t"]
        assert result.edges_to("t") == [("s", "t")]

    def test_bottleneck_not_sum(self):
        # sum would prefer the two-hop 0.3+0.3; minimax prefers max=0.4? no:
        # path A: s->a->t with weights 0.3, 0.3 => bottleneck 0.3
        # path B: s->t with weight 0.4         => bottleneck 0.4
        edges = {("s", "a"): 0.3, ("a", "t"): 0.3, ("s", "t"): 0.4}
        result = minimax_dijkstra("s", adjacency(edges))
        assert result.distance["t"] == pytest.approx(0.3)
        assert result.path_to("t") == ["s", "a", "t"]

    def test_unreachable_node(self):
        result = minimax_dijkstra("s", adjacency({("s", "a"): 0.1}))
        assert not result.reachable("z")
        with pytest.raises(KeyError):
            result.path_to("z")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            minimax_dijkstra("s", adjacency({("s", "t"): -0.1}))

    def test_tie_break_prefers_smaller_incoming_edge(self):
        # Both predecessors give max(a, w) = 0.5 (their own dist is 0.5);
        # the tie-break must pick the smaller final edge weight (paper rule).
        edges = {
            ("s", "a"): 0.5,
            ("s", "b"): 0.5,
            ("a", "t"): 0.2,
            ("b", "t"): 0.4,
        }
        result = minimax_dijkstra("s", adjacency(edges), tie_break=True)
        assert result.distance["t"] == 0.5
        assert result.path_to("t")[1] == "a"

    def test_tie_break_disabled_keeps_first(self):
        edges = {
            ("s", "a"): 0.5,
            ("s", "b"): 0.5,
            ("a", "t"): 0.4,
            ("b", "t"): 0.2,
        }
        result = minimax_dijkstra("s", adjacency(edges), tie_break=False)
        # first relaxation wins: whichever of a/b is expanded first (a: counter order)
        assert result.distance["t"] == 0.5

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(42)
        for _trial in range(40):
            n = int(rng.integers(4, 9))
            nodes = list(range(n))
            edges = {}
            for u, v in itertools.combinations(nodes, 2):
                if rng.random() < 0.5:
                    edges[(u, v)] = float(rng.uniform(0, 1))
            oracle = adjacency(edges)
            result = minimax_dijkstra(0, oracle)
            for target in nodes[1:]:
                paths = enumerate_paths(0, target, oracle)
                if not paths:
                    assert not result.reachable(target)
                    continue
                best = min(path_bottleneck(p) for p in paths)
                assert result.distance[target] == pytest.approx(best), (
                    edges,
                    target,
                )

    def test_path_distance_consistency(self):
        rng = np.random.default_rng(7)
        nodes = list(range(8))
        edges = {}
        for u, v in itertools.combinations(nodes, 2):
            if rng.random() < 0.6:
                edges[(u, v)] = float(rng.uniform(0, 1))
        result = minimax_dijkstra(0, adjacency(edges))
        for target in nodes[1:]:
            if not result.reachable(target):
                continue
            path = result.path_to(target)
            hops = list(zip(path, path[1:]))
            assert max(edges[h] for h in hops) == pytest.approx(result.distance[target])


def reference_minimax_dijkstra(source, successors, tie_break):
    """The PR 19 search loop, verbatim: what the lean loop must equal.

    Returns ``(distance, predecessor, predecessor_edge)``.
    """
    distance = {source: 0.0}
    predecessor = {}
    predecessor_edge = {}
    incoming_weight = {source: -math.inf}
    done = set()

    counter = 0
    heap = [(0.0, counter, source)]
    while heap:
        dist_u, _count, u = heapq.heappop(heap)
        if u in done:
            continue
        if dist_u > distance.get(u, math.inf):
            continue  # stale entry
        done.add(u)
        for v, weight, edge in successors(u):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight!r} on {u!r} -> {v!r}")
            candidate = max(dist_u, weight)
            current = distance.get(v, math.inf)
            if candidate < current:
                distance[v] = candidate
                predecessor[v] = u
                predecessor_edge[v] = edge
                incoming_weight[v] = weight
                counter += 1
                heapq.heappush(heap, (candidate, counter, v))
            elif tie_break and candidate == current and v not in done:
                better = (weight, dist_u, str(u)) < (
                    incoming_weight.get(v, math.inf),
                    distance.get(predecessor.get(v, u), math.inf),
                    str(predecessor.get(v, u)),
                )
                if better:
                    predecessor[v] = u
                    predecessor_edge[v] = edge
                    incoming_weight[v] = weight
    return distance, predecessor, predecessor_edge


#: Names sharing prefixes, so the lexicographic level of the tie-break
#: has to compare past the first character ("n1" < "n10" < "n2").
NODE_NAMES = ["n", "n1", "n10", "n2", "na", "nab", "nb"]
#: Few distinct weights, 0.0 and infinity among them: ties at every
#: level, zero-weight hops and the "reached only at infinity" corner
#: (psi of a zero requirement on an exhausted resource) all occur.
WEIGHTS = [0.0, 0.25, 0.5, math.inf]


@st.composite
def small_graphs(draw):
    """``(edge list, successors oracle)``; parallel edges and cycles allowed."""
    node = st.sampled_from(NODE_NAMES)
    edges = draw(
        st.lists(st.tuples(node, node, st.sampled_from(WEIGHTS)), min_size=1, max_size=24)
    )
    table = {}
    for index, (u, v, weight) in enumerate(edges):
        table.setdefault(u, []).append((v, weight, (u, v, index)))
    return edges, lambda n: table.get(n, [])


class TestPinnedToTheLoopItReplaces:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.booleans())
    def test_equals_the_reference_loop_exactly(self, graph, tie_break):
        _edges, oracle = graph
        distance, predecessor, predecessor_edge = reference_minimax_dijkstra(
            "n", oracle, tie_break
        )
        result = minimax_dijkstra("n", oracle, tie_break=tie_break)
        # Items in order: same values *and* the same settling sequence.
        assert list(result.distance.items()) == list(distance.items())
        assert result.predecessor == predecessor
        assert result.predecessor_edge == predecessor_edge
        for target in distance:
            path = result.path_to(target)
            assert path[0] == "n" and path[-1] == target
            assert result.edges_to(target) == [predecessor_edge[n] for n in path[1:]]
            assert result.edges_along(path) == result.edges_to(target)

    @settings(max_examples=50, deadline=None)
    @given(small_graphs(), st.booleans())
    def test_a_reachable_negative_weight_still_raises(self, graph, tie_break):
        edges, _oracle = graph
        reachable = reference_minimax_dijkstra("n", _oracle, tie_break)[0]
        table = {}
        for u, v, weight in edges:
            table.setdefault(u, []).append((v, weight, None))
        table.setdefault(sorted(reachable)[-1], []).append(("n", -0.25, None))
        with pytest.raises(ValueError, match="negative edge weight"):
            minimax_dijkstra("n", lambda n: table.get(n, []), tie_break=tie_break)


class TestEnumeratePaths:
    def test_enumerates_all_simple_paths(self):
        edges = {("s", "a"): 1, ("s", "b"): 2, ("a", "t"): 3, ("b", "t"): 4, ("a", "b"): 5}
        paths = enumerate_paths("s", "t", adjacency(edges))
        signatures = {tuple(n for n, _w, _e in p) for p in paths}
        assert signatures == {("a", "t"), ("b", "t"), ("a", "b", "t")}

    def test_no_paths(self):
        assert enumerate_paths("s", "t", adjacency({("s", "a"): 1})) == []

    def test_limit_guard(self):
        # complete layered graph with many paths
        edges = {}
        layers = [["s"]] + [[f"n{i}{j}" for j in range(3)] for i in range(5)] + [["t"]]
        for a, b in zip(layers, layers[1:]):
            for u in a:
                for v in b:
                    edges[(u, v)] = 0.1
        with pytest.raises(RuntimeError, match="more than"):
            enumerate_paths("s", "t", adjacency(edges), limit=10)

    def test_path_bottleneck_empty(self):
        assert path_bottleneck([]) == 0.0
