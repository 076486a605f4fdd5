"""Graph substrate: union-find, typed digraph, connectivity, generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.connectivity import is_weakly_connected, weakly_connected_components
from repro.graphs.digraph import EdgeKind, TypedDigraph
from repro.graphs.generators import (
    gnp_connected_graph,
    line_graph,
    lollipop_graph,
    random_orientation,
    random_spanning_tree,
    star_graph,
    two_cliques_bridge,
)
from repro.graphs.unionfind import UnionFind


def build_typed_digraph(nodes, directed_edges) -> TypedDigraph:
    """A :class:`TypedDigraph` of unmarked edges over explicit nodes."""
    g = TypedDigraph()
    for v in nodes:
        g.add_node(v)
    for u, v in directed_edges:
        g.add_edge(u, v)
    return g


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(range(5))
        assert uf.component_count == 5

    def test_union_reduces_components(self):
        uf = UnionFind(range(4))
        assert uf.union(0, 1)
        assert uf.component_count == 3

    def test_union_idempotent(self):
        uf = UnionFind(range(3))
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_connected_transitivity(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)
        assert uf.find(1) != uf.find(4)

    def test_lazy_registration(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert uf.component_count == 1

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=50))
    def test_matches_naive_reachability(self, pairs):
        uf = UnionFind(range(21))
        adj = {i: {i} for i in range(21)}
        for a, b in pairs:
            uf.union(a, b)
            # naive merge
            merged = adj[a] | adj[b]
            for v in merged:
                adj[v] = merged
        for a in range(0, 21, 5):
            for b in range(0, 21, 3):
                assert (uf.find(a) == uf.find(b)) == (b in adj[a])


class TestTypedDigraph:
    def test_add_edge_creates_nodes(self):
        g = TypedDigraph()
        g.add_edge(1, 2)
        assert set(g.nodes()) == {1, 2} and g.successors(1) == {2}

    def test_parallel_kinds(self):
        g = TypedDigraph()
        g.add_edge(1, 2, EdgeKind.UNMARKED)
        g.add_edge(1, 2, EdgeKind.RING)
        assert g.edge_count() == 2
        assert g.successors(1, EdgeKind.RING) == {2}
        assert g.edge_count(EdgeKind.CONNECTION) == 0

    def test_duplicate_edge_rejected(self):
        g = TypedDigraph()
        assert g.add_edge(1, 2)
        assert not g.add_edge(1, 2)
        assert g.edge_count() == 1

    def test_successors_by_kind(self):
        g = TypedDigraph()
        g.add_edge(1, 2, EdgeKind.UNMARKED)
        g.add_edge(1, 3, EdgeKind.CONNECTION)
        assert g.successors(1) == {2, 3}
        assert g.successors(1, EdgeKind.CONNECTION) == {3}

    def test_predecessors(self):
        g = TypedDigraph()
        g.add_edge(1, 2)
        g.add_edge(3, 2, EdgeKind.RING)
        assert g.predecessors(2) == {1, 3}
        assert g.predecessors(2, EdgeKind.RING) == {3}

    def test_unknown_node_raises(self):
        g = TypedDigraph()
        with pytest.raises(KeyError):
            g.successors(99)


class TestConnectivity:
    def test_empty_graph_connected(self):
        assert is_weakly_connected(TypedDigraph())

    def test_single_node(self):
        g = TypedDigraph()
        g.add_node(1)
        assert is_weakly_connected(g)

    def test_direction_ignored(self):
        g = build_typed_digraph([0, 1, 2], [(1, 0), (1, 2)])
        assert is_weakly_connected(g)

    def test_disconnected(self):
        g = build_typed_digraph([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert not is_weakly_connected(g)
        comps = weakly_connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_sorted_by_size(self):
        g = build_typed_digraph(range(6), [(0, 1), (1, 2), (3, 4)])
        comps = weakly_connected_components(g)
        assert [len(c) for c in comps] == [3, 2, 1]

    def test_all_kinds_count(self):
        g = TypedDigraph()
        g.add_edge(0, 1, EdgeKind.CONNECTION)
        g.add_edge(1, 2, EdgeKind.RING)
        assert is_weakly_connected(g)


class TestGenerators:
    def test_spanning_tree_edge_count(self):
        rng = random.Random(0)
        assert len(random_spanning_tree(10, rng)) == 9

    def test_spanning_tree_connected(self):
        rng = random.Random(1)
        for n in (2, 5, 17):
            edges = random_spanning_tree(n, rng)
            g = build_typed_digraph(range(n), edges)
            assert is_weakly_connected(g)

    def test_spanning_tree_single_node(self):
        assert random_spanning_tree(1, random.Random(0)) == []

    def test_spanning_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            random_spanning_tree(0, random.Random(0))

    def test_gnp_contains_tree(self):
        rng = random.Random(2)
        edges = gnp_connected_graph(12, 0.3, rng)
        assert len(edges) >= 11
        g = build_typed_digraph(range(12), edges)
        assert is_weakly_connected(g)

    def test_gnp_no_duplicates_or_loops(self):
        rng = random.Random(3)
        edges = gnp_connected_graph(15, 0.5, rng)
        seen = {frozenset(e) for e in edges}
        assert len(seen) == len(edges)
        assert all(a != b for a, b in edges)

    def test_gnp_probability_bounds(self):
        with pytest.raises(ValueError):
            gnp_connected_graph(5, 1.5, random.Random(0))

    def test_gnp_p1_is_complete(self):
        edges = gnp_connected_graph(6, 1.0, random.Random(0))
        assert len(edges) == 15

    def test_line(self):
        assert line_graph(4) == [(0, 1), (1, 2), (2, 3)]

    def test_star(self):
        assert star_graph(4) == [(0, 1), (0, 2), (0, 3)]

    def test_two_cliques_connected(self):
        g = build_typed_digraph(range(8), two_cliques_bridge(8))
        assert is_weakly_connected(g)

    def test_lollipop_connected(self):
        g = build_typed_digraph(range(9), lollipop_graph(9))
        assert is_weakly_connected(g)

    def test_shapes_reject_tiny(self):
        with pytest.raises(ValueError):
            two_cliques_bridge(1)
        with pytest.raises(ValueError):
            lollipop_graph(1)

    def test_orientation_preserves_weak_connectivity(self):
        rng = random.Random(4)
        for n in (3, 8, 20):
            und = gnp_connected_graph(n, 0.2, rng)
            directed = random_orientation(und, rng)
            g = build_typed_digraph(range(n), directed)
            assert is_weakly_connected(g)

    @given(st.integers(2, 30), st.integers(0, 10_000))
    def test_random_generators_always_connected(self, n, seed):
        rng = random.Random(seed)
        edges = random_orientation(gnp_connected_graph(n, 0.1, rng), rng)
        g = build_typed_digraph(range(n), edges)
        assert is_weakly_connected(g)
