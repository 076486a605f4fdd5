"""Initial-topology generators.

The paper's simulations (Section 5) start from "a random undirected weakly
connected graph" over the real nodes with random identifiers.  We reproduce
that generator (random spanning tree + extra G(n, p) edges, randomly
oriented) and add the degenerate/adversarial shapes used by the robustness
tests: lines, stars, bridged cliques, lollipops.

All generators operate on abstract node labels ``0..n-1``; the workload
layer (:mod:`repro.workloads.initial`) maps them onto peers with random
identifiers.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

UndirectedEdge = Tuple[int, int]


def random_spanning_tree(n: int, rng: random.Random) -> List[UndirectedEdge]:
    """Uniform-ish random spanning tree via a random-permutation attachment.

    Each node (in shuffled order) attaches to a uniformly random earlier
    node, yielding a random recursive tree — connected by construction and
    cheap to sample.  (A uniform spanning tree via Wilson's algorithm is
    unnecessary here: the paper only requires "random weakly connected".)
    """
    if n < 1:
        raise ValueError("need at least one node")
    order = list(range(n))
    rng.shuffle(order)
    edges: List[UndirectedEdge] = []
    for idx in range(1, n):
        parent = order[rng.randrange(idx)]
        edges.append((parent, order[idx]))
    return edges


def gnp_connected_graph(
    n: int,
    extra_edge_prob: float,
    rng: random.Random,
) -> List[UndirectedEdge]:
    """Random connected undirected graph: spanning tree plus G(n, p) edges.

    ``extra_edge_prob`` is the independent inclusion probability of each
    non-tree pair.  The result has no duplicate edges or self-loops.
    """
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {extra_edge_prob}")
    tree = random_spanning_tree(n, rng)
    present = {frozenset(e) for e in tree}
    edges = list(tree)
    if extra_edge_prob > 0.0:
        for u in range(n):
            for v in range(u + 1, n):
                if frozenset((u, v)) in present:
                    continue
                if rng.random() < extra_edge_prob:
                    edges.append((u, v))
                    present.add(frozenset((u, v)))
    return edges


def line_graph(n: int) -> List[UndirectedEdge]:
    """Path 0-1-2-...-(n-1): the worst case for information spreading."""
    return [(i, i + 1) for i in range(n - 1)]


def star_graph(n: int) -> List[UndirectedEdge]:
    """Star with hub 0: maximal initial degree concentration."""
    return [(0, i) for i in range(1, n)]


def two_cliques_bridge(n: int) -> List[UndirectedEdge]:
    """Two cliques of ~n/2 nodes joined by a single bridge edge.

    Stress-tests stabilization across a sparse cut.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    half = n // 2
    edges: List[UndirectedEdge] = []
    for u in range(half):
        for v in range(u + 1, half):
            edges.append((u, v))
    for u in range(half, n):
        for v in range(u + 1, n):
            edges.append((u, v))
    edges.append((half - 1, half))
    return edges


def lollipop_graph(n: int) -> List[UndirectedEdge]:
    """Clique of ~n/2 nodes with a tail path: mixing-time stress shape."""
    if n < 2:
        raise ValueError("need at least two nodes")
    half = max(2, n // 2)
    edges: List[UndirectedEdge] = []
    for u in range(half):
        for v in range(u + 1, half):
            edges.append((u, v))
    for i in range(half - 1, n - 1):
        edges.append((i, i + 1))
    return edges


def random_orientation(
    edges: Sequence[UndirectedEdge],
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Orient each undirected edge in a uniformly random direction.

    Weak connectivity is preserved by definition (direction is ignored),
    which matches the paper's model: the initial digraph only needs to be
    *weakly* connected.
    """
    return [(u, v) if rng.random() < 0.5 else (v, u) for (u, v) in edges]
