"""Weak-connectivity queries over typed digraphs.

Self-stabilization of Re-Chord is guaranteed from any *weakly connected*
initial state (Theorem 1.1): the directed overlay, viewed as an undirected
graph over all edge kinds, must have a single component.  These helpers
implement that predicate and the component decomposition used by the
experiments (e.g. to verify that crashes did not partition the overlay).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Set

from repro.graphs.digraph import TypedDigraph


def weakly_connected_components(graph: TypedDigraph) -> List[Set[Hashable]]:
    """All weakly connected components (ignoring direction and kind).

    Returned in decreasing size order (ties broken arbitrarily but
    deterministically by discovery order).
    """
    seen: Set[Hashable] = set()
    components: List[Set[Hashable]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        comp: Set[Hashable] = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in graph.successors(v) | graph.predecessors(v):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        components.append(comp)
    components.sort(key=len, reverse=True)
    return components


def is_weakly_connected(graph: TypedDigraph) -> bool:
    """Whether the graph forms a single weakly connected component.

    The empty graph is considered connected (vacuously), matching the
    convention that an empty overlay is a legal state.
    """
    if len(graph) == 0:
        return True
    return len(weakly_connected_components(graph)) == 1
