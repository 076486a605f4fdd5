"""A small directed multigraph with typed edges.

The Re-Chord overlay graph carries edges of several kinds (the paper's
``E_u``, ``E_r``, ``E_c`` plus this reproduction's real-pointer kind); the
same ordered pair may appear once per kind, making the graph a multigraph
exactly as Section 2.2 allows.  This container is used for topology
snapshots, metrics and the ideal-topology oracle; the live protocol keeps
its own per-peer adjacency for locality.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterator, Set


class EdgeKind(enum.Enum):
    """Edge markings of the Re-Chord overlay graph."""

    UNMARKED = "u"  #: the paper's E_u — linearization substrate
    RING = "r"      #: the paper's E_r — seam-closing ring edges
    CONNECTION = "c"  #: the paper's E_c — sibling-chain repair edges
    REAL_POINTER = "p"  #: rl/rr/wrap pointers (DESIGN.md [D4]/[D6])


class TypedDigraph:
    """Directed multigraph where parallel edges differ by :class:`EdgeKind`."""

    def __init__(self) -> None:
        self._succ: Dict[Hashable, Dict[EdgeKind, Set[Hashable]]] = {}
        self._pred: Dict[Hashable, Dict[EdgeKind, Set[Hashable]]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, v: Hashable) -> None:
        """Add an isolated node (no-op if present)."""
        if v not in self._succ:
            self._succ[v] = {}
            self._pred[v] = {}

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[Hashable]:
        """Iterate over nodes."""
        return iter(self._succ)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Hashable, v: Hashable, kind: EdgeKind = EdgeKind.UNMARKED) -> bool:
        """Add edge ``(u, v)`` of ``kind``; returns ``False`` if present."""
        self.add_node(u)
        self.add_node(v)
        bucket = self._succ[u].setdefault(kind, set())
        if v in bucket:
            return False
        bucket.add(v)
        self._pred[v].setdefault(kind, set()).add(u)
        self._edge_count += 1
        return True

    def successors(self, v: Hashable, kind: EdgeKind | None = None) -> Set[Hashable]:
        """Out-neighbors of ``v`` (all kinds merged when ``kind=None``)."""
        buckets = self._succ.get(v)
        if buckets is None:
            raise KeyError(v)
        if kind is not None:
            return set(buckets.get(kind, ()))
        out: Set[Hashable] = set()
        for targets in buckets.values():
            out |= targets
        return out

    def predecessors(self, v: Hashable, kind: EdgeKind | None = None) -> Set[Hashable]:
        """In-neighbors of ``v`` (all kinds merged when ``kind=None``)."""
        buckets = self._pred.get(v)
        if buckets is None:
            raise KeyError(v)
        if kind is not None:
            return set(buckets.get(kind, ()))
        out: Set[Hashable] = set()
        for sources in buckets.values():
            out |= sources
        return out

    def edge_count(self, kind: EdgeKind | None = None) -> int:
        """Number of edges, optionally of one kind."""
        if kind is None:
            return self._edge_count
        return sum(len(b.get(kind, ())) for b in self._succ.values())
