"""Disjoint-set union (union-find) with path compression and union by size."""

from __future__ import annotations

from typing import Dict, Hashable, Iterable


class UnionFind:
    """Classic union-find over arbitrary hashable elements.

    Elements are added lazily on first use.  ``find`` uses iterative path
    halving (no recursion limits); ``union`` uses union-by-size.  Amortized
    near-constant time per operation.
    """

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._components = 0
        for e in elements:
            self.add(e)

    def add(self, x: Hashable) -> None:
        """Register ``x`` as a singleton component if unseen."""
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._components += 1

    @property
    def component_count(self) -> int:
        """Number of disjoint components among registered elements."""
        return self._components

    def find(self, x: Hashable) -> Hashable:
        """Representative of ``x``'s component (adds ``x`` if unseen)."""
        self.add(x)
        parent = self._parent
        root = x
        while parent[root] != root:
            parent[root] = parent[parent[root]]  # path halving
            root = parent[root]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns ``True`` if a merge happened, ``False`` if they already
        shared a component.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._components -= 1
        return True
