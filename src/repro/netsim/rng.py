"""Deterministic random-stream management for experiments.

Experiments sweep (size, seed) grids; every cell must be reproducible in
isolation (re-running one cell gives the same sample as running the whole
sweep).  ``SeedSequence`` derives independent child streams from a root
seed and a label, using SHA-256 so that nearby labels give uncorrelated
streams — the stdlib ``random.Random(seed + i)`` pattern does not.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Hierarchical seed derivation.

    Example::

        root = SeedSequence(12345)
        rng = root.child("fig6", n=25, rep=7).rng()
    """

    def __init__(self, root_seed: int, path: tuple = ()) -> None:
        self._root = int(root_seed)
        self._path = path

    def child(self, *labels: object, **kv: object) -> "SeedSequence":
        """Derive a child sequence from positional and keyword labels."""
        frozen = tuple(str(x) for x in labels) + tuple(
            f"{k}={kv[k]}" for k in sorted(kv)
        )
        return SeedSequence(self._root, self._path + frozen)

    def seed(self) -> int:
        """A 64-bit seed derived from the root seed and the path."""
        h = hashlib.sha256()
        h.update(str(self._root).encode())
        for part in self._path:
            h.update(b"/")
            h.update(part.encode())
        return int.from_bytes(h.digest()[:8], "big")

    def rng(self) -> random.Random:
        """A fresh ``random.Random`` seeded from this sequence."""
        return random.Random(self.seed())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedSequence(root={self._root}, path={'/'.join(self._path)})"
