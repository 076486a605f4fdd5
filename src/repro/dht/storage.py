"""A replicated key-value store over the Re-Chord overlay.

Keys are consistent-hashed onto the identifier circle; the peer whose
ring position succeeds the key id is responsible (Chord semantics), and
``replication - 1`` further ring successors hold replicas.  All accesses
route greedily through the overlay (hop counts are surfaced so
applications and experiments can observe the O(log n) behavior).

Churn protocol: after peers join/leave/crash and the overlay
re-stabilizes, call :meth:`KeyValueStore.rebalance` to move/refill data
according to the new responsibility map — the reproduction's equivalent
of Chord's key-migration step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.ideal import chord_successor
from repro.dht.lookup import ReChordRouter
from repro.idspace.keys import key_id


class KeyNotFound(KeyError):
    """Raised when a key has no live replica."""


@dataclass
class StoreStats:
    """Cumulative access statistics (for the experiments)."""

    puts: int = 0
    gets: int = 0
    hops: int = 0
    hop_samples: List[int] = field(default_factory=list)

    def record(self, hops: int) -> None:
        """Record one routed access."""
        self.hops += hops
        self.hop_samples.append(hops)


class KeyValueStore:
    """Distributed dictionary with ring-successor replication."""

    def __init__(self, router: ReChordRouter, replication: int = 1) -> None:
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.router = router
        self.replication = replication
        self.space = router.space
        self._data: Dict[int, Dict[int, Any]] = {
            pid: {} for pid in router.network.peer_ids
        }
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def replica_peers(self, kid: int) -> List[int]:
        """The responsible peer and its ring successors (replica set)."""
        ids = sorted(self.router.network.peer_ids)
        if not ids:
            raise KeyNotFound("no live peers")
        owner = chord_successor(self.space, ids, kid)
        idx = ids.index(owner)
        count = min(self.replication, len(ids))
        return [ids[(idx + k) % len(ids)] for k in range(count)]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, via: Optional[int] = None) -> int:
        """Store ``key`` (routing from ``via`` if given); returns hops."""
        kid = key_id(key, self.space)
        hops = self._route_hops(via, kid)
        for pid in self.replica_peers(kid):
            self._bucket(pid)[kid] = value
        self.stats.puts += 1
        self.stats.record(hops)
        return hops

    def get(self, key: str, via: Optional[int] = None) -> Any:
        """Fetch ``key``; raises :class:`KeyNotFound` if no replica has it."""
        kid = key_id(key, self.space)
        hops = self._route_hops(via, kid)
        self.stats.gets += 1
        self.stats.record(hops)
        for pid in self.replica_peers(kid):
            bucket = self._data.get(pid)
            if bucket is not None and kid in bucket:
                return bucket[kid]
        raise KeyNotFound(key)

    def _route_hops(self, via: Optional[int], kid: int) -> int:
        if via is None:
            return 0
        return self.router.route_id(via, kid).hops

    # ------------------------------------------------------------------
    # in-band access (the traffic plane's storage backend)
    # ------------------------------------------------------------------
    def local_put(self, pid: int, kid: int, value: Any) -> None:
        """Write ``kid`` into peer ``pid``'s local bucket.

        Used by the traffic plane when a routed put request terminates
        at ``pid``: the peer that *believes* it is
        responsible stores the value — replica fan-out and corrective
        moves happen out of band via :meth:`rebalance`, exactly like
        Chord's key-migration step.
        """
        self._bucket(pid)[kid] = value
        self.stats.puts += 1

    def local_get(self, pid: int, kid: int) -> tuple:
        """Read ``kid`` from peer ``pid``'s local bucket.

        Returns ``(found, value)`` — the traffic plane surfaces a miss
        as a ``notfound`` reply instead of an exception, because under
        churn a miss at the believed owner is an expected outcome, not
        an error.
        """
        self.stats.gets += 1
        bucket = self._data.get(pid)
        if bucket is not None and kid in bucket:
            return True, bucket[kid]
        return False, None

    def _bucket(self, pid: int) -> Dict[int, Any]:
        return self._data.setdefault(pid, {})

    # ------------------------------------------------------------------
    # churn handling
    # ------------------------------------------------------------------
    def drop_peer(self, pid: int) -> None:
        """Forget a crashed peer's bucket (its replicas keep the data)."""
        self._data.pop(pid, None)

    def rebalance(self) -> int:
        """Re-place every stored key for the current membership.

        Call after the overlay re-stabilized.  Returns the number of
        (key, peer) placements created or removed.
        """
        self.router.refresh()
        live: Set[int] = set(self.router.network.peer_ids)
        self._data = {pid: bucket for pid, bucket in self._data.items() if pid in live}
        for pid in live:
            self._data.setdefault(pid, {})
        # gather the surviving logical key set
        merged: Dict[int, Any] = {}
        for bucket in self._data.values():
            merged.update(bucket)
        moves = 0
        want: Dict[int, Dict[int, Any]] = {pid: {} for pid in live}
        for kid, value in merged.items():
            for pid in self.replica_peers(kid):
                want[pid][kid] = value
        for pid in live:
            before = self._data[pid]
            after = want[pid]
            moves += len(set(before) ^ set(after))
            self._data[pid] = after
        return moves

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_placements(self) -> int:
        """Number of (key, peer) placements across the network."""
        return sum(len(b) for b in self._data.values())

    def load_per_peer(self) -> Dict[int, int]:
        """Stored key count per peer (load-balance experiments)."""
        return {pid: len(bucket) for pid, bucket in self._data.items()}
