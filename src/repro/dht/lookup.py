"""Greedy lookups over the stabilized Re-Chord overlay.

The router materializes each peer's outgoing view of the Re-Chord
projection ``E_ReChord`` (real-peer endpoints of unmarked, ring and wrap
edges across all the peer's simulated nodes — these are exactly Chord's
successor, predecessor and finger links by Fact 2.1) and walks the
classic binary-search route.  Path lengths are O(log n) w.h.p. for random
ids, which experiment E7 measures.

Staleness: the materialized views are a snapshot, and silently routing a
snapshot over a network that has since churned was a long-standing
footgun (routes through dead peers, hop counts over vanished edges).
The router now keys its cache on :meth:`ReChordNetwork.view_version` —
a cheap token that moves on every membership event, every out-of-band
topology edit, and every executed round — and checks it before each
routed call, transparently rebuilding the views when the network moved
on.

For routing that participates in the simulation itself — requests
traveling through the scheduler on each peer's live, possibly degraded
view — use :mod:`repro.traffic` instead.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.chord.routing import RouteResult, route_greedy
from repro.core.network import ReChordNetwork
from repro.idspace.keys import key_id


class ReChordRouter:
    """Routing views over a Re-Chord network, cache-keyed on its version.

    The view is rebuilt whenever the network's
    :meth:`~ReChordNetwork.view_version` no longer matches the one the
    views were built at; :meth:`refresh` remains available for explicit
    rebuilds.  The router transparently follows the live network:

    >>> from repro.dht.lookup import ReChordRouter
    >>> from repro.experiments.scaling import build_ideal_network
    >>> net = build_ideal_network(16, 1)
    >>> router = ReChordRouter(net)
    >>> owner = router.route_key(net.peer_ids[0], "alice").owner
    >>> net.crash(owner)                     # the snapshot is now stale
    >>> router.is_stale()
    True
    >>> _ = net.run_until_stable(max_rounds=5000)
    >>> router.route_key(net.peer_ids[0], "alice").owner != owner    # rebuilt first
    True
    """

    def __init__(self, network: ReChordNetwork) -> None:
        self.network = network
        self.space = network.space
        self._views: Dict[int, Set[int]] = {}
        self._built_at = None
        self.refresh()

    def refresh(self) -> None:
        """Rebuild per-peer neighbor views from the current state."""
        views: Dict[int, Set[int]] = {pid: set() for pid in self.network.peer_ids}
        for src, dst in self.network.rechord_projection():
            views[src].add(dst)
        self._views = views
        #: membership *of the snapshot* — routing stays internally
        #: consistent (owner computed over the same peer set the views
        #: cover)
        self._peer_ids = sorted(views)
        self._built_at = self.network.view_version()

    def is_stale(self) -> bool:
        """Whether the network moved on since the views were built."""
        return self.network.view_version() != self._built_at

    def _ensure_fresh(self) -> None:
        if self.is_stale():
            self.refresh()

    def route_id(self, start: int, target_id: int, max_hops: int = 512) -> RouteResult:
        """Greedy-route an identifier from ``start``.

        Stale views are rebuilt before the walk, so routes always run on
        views matching the network's current
        :meth:`~ReChordNetwork.view_version`.
        Routing over a degraded snapshot can fail; see
        :func:`repro.chord.routing.route_greedy` for the failure kinds.
        """
        self._ensure_fresh()
        if start not in self._views:
            raise KeyError(f"peer {start} is not in the routing snapshot")
        return route_greedy(
            self.space,
            self._peer_ids,
            self._views.__getitem__,
            start,
            target_id,
            max_hops=max_hops,
        )

    def route_key(self, start: int, key: str, max_hops: int = 512) -> RouteResult:
        """Greedy-route a named key (consistent-hashed onto the circle,
        views refreshed as in :meth:`route_id`)."""
        return self.route_id(start, key_id(key, self.space), max_hops=max_hops)
