"""Greedy Chord routing as a pure graph walk.

Used to analyze hop counts over *materialized* topologies (the classic
binary-search argument of Section 1.1): at each peer, hop to the known
out-neighbor that makes the most clockwise progress toward the key
without overshooting; if none helps, take the successor.  Both the Chord
baseline's finger tables and the Re-Chord projection (Fact 2.1) can be
routed this way, which is how the lookup experiment (E7) measures path
lengths without simulating message exchanges.

Failure semantics: routing over a *degraded* view (mid-stabilization
snapshots, the usability experiment) can dead-end, loop, or simply not
converge.  Loops are detected explicitly via a visited-set — the walk
is memoryless-deterministic, so any revisit repeats the same trajectory
forever — and every failure carries a machine-readable kind: ``strict=True`` (default) raises :class:`RoutingError` with a
``kind`` attribute, ``strict=False`` returns a :class:`RouteResult`
whose ``status`` names the failure and whose ``owner`` is the last peer
reached.  In-band routing (:mod:`repro.traffic.plane`) mirrors these
kinds, so snapshot and live routing report comparable outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set

from repro.core.ideal import chord_successor
from repro.idspace.ring import IdSpace

#: returns the out-neighbors (peer ids) a peer can route through
NeighborFn = Callable[[int], Set[int]]

#: route statuses carried by RouteResult
ROUTE_OK = "ok"
ROUTE_LOOP = "loop"
ROUTE_DEAD_END = "dead_end"
ROUTE_HOP_LIMIT = "hop_limit"


@dataclass(frozen=True)
class RouteResult:
    """Outcome of a greedy route.

    ``status`` is ``"ok"`` when the walk terminated at the responsible
    peer; otherwise it names the failure (``loop`` / ``dead_end`` /
    ``hop_limit``) and ``owner`` is the peer where the walk stopped.
    """

    owner: int
    hops: int
    path: tuple
    status: str = ROUTE_OK


class RoutingError(RuntimeError):
    """Raised (in strict mode) when greedy routing cannot reach the
    responsible peer.  ``kind`` is the failure status, ``result`` the
    partial :class:`RouteResult`."""

    def __init__(self, message: str, kind: str = ROUTE_DEAD_END, result: Optional[RouteResult] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.result = result


def route_greedy(
    space: IdSpace,
    peer_ids: Sequence[int],
    neighbors: NeighborFn,
    start: int,
    key: int,
    max_hops: int = 512,
    strict: bool = True,
) -> RouteResult:
    """Route ``key`` from ``start`` over the given neighbor views.

    The responsible peer is ``chord_successor(key)``.  Progress metric:
    clockwise distance from the candidate to the key; a candidate is
    usable if it lies in the half-open arc ``(current, key]`` (no
    overshoot), exactly the paper's path definition.

    ``strict=True`` raises :class:`RoutingError` on failure (historical
    behavior); ``strict=False`` returns the partial result with its
    ``status`` set instead.

    A three-peer ring routed by hand (the key 190 is owned by peer 200,
    the first peer at-or-after it on the circle):

    >>> from repro.chord.routing import route_greedy
    >>> from repro.idspace.ring import IdSpace
    >>> space = IdSpace(8)                      # 256 positions
    >>> ring = {10: {80}, 80: {200}, 200: {10}}
    >>> result = route_greedy(space, [10, 80, 200], ring.__getitem__, 10, 190)
    >>> result.owner, result.hops, result.path, result.status
    (200, 2, (10, 80, 200), 'ok')

    Routing over a *degraded* view surfaces the failure kind instead:

    >>> broken = {10: set(), 80: {200}, 200: {10}}
    >>> route_greedy(space, [10, 80, 200], broken.__getitem__, 10, 190,
    ...              strict=False).status
    'dead_end'
    """
    ids = sorted(peer_ids)
    owner = chord_successor(space, ids, key)
    current = start
    path: List[int] = [start]
    seen: Set[int] = {start}

    def fail(kind: str, message: str) -> RouteResult:
        result = RouteResult(current, len(path) - 1, tuple(path), kind)
        if strict:
            raise RoutingError(message, kind=kind, result=result)
        return result

    for _ in range(max_hops):
        if current == owner:
            return RouteResult(owner, len(path) - 1, tuple(path))
        best = None
        best_d = space.distance_cw(current, key)
        for cand in sorted(neighbors(current)):
            if cand == current:
                continue
            if space.between_open_closed(current, cand, key):
                d = space.distance_cw(cand, key)
                if d < best_d:
                    best, best_d = cand, d
        if best is None:
            # key lies between current and all its neighbors going
            # clockwise: the next hop is whoever owns the key among the
            # neighbors — if the topology is correct, that is the
            # successor and it equals `owner`
            forward = [c for c in neighbors(current) if c != current]
            if not forward:
                return fail(ROUTE_DEAD_END, f"dead end at {current} routing {key}")
            best = min(forward, key=lambda c: space.distance_cw(current, c))
        if best in seen:
            # the walk is memoryless-deterministic: any revisit repeats
            # the exact same trajectory forever
            return fail(ROUTE_LOOP, f"routing loop via {best} routing {key}")
        current = best
        seen.add(current)
        path.append(current)
    if current == owner:  # reached on exactly the max_hops-th hop
        return RouteResult(owner, len(path) - 1, tuple(path))
    return fail(ROUTE_HOP_LIMIT, f"no convergence after {max_hops} hops routing {key}")


def merge_successor_list(
    successor: int,
    advertised: Sequence[int],
    me: int,
    length: int,
) -> List[int]:
    """Merge a successor's advertised list into a fresh successor list.

    The maintenance pattern every successor-list holder needs (shared by
    the Chord baseline's ``_on_successor_list`` and the resilient
    traffic plane's redundancy docs): prepend the current believed
    successor, append the advertised entries, drop ``me`` (a peer never
    backs itself up with itself), dedup keeping the *first* occurrence —
    closer entries shadow farther duplicates — and truncate to
    ``length``.

    >>> from repro.chord.routing import merge_successor_list
    >>> merge_successor_list(20, (30, 40, 50), me=10, length=3)
    [20, 30, 40]

    Duplicate ids collapse onto their first (closest) position, and the
    merging peer's own id is ignored wherever it appears:

    >>> merge_successor_list(20, (20, 10, 30, 30, 40), me=10, length=4)
    [20, 30, 40]
    """
    merged = [successor] + [v for v in advertised if v != me]
    deduped: List[int] = []
    for v in merged:
        if v not in deduped:
            deduped.append(v)
    return deduped[:length]
