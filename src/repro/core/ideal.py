"""The unique stable Re-Chord topology for a given live peer set.

Section 3.1.6 of the paper argues the stable state is unique and change-
free; this module computes it directly from the peer identifiers:

* every peer's virtual-node count ``m*`` (from the clockwise gap to its
  real successor);
* every node's sorted-order neighbors (``prev``/``next`` in linear order);
* every node's closest real neighbors ``rl``/``rr`` (linear) and the
  wrap-around pointers of the seam extension [D6];
* the two ring edges ``(min -> max)`` and ``(max -> min)``.

It also derives the classical Chord graph over the same peers, which the
tests use to verify Fact 2.1 (Chord ⊆ stable Re-Chord) and which the DHT
layer routes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.noderef import NodeRef, make_ref
from repro.idspace.ring import IdSpace


@dataclass(frozen=True)
class IdealTopology:
    """The target stable topology for a fixed live peer set."""

    space: IdSpace
    peer_ids: Tuple[int, ...]
    m_star: Dict[int, int] = field(hash=False)
    refs: Tuple[NodeRef, ...] = field(hash=False)
    nu: Dict[NodeRef, FrozenSet[NodeRef]] = field(hash=False)
    nr: Dict[NodeRef, FrozenSet[NodeRef]] = field(hash=False)
    rl: Dict[NodeRef, Optional[NodeRef]] = field(hash=False)
    rr: Dict[NodeRef, Optional[NodeRef]] = field(hash=False)
    wrap_rl: Dict[NodeRef, Optional[NodeRef]] = field(hash=False)
    wrap_rr: Dict[NodeRef, Optional[NodeRef]] = field(hash=False)


def gap_to_successor(space: IdSpace, peer_ids: Sequence[int], u: int) -> int:
    """Clockwise distance from ``u`` to the nearest other peer id.

    Full ring size when ``u`` is the only peer.
    """
    best = space.size
    for v in peer_ids:
        if v == u:
            continue
        d = space.distance_cw(u, v)
        if 0 < d < best:
            best = d
    return best


def compute_ideal(space: IdSpace, peer_ids: Sequence[int]) -> IdealTopology:
    """Compute the unique stable topology for ``peer_ids``."""
    ids = sorted(set(peer_ids))
    if len(ids) != len(list(peer_ids)):
        raise ValueError("peer ids must be unique")
    if not ids:
        return IdealTopology(space, (), {}, (), {}, {}, {}, {}, {}, {})

    m_star: Dict[int, int] = {}
    refs: List[NodeRef] = []
    n = len(ids)
    for i, u in enumerate(ids):
        # ids are sorted, so the clockwise successor of ids[i] is
        # ids[i+1] (wrapping) — same value as gap_to_successor() without
        # the per-peer linear scan, which is what keeps 100k-peer ideal
        # construction feasible
        gap = space.size if n == 1 else (ids[(i + 1) % n] - u) % space.size
        m = space.level_count(gap)
        m_star[u] = m
        for level in range(0, m + 1):
            refs.append(make_ref(space, u, level))
    refs.sort()

    reals = [r for r in refs if r.is_real]
    r_min, r_max = reals[0], reals[-1]

    # nearest real to the left/right of each position (linear scans)
    rl: Dict[NodeRef, Optional[NodeRef]] = {}
    rr: Dict[NodeRef, Optional[NodeRef]] = {}
    last_real: Optional[NodeRef] = None
    for ref in refs:
        rl[ref] = last_real
        if ref.is_real:
            last_real = ref
    next_real: Optional[NodeRef] = None
    for ref in reversed(refs):
        rr[ref] = next_real
        if ref.is_real:
            next_real = ref

    nu: Dict[NodeRef, FrozenSet[NodeRef]] = {}
    nr: Dict[NodeRef, FrozenSet[NodeRef]] = {}
    wrap_rl: Dict[NodeRef, Optional[NodeRef]] = {}
    wrap_rr: Dict[NodeRef, Optional[NodeRef]] = {}
    for idx, ref in enumerate(refs):
        targets: Set[NodeRef] = set()
        if idx > 0:
            targets.add(refs[idx - 1])
        if idx + 1 < len(refs):
            targets.add(refs[idx + 1])
        if rl[ref] is not None:
            targets.add(rl[ref])
        if rr[ref] is not None:
            targets.add(rr[ref])
        targets.discard(ref)
        nu[ref] = frozenset(targets)
        nr[ref] = frozenset()
        wrap_rl[ref] = r_max if (rl[ref] is None and r_max != ref) else None
        wrap_rr[ref] = r_min if (rr[ref] is None and r_min != ref) else None

    # the two seam-closing ring edges (held by the global extremes)
    if len(refs) >= 2:
        nr[refs[0]] = frozenset({refs[-1]})
        nr[refs[-1]] = frozenset({refs[0]})

    return IdealTopology(
        space=space,
        peer_ids=tuple(ids),
        m_star=m_star,
        refs=tuple(refs),
        nu=nu,
        nr=nr,
        rl=rl,
        rr=rr,
        wrap_rl=wrap_rl,
        wrap_rr=wrap_rr,
    )


# ----------------------------------------------------------------------
# classical Chord graph (for Fact 2.1 and the DHT layer)
# ----------------------------------------------------------------------
def chord_successor(space: IdSpace, peer_ids: Sequence[int], position: int) -> int:
    """The peer responsible for ``position``: first peer at-or-after it.

    Chord's consistent-hashing successor with wrap-around; a peer exactly
    at ``position`` is its own successor.
    """
    ids = sorted(peer_ids)
    if not ids:
        raise ValueError("no peers")
    best = None
    best_d = None
    for v in ids:
        d = space.distance_cw(position, v)
        if best_d is None or d < best_d:
            best, best_d = v, d
    return best  # type: ignore[return-value]


def chord_edges(space: IdSpace, peer_ids: Sequence[int]) -> Set[Tuple[int, int]]:
    """The classical Chord edge set over ``peer_ids`` (Section 1.1).

    Successor edges plus finger edges ``p_i(u)`` for ``1 <= i <= m*(u)``,
    each finger pointing at the first peer at-or-after ``u + 2**(B-i)``
    (wrapping to the smallest peer when needed).  Self-edges (only
    possible for n = 1) are omitted.
    """
    ids = sorted(set(peer_ids))
    edges: Set[Tuple[int, int]] = set()
    if len(ids) < 2:
        return edges
    for u in ids:
        gap = gap_to_successor(space, ids, u)
        succ = chord_successor(space, ids, (u + 1) % space.size)
        if succ != u:
            edges.add((u, succ))
        m = space.level_count(gap)
        for i in range(1, m + 1):
            target = chord_successor(space, ids, space.virtual_id(u, i))
            if target != u:
                edges.add((u, target))
    return edges
