"""Local checkability of the Re-Chord topology.

The paper's motivation: plain Chord is *not* locally checkable (a node
cannot tell from its own state whether the global topology is correct),
but Re-Chord is — the virtual nodes make every required edge locally
recognizable.  This module implements the per-peer predicate: it reads
*only* the peer's own state (its simulated nodes and their neighborhood
sets).  The conjunction over all peers holds in the stable topology, and
— given the weak-connectivity precondition — any deviation from the ideal
topology trips at least one peer's check (demonstrated empirically by
``tests/test_checker.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import List

from repro.core.network import ReChordNetwork
from repro.core.protocol import ReChordPeer

_KEY = attrgetter("_key")


def local_check_peer(peer: ReChordPeer) -> List[str]:
    """Violations of the local stability invariants (empty == pass).

    Invariants (each computable from the peer's own state alone):

    1. the sibling levels are exactly ``0..m`` for the ``m`` induced by
       the peer's current knowledge;
    2. each node's cached ``rl``/``rr`` equal the closest known reals and
       reside in ``nu``;
    3. each node's ``nu`` contains nothing besides its closest known
       left/right neighbor and ``rl``/``rr`` — and no known node is
       closer than the stored neighbor (no "sortedness violation");
    4. ring edges exist only at a node that is the extreme of the peer's
       knowledge, and point at the opposite extreme;
    5. wrap pointers exist only where the linear real neighbor is
       missing.

    The peer's knowledge is sorted once; every per-level neighbor is a
    bisection of that order (refs are ordered by their ``_key``).
    """
    state = peer.state
    problems: List[str] = []
    known = sorted(state.knowledge(), key=_KEY)
    keys = [ref._key for ref in known]
    reals = [ref for ref in known if ref.level == 0]
    real_keys = [ref._key for ref in reals]
    kmin = known[0]
    kmax = known[-1]

    m = state.space.level_count(state.closest_real_gap(reals))
    if set(state.nodes) != set(range(0, m + 1)):
        problems.append(f"levels {sorted(state.nodes)} != 0..{m}")

    for level in sorted(state.nodes):
        node = state.nodes[level]
        ui = node.ref
        key = ui._key
        i = bisect_left(real_keys, key)
        want_rl = reals[i - 1] if i else None
        i = bisect_right(real_keys, key)
        want_rr = reals[i] if i < len(reals) else None
        if node.rl != want_rl:
            problems.append(f"{ui!r}: rl cache {node.rl!r} != {want_rl!r}")
        if node.rr != want_rr:
            problems.append(f"{ui!r}: rr cache {node.rr!r} != {want_rr!r}")

        i = bisect_left(keys, key)
        closest_left = known[i - 1] if i else None
        i = bisect_right(keys, key)
        closest_right = known[i] if i < len(known) else None
        allowed = {x for x in (closest_left, closest_right, want_rl, want_rr) if x is not None}
        extras = node.nu - allowed
        if extras:
            problems.append(f"{ui!r}: extra nu members {sorted(extras)}")
        required = {x for x in (closest_left, closest_right) if x is not None}
        missing = required - node.nu
        if missing:
            problems.append(f"{ui!r}: missing neighbors {sorted(missing)}")
        if want_rl is not None and want_rl not in node.nu:
            problems.append(f"{ui!r}: rl not in nu")
        if want_rr is not None and want_rr not in node.nu:
            problems.append(f"{ui!r}: rr not in nu")

        for w in node.nr:
            if w > ui and not (ui == kmin and w == kmax):
                problems.append(f"{ui!r}: illegitimate ring edge to {w!r}")
            if w < ui and not (ui == kmax and w == kmin):
                problems.append(f"{ui!r}: illegitimate ring edge to {w!r}")
        if closest_left is None and ui != kmin:
            problems.append(f"{ui!r}: no left neighbor but not the known minimum")
        if closest_right is None and ui != kmax:
            problems.append(f"{ui!r}: no right neighbor but not the known maximum")

        if node.wrap_rr is not None and node.rr is not None:
            problems.append(f"{ui!r}: wrap_rr set despite linear rr")
        if node.wrap_rl is not None and node.rl is not None:
            problems.append(f"{ui!r}: wrap_rl set despite linear rl")

    return problems


def locally_checkable_stable(network: ReChordNetwork) -> bool:
    """Conjunction of all peers' local checks."""
    return all(not local_check_peer(peer) for peer in network.peers.values())
