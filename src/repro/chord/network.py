"""Chord network facade: construction and the correctness oracle.

Provides the adversarial constructors used by experiment E8: an arbitrary
successor map (weakly connected but wrong) and the classic *two-ring*
state — two internally consistent rings that Chord's maintenance protocol
provably never merges (no rule ever contacts a node outside the ring),
demonstrating that classic Chord is not self-stabilizing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chord.node import ChordPeer
from repro.core.ideal import chord_successor
from repro.idspace.ring import IdSpace
from repro.netsim.scheduler import SynchronousScheduler


class ChordNetwork:
    """A set of classic Chord peers on the synchronous kernel."""

    def __init__(
        self,
        space: Optional[IdSpace] = None,
        successor_list_len: int = 4,
        fingers_per_round: int = 1,
    ) -> None:
        self.space = space if space is not None else IdSpace()
        self.scheduler = SynchronousScheduler()
        self.peers: Dict[int, ChordPeer] = {}
        self.successor_list_len = successor_list_len
        self.fingers_per_round = fingers_per_round

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: int) -> ChordPeer:
        """Register a peer (successor initially itself: a singleton ring)."""
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer_id}")
        peer = ChordPeer(
            peer_id,
            self.space,
            successor_list_len=self.successor_list_len,
            fingers_per_round=self.fingers_per_round,
        )
        peer.successor = peer_id
        self.peers[peer_id] = peer
        self.scheduler.add_actor(peer_id, peer)
        return peer

    @classmethod
    def from_successor_map(
        cls, successors: Dict[int, int], space: Optional[IdSpace] = None, **kw
    ) -> "ChordNetwork":
        """Arbitrary (possibly wrong) successor pointers — E8's bad states."""
        net = cls(space, **kw)
        for u in sorted(successors):
            net.add_peer(u)
        for u, s in successors.items():
            if s not in net.peers:
                raise ValueError(f"successor {s} of {u} is not a peer")
            net.peers[u].successor = s
        return net

    @classmethod
    def two_rings(cls, ids: Sequence[int], space: Optional[IdSpace] = None, **kw) -> "ChordNetwork":
        """Two disjoint, internally consistent rings (odd/even split).

        Each ring is a perfectly stable Chord network on its own subset;
        the union is NOT the correct topology, and classic Chord never
        repairs it.
        """
        ordered = sorted(set(ids))
        if len(ordered) < 4:
            raise ValueError("need at least 4 peers for two rings")
        net = cls(space, **kw)
        for u in ordered:
            net.add_peer(u)
        for group in (ordered[0::2], ordered[1::2]):
            n = len(group)
            for i, u in enumerate(group):
                peer = net.peers[u]
                peer.successor = group[(i + 1) % n]
                peer.predecessor = group[(i - 1) % n]
                peer.successor_list = [group[(i + k) % n] for k in range(1, min(n, peer.successor_list_len + 1))]
        return net

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def peer_ids(self) -> List[int]:
        """Sorted live peer ids."""
        return sorted(self.peers)

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` synchronous rounds."""
        self.scheduler.run(rounds)

    # ------------------------------------------------------------------
    # correctness oracle
    # ------------------------------------------------------------------
    def true_successor(self, u: int) -> int:
        """The correct ring successor of ``u`` among live peers."""
        return chord_successor(self.space, self.peer_ids, (u + 1) % self.space.size)

    def ring_correct(self) -> bool:
        """Whether every peer's successor pointer is the true successor."""
        return all(self.peers[u].successor == self.true_successor(u) for u in self.peers)
