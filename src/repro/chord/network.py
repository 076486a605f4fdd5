"""Chord network facade: construction, correctness oracle, lookups.

Provides the adversarial constructors used by experiment E8: an arbitrary
successor map (weakly connected but wrong) and the classic *two-ring*
state — two internally consistent rings that Chord's maintenance protocol
provably never merges (no rule ever contacts a node outside the ring),
demonstrating that classic Chord is not self-stabilizing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chord.node import ChordPeer, FindSuccessorStep, LeaveNotice, LookupState
from repro.core.ideal import chord_successor
from repro.idspace.ring import IdSpace
from repro.netsim.messages import Envelope
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
    def perfect_ring(cls, ids: Sequence[int], space: Optional[IdSpace] = None, **kw) -> "ChordNetwork":
        """A correct ring: successors/predecessors set to the true values."""
        net = cls(space, **kw)
        ordered = sorted(set(ids))
        for u in ordered:
            net.add_peer(u)
        n = len(ordered)
        for i, u in enumerate(ordered):
            peer = net.peers[u]
            peer.successor = ordered[(i + 1) % n]
            peer.predecessor = ordered[(i - 1) % n]
            peer.successor_list = [ordered[(i + k) % n] for k in range(1, min(n, peer.successor_list_len + 1))]
        return net

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

    @property
    def round_no(self) -> int:
        """Completed rounds."""
        return self.scheduler.round_no

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

    def ring_errors(self) -> List[Tuple[int, Optional[int], int]]:
        """Peers with wrong successors: ``(peer, has, wants)``."""
        out = []
        for u in sorted(self.peers):
            want = self.true_successor(u)
            if self.peers[u].successor != want:
                out.append((u, self.peers[u].successor, want))
        return out

    def fingers_correct(self, u: int) -> bool:
        """Whether peer ``u``'s filled finger entries are all correct."""
        peer = self.peers[u]
        for i in range(1, self.space.bits + 1):
            have = peer.fingers.get(i)
            if have is None:
                continue
            want = chord_successor(self.space, self.peer_ids, self.space.finger_target(u, i))
            if have != want:
                return False
        return True

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join(self, new_id: int, gateway_id: int) -> None:
        """A new peer joins via ``gateway_id`` (find_successor(new_id))."""
        if gateway_id not in self.peers:
            raise KeyError(f"gateway {gateway_id} is not a live peer")
        peer = self.add_peer(new_id)
        peer._lookups[0] = LookupState(
            key=new_id,
            hops=0,
            started_round=self.scheduler.round_no,
            purpose="join",
            current_target=gateway_id,
        )
        self.scheduler.post(Envelope(new_id, gateway_id, FindSuccessorStep(new_id, new_id, 0)))

    def leave(self, peer_id: int) -> None:
        """Voluntary departure with neighbor hand-off."""
        peer = self.peers.get(peer_id)
        if peer is None:
            raise KeyError(f"unknown peer {peer_id}")
        if peer.predecessor is not None and peer.predecessor in self.peers and peer.predecessor != peer_id:
            self.scheduler.post(
                Envelope(peer_id, peer.predecessor, LeaveNotice(None, peer.successor))
            )
        if peer.successor is not None and peer.successor in self.peers and peer.successor != peer_id:
            self.scheduler.post(
                Envelope(peer_id, peer.successor, LeaveNotice(peer.predecessor, None))
            )
        peer.left = True
        del self.peers[peer_id]
        self.scheduler.remove_actor(peer_id)

    def crash(self, peer_id: int) -> None:
        """Abrupt failure."""
        if peer_id not in self.peers:
            raise KeyError(f"unknown peer {peer_id}")
        self.peers[peer_id].left = True
        del self.peers[peer_id]
        self.scheduler.remove_actor(peer_id)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, start: int, key: int, max_rounds: int = 500) -> Tuple[int, int, int]:
        """Synchronously resolve ``find_successor(key)`` from ``start``.

        Returns ``(owner, hops, rounds)``.  Raises ``RuntimeError`` if the
        lookup does not finish within ``max_rounds`` (e.g. in a broken
        topology).
        """
        peer = self.peers[start]
        token = peer._new_token()
        peer._lookups[token] = LookupState(
            key=key,
            hops=0,
            started_round=self.scheduler.round_no,
            purpose="user",
            current_target=start,
        )
        self.scheduler.post(Envelope(start, start, FindSuccessorStep(key, start, token)))
        for _ in range(max_rounds):
            self.scheduler.run_round()
            if token in peer.completed_lookups:
                return peer.completed_lookups.pop(token)
        raise RuntimeError(f"lookup for {key} from {start} unresolved after {max_rounds} rounds")
