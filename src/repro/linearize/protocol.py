"""Self-stabilizing list linearization.

Each node ``u`` keeps a set of known neighbors.  Every round:

* sort the left neighbors descending and the right neighbors ascending;
* keep only the closest on each side;
* *forward* every consecutive pair ``(a, b)`` — tell ``a`` about ``b``
  (the edge's start moves closer to its end);
* *mirror* — tell the two kept neighbors about ``u``.

From any weakly connected initial graph this converges to the sorted
doubly linked list (the paper's phase-2 argument is exactly the analysis
of this process).  Stability here is quiescent-ish: the mirror messages
keep flowing but the configuration is constant, detected by the same
fingerprint technique as Re-Chord.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.idspace.ring import IdSpace
from repro.netsim.messages import Envelope
from repro.netsim.scheduler import RoundContext, SynchronousScheduler


@dataclass(frozen=True)
class Meet:
    """'target should know about endpoint' — the only message kind."""

    target: int
    endpoint: int

    def canonical(self) -> tuple:
        """Sortable identity for fingerprints."""
        return (self.target, self.endpoint)


class LinearizePeer:
    """One node of the linearization protocol."""

    __slots__ = ("id", "neighbors")

    def __init__(self, peer_id: int) -> None:
        self.id = peer_id
        self.neighbors: Set[int] = set()

    def step(self, inbox: Sequence[Envelope], ctx: RoundContext) -> None:
        """One round: absorb introductions, linearize, mirror."""
        for env in inbox:
            msg = env.payload
            if msg.endpoint != self.id:
                self.neighbors.add(msg.endpoint)
        self.neighbors = {v for v in self.neighbors if ctx.actor_exists(v)}
        lefts = sorted((v for v in self.neighbors if v < self.id), reverse=True)
        for a, b in zip(lefts, lefts[1:]):
            ctx.send(a, Meet(a, b))
            self.neighbors.discard(b)
        rights = sorted(v for v in self.neighbors if v > self.id)
        for a, b in zip(rights, rights[1:]):
            ctx.send(a, Meet(a, b))
            self.neighbors.discard(b)
        for v in sorted(self.neighbors):
            ctx.send(v, Meet(v, self.id))


class LinearizeNetwork:
    """Facade mirroring :class:`repro.core.network.ReChordNetwork`."""

    def __init__(self, space: Optional[IdSpace] = None) -> None:
        self.space = space if space is not None else IdSpace()
        self.scheduler = SynchronousScheduler()
        self.peers: Dict[int, LinearizePeer] = {}

    def add_peer(self, peer_id: int) -> LinearizePeer:
        """Register a node."""
        self.space.check_id(peer_id)
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer_id}")
        peer = LinearizePeer(peer_id)
        self.peers[peer_id] = peer
        self.scheduler.add_actor(peer_id, peer)
        return peer

    def add_initial_edge(self, src: int, dst: int) -> None:
        """Seed a directed knowledge edge."""
        if src != dst:
            self.peers[src].neighbors.add(dst)

    @property
    def peer_ids(self) -> List[int]:
        """Sorted node ids."""
        return sorted(self.peers)

    def run_round(self) -> None:
        """One synchronous round."""
        self.scheduler.run_round()

    def fingerprint(self) -> tuple:
        """Canonical configuration (states + in-flight messages)."""
        states = tuple(
            (pid, tuple(sorted(self.peers[pid].neighbors))) for pid in sorted(self.peers)
        )
        pending = tuple(
            sorted((env.target, env.payload.canonical()) for env in self.scheduler.all_pending())
        )
        return (states, pending)

    def run_until_stable(self, max_rounds: int = 10_000) -> int:
        """Rounds until the configuration repeats (see Re-Chord facade)."""
        prev = self.fingerprint()
        for executed in range(1, max_rounds + 1):
            self.run_round()
            cur = self.fingerprint()
            if cur == prev:
                return executed - 1
            prev = cur
        raise RuntimeError(f"not stable within {max_rounds} rounds")

    def is_sorted_list(self) -> bool:
        """Whether the topology is exactly the sorted doubly linked list."""
        ids = self.peer_ids
        for i, u in enumerate(ids):
            want: Set[int] = set()
            if i > 0:
                want.add(ids[i - 1])
            if i + 1 < len(ids):
                want.add(ids[i + 1])
            if self.peers[u].neighbors != want:
                return False
        return True

    def sorted_list_errors(self) -> List[Tuple[int, Set[int], Set[int]]]:
        """Nodes whose neighbor sets differ from the sorted list."""
        ids = self.peer_ids
        out = []
        for i, u in enumerate(ids):
            want: Set[int] = set()
            if i > 0:
                want.add(ids[i - 1])
            if i + 1 < len(ids):
                want.add(ids[i + 1])
            if self.peers[u].neighbors != want:
                out.append((u, set(self.peers[u].neighbors), want))
        return out
