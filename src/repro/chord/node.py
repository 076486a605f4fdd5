"""Chord peer: state, messages and the periodic maintenance protocol.

The maintenance protocol is the one from the original paper:

* ``stabilize()`` — ask the successor for its predecessor, adopt it if it
  lies between, then ``notify`` the successor;
* ``notify(p)`` — adopt ``p`` as predecessor if closer;
* ``fix_fingers()`` — refresh finger-table entries via iterative
  ``find_successor`` lookups;
* successor lists for fault tolerance.

All communication is message-based on the synchronous kernel: a remote
procedure call takes one round to reach the callee and one round for the
response.  Iterative lookups are client-driven state machines (one
referral per round trip), exactly as in iterative Chord deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chord.routing import merge_successor_list
from repro.idspace.ring import IdSpace
from repro.netsim.messages import Envelope
from repro.netsim.scheduler import RoundContext


# ----------------------------------------------------------------------
# RPC payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GetPredecessor:
    """stabilize(): ask a peer for its predecessor pointer."""

    reply_to: int
    token: int


@dataclass(frozen=True)
class PredecessorIs:
    """Response to :class:`GetPredecessor`."""

    token: int
    value: Optional[int]
    sender_successor: int


@dataclass(frozen=True)
class Notify:
    """notify(): tell the successor we believe we precede it."""

    candidate: int


@dataclass(frozen=True)
class GetSuccessorList:
    """Ask a peer for its successor list (fault tolerance)."""

    reply_to: int
    token: int


@dataclass(frozen=True)
class SuccessorListIs:
    """Response to :class:`GetSuccessorList`."""

    token: int
    values: tuple


@dataclass(frozen=True)
class FindSuccessorStep:
    """One step of an iterative find_successor(key) query."""

    key: int
    reply_to: int
    token: int


@dataclass(frozen=True)
class FindSuccessorAnswer:
    """Terminal answer of a lookup: ``owner`` is responsible for the key."""

    token: int
    owner: int


@dataclass(frozen=True)
class FindSuccessorReferral:
    """Non-terminal lookup step: retry at ``next_hop``."""

    token: int
    next_hop: int


@dataclass(frozen=True)
class LookupState:
    """Client-side bookkeeping of an in-flight iterative lookup."""

    key: int
    hops: int
    finger: int  #: the finger-table entry the answer fills


class FingerTable:
    """The classic Chord finger table: entry ``i`` covers ``u + 2**(B-i)``.

    Indexed 1..bits like the paper (entry 1 is the farthest finger at
    half-ring distance, entry ``bits`` the closest).
    """

    def __init__(self, space: IdSpace) -> None:
        self.space = space
        self.entries: Dict[int, Optional[int]] = {i: None for i in range(1, space.bits + 1)}

    def set(self, index: int, value: Optional[int]) -> None:
        """Set finger ``index``."""
        if index not in self.entries:
            raise IndexError(f"finger index {index} out of range")
        self.entries[index] = value

    def known(self) -> List[int]:
        """All distinct live finger values."""
        return sorted({v for v in self.entries.values() if v is not None})


class ChordPeer:
    """One Chord peer as a synchronous-kernel actor."""

    def __init__(
        self,
        peer_id: int,
        space: IdSpace,
        successor_list_len: int = 4,
        fingers_per_round: int = 1,
    ) -> None:
        space.check_id(peer_id)
        self.id = peer_id
        self.space = space
        self.successor: Optional[int] = None
        self.predecessor: Optional[int] = None
        self.successor_list: List[int] = []
        self.fingers = FingerTable(space)
        self.successor_list_len = successor_list_len
        if fingers_per_round < 0:
            raise ValueError(f"fingers_per_round must be non-negative, got {fingers_per_round}")
        self.fingers_per_round = fingers_per_round
        self._next_finger = 1
        self._token = 0
        self._lookups: Dict[int, LookupState] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _new_token(self) -> int:
        self._token += 1
        return self._token

    def _between_oc(self, a: int, x: int, b: int) -> bool:
        return self.space.between_open_closed(a, x, b)

    def closest_preceding_node(self, key: int) -> int:
        """The best known next hop for ``key`` (fingers + successor)."""
        candidates = set(self.fingers.known())
        if self.successor is not None:
            candidates.add(self.successor)
        best = self.id
        best_d = self.space.size  # distance from candidate to key, want max progress
        for c in sorted(candidates):
            if c == self.id:
                continue
            # c must lie strictly between us and the key (no overshoot)
            if self.space.between_open(self.id, c, key):
                d = self.space.distance_cw(c, key)
                if d < best_d:
                    best, best_d = c, d
        return best

    # ------------------------------------------------------------------
    # round entry point
    # ------------------------------------------------------------------
    def step(self, inbox: Sequence[Envelope], ctx: RoundContext) -> None:
        """One synchronous round: serve requests, then run maintenance."""
        for env in inbox:
            self._handle(env, ctx)
        self._stabilize(ctx)
        self._fix_fingers(ctx)
        self._refresh_successor_list(ctx)

    # ------------------------------------------------------------------
    # request handling (server side, answered within the round)
    # ------------------------------------------------------------------
    def _handle(self, env: Envelope, ctx: RoundContext) -> None:
        msg = env.payload
        if isinstance(msg, GetPredecessor):
            ctx.send(msg.reply_to, PredecessorIs(msg.token, self.predecessor, self.successor or self.id))
        elif isinstance(msg, PredecessorIs):
            self._on_predecessor(msg, ctx)
        elif isinstance(msg, Notify):
            self._on_notify(msg.candidate)
        elif isinstance(msg, GetSuccessorList):
            ctx.send(msg.reply_to, SuccessorListIs(msg.token, tuple(self.successor_list)))
        elif isinstance(msg, SuccessorListIs):
            self._on_successor_list(msg)
        elif isinstance(msg, FindSuccessorStep):
            self._serve_lookup(msg, ctx)
        elif isinstance(msg, FindSuccessorAnswer):
            self._on_answer(msg)
        elif isinstance(msg, FindSuccessorReferral):
            self._on_referral(msg, ctx)
        else:  # pragma: no cover - protocol violation
            raise TypeError(f"unexpected message {msg!r}")

    def _serve_lookup(self, msg: FindSuccessorStep, ctx: RoundContext) -> None:
        succ = self.successor if self.successor is not None else self.id
        if succ == self.id or self._between_oc(self.id, msg.key, succ):
            ctx.send(msg.reply_to, FindSuccessorAnswer(msg.token, succ))
            return
        nxt = self.closest_preceding_node(msg.key)
        if nxt == self.id:
            # no finger makes progress: fall back to the successor (the
            # linear walk of the base protocol)
            nxt = succ
        ctx.send(msg.reply_to, FindSuccessorReferral(msg.token, nxt))

    # ------------------------------------------------------------------
    # client-side continuations
    # ------------------------------------------------------------------
    def _on_predecessor(self, msg: PredecessorIs, ctx: RoundContext) -> None:
        if self.successor is None:
            return
        p = msg.value
        if p is not None and p != self.id and self.space.between_open(self.id, p, self.successor):
            if ctx.actor_exists(p):
                self.successor = p
        ctx.send(self.successor, Notify(self.id))

    def _on_notify(self, candidate: int) -> None:
        if candidate == self.id:
            return
        if self.predecessor is None or self.space.between_open(self.predecessor, candidate, self.id):
            self.predecessor = candidate

    def _on_successor_list(self, msg: SuccessorListIs) -> None:
        if self.successor is None:
            return
        self.successor_list = merge_successor_list(
            self.successor, msg.values, me=self.id, length=self.successor_list_len
        )

    def _on_answer(self, msg: FindSuccessorAnswer) -> None:
        state = self._lookups.pop(msg.token, None)
        if state is not None:
            self.fingers.set(state.finger, msg.owner)

    def _on_referral(self, msg: FindSuccessorReferral, ctx: RoundContext) -> None:
        state = self._lookups.get(msg.token)
        if state is None:
            return
        if not ctx.actor_exists(msg.next_hop) or state.hops > 4 * self.space.bits:
            # dead next hop or routing loop: abandon (callers retry)
            self._lookups.pop(msg.token, None)
            return
        self._lookups[msg.token] = LookupState(state.key, state.hops + 1, state.finger)
        ctx.send(msg.next_hop, FindSuccessorStep(state.key, self.id, msg.token))

    # ------------------------------------------------------------------
    # periodic maintenance
    # ------------------------------------------------------------------
    def _stabilize(self, ctx: RoundContext) -> None:
        if self.successor is None or self.successor == self.id:
            return
        ctx.send(self.successor, GetPredecessor(self.id, self._new_token()))

    def _fix_fingers(self, ctx: RoundContext) -> None:
        for _ in range(self.fingers_per_round):
            index = self._next_finger
            self._next_finger = 1 + (self._next_finger % self.space.bits)
            target = self.space.finger_target(self.id, index)
            self.start_lookup(target, index, ctx)

    def _refresh_successor_list(self, ctx: RoundContext) -> None:
        if self.successor is not None and self.successor != self.id:
            ctx.send(self.successor, GetSuccessorList(self.id, self._new_token()))

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def start_lookup(self, key: int, finger: int, ctx: RoundContext) -> int:
        """Begin an iterative find_successor(key) whose answer fills
        finger entry ``finger``; returns the token."""
        token = self._new_token()
        self._lookups[token] = LookupState(key, 0, finger)
        # first step is served locally next round (sent to ourselves) so
        # that every step has uniform round-trip accounting
        ctx.send(self.id, FindSuccessorStep(key, self.id, token))
        return token
