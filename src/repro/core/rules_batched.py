"""Batched rule kernels over the interned-id columns.

The scalar pipeline in :mod:`repro.core.protocol` steps one peer at a
time: apply inbox, purge, rules 1–6, traffic.  This module executes the
same pipeline **phase-major** across every peer the scheduler decided to
run in a round — one pass applies all inboxes, one purges all peers, one
runs rule 3 everywhere, and so on — and inside a peer's step it runs
only the levels whose inputs changed.  Why the reordering is invisible,
and every device the fast path uses (the rank index, the envelope
cache, per-level delivery, purge verdicts kept per oracle epoch,
carrying and promotion, the per-level memo and the one driver that runs
it for rules 3–6), is in docs/ARCHITECTURE.md § "The rule pipeline:
spec and fast path".  This docstring keeps the contract and the two
input lists every change must extend.

Carry inputs
------------

Every :class:`~repro.core.state.LocalNode` keeps a record of its last
execution (``_carry``, indexed by the ``_PIECES`` … ``_OWNERS``
constants below).  Level L of an executing peer is **carried** — it
replays the record instead of running — iff its inputs equal the inputs
of that execution:

* its pieces (compared by value; an unchanged sub-flow hands over the
  very same tuples);
* its sets and slots: that execution left L as it found it, and nothing
  touched the peer since (its ``PeerState.version`` is the one the
  peer's last step ended with, the peer-level token
  ``ReChordPeer._carry``, which also pins the ``config`` object);
* its purge verdicts: no owner it judged moved in the oracle since
  (``ReChordNetwork.oracle_moves``);
* every peer-wide value a phase reads — the level set and the sibling
  tuple (pinned by the version), the refs rule 2 of its siblings moves
  into it, its ``(rl, rr)`` and rule 5's four extremes.  A carried
  level whose rule-2 adds, ``(rl, rr)`` or extremes turn out to differ
  is promoted (``_resume``, ``_reopen``).

Memo keys
---------

Each of rules 3–6 keeps a one-entry memo per simulated node
(``LocalNode._memo``), keyed on everything its per-level body reads
(``node.ref`` is fixed for the node's lifetime):

====  ==============================================================
rule  key
====  ==============================================================
3     ``nu``, the freshly computed ``(rl, rr)``, ``wrap_rl``,
      ``wrap_rr``, ``config``, and — under ``economical_broadcast``
      only, nothing else reads them — the four ``bcast_*`` slots
4     ``nu``, ``rl``, ``rr``
5     ``nu``, ``nr``, and the peer-wide ``kmin``, ``kmax``,
      ``reals[0]``, ``reals[-1]`` (taken from ``knowledge()`` *after*
      rule 4 ran on every level, as the scalar rule does) and
      ``config.wrap_pointers``
6     ``nc`` after the sibling-chain add, ``nu``, the sibling tuple
====  ==============================================================

``(rl, rr)`` rather than the sorted reals list: a far-away real node the
peer learns of moves no level's closest pair and must not miss them all.
**A new read in a rule body is a new key component** — and a new input
of the carry rule.

Contract
--------

Observationally identical to the scalar backend: fingerprints, emitted
envelope sequences, rule counters, replay deltas and telemetry censuses
match bit for bit (``tests/test_rules_batched.py`` and the equivalence
matrix enforce this).  The scalar pipeline remains the executable spec;
when in doubt, this module mirrors :mod:`repro.core.protocol` line by
line.  Refs that were never interned (``iid == -1``, hand-built
adversarial states) demote the affected sort to the scalar key sort —
never to a wrong answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import partial
from operator import attrgetter, gt, itemgetter, lt
from time import perf_counter as _perf
from typing import Dict, List, Optional, Sequence

from repro.core.events import (
    KIND_CONNECTION,
    KIND_RING,
    KIND_UNMARKED,
    EdgeAdd,
    RealCandidate,
    SIDE_LEFT,
    SIDE_RIGHT,
)
from repro.core.noderef import INTERN, NodeRef
from repro.core.protocol import REF_OK, REF_PHANTOM, ReChordPeer, _untimed
from repro.core.state import TrackedSet
from repro.netsim.messages import AppPayload, Envelope, SubFlow

try:  # optional accelerator; the pure-array path below is the fallback
    import numpy as _np
except Exception:  # pragma: no cover - numpy absent in minimal installs
    _np = None

_KEY = attrgetter("_key")
_ITEM_KEY = itemgetter(0)


def _not_a_peer(key) -> TypeError:
    return TypeError(
        f"actor {key!r} is not a ReChordPeer: the batched rule pipeline "
        "steps Re-Chord peers only"
    )


#: clear-on-overflow bound, mirroring the scheduler's envelope cache
_FAST_CACHE_MAX = 4_000_000

#: below this interned-table size the numpy lexsort loses to the
#: pure-Python argsort (crossover measured around a few thousand rows)
_NUMPY_MIN_ROWS = 2048


#: the memoized rules, in pipeline order; a node's memo is a list with
#: one entry per rule, indexed by its position here.  A rule's entry is
#: ``(key, envelopes, post set, counter deltas, extra)``: the key with
#: its sets frozen, the emitted outbox slice as a tuple, the post-state
#: of the set the rule rewrites (the key's own frozenset when the rule
#: left it alone), its deltas and what else it wrote, as a callable a
#: hit replays on the node (rule 3's wrap/bcast slots), or None
MEMO_RULES = ("rule3", "rule4", "rule5", "rule6")
_R3, _R4, _R5, _R6 = range(4)

#: the phases ``memo_counts()`` reports: the four rules and the
#: apply-inbox landing, which has no memo (its hits stay 0, every live
#: landing counts as a miss)
MEMO_PHASES = MEMO_RULES + ("apply_inbox",)
_AI = 4


#: the counters one level's execution moves, in record order; each
#: phase owns a slice of the list (``_F_*`` is where it starts)
FIRE_NAMES = (
    "rule3_adopt", "wrap_adopt",
    "purge_phantom", "purge_dead", "purge_slot",
    "rule2_move",
    "rule4_forward",
    "rule5_create", "rule5_convert", "rule5_forward",
    "rule6_forward", "rule6_backward",
)
_F_AI, _F_PURGE, _F_R2, _F_R4, _F_R5, _F_R6 = 0, 2, 5, 6, 7, 10

#: per memoized rule: the set it rewrites (its key's first component),
#: its counters' slice of FIRE_NAMES (rule 3 has none) and its deltas
#: when nothing fired
_REWRITES = ("_nu", "_nu", "_nr", "_nc")
_FIRES_AT = (slice(_F_R4, _F_R4), slice(_F_R4, _F_R5), slice(_F_R5, _F_R6), slice(_F_R6, None))
_NO_FIRES = ((), (0,), (0, 0, 0), (0, 0))

#: rule 3's broadcast per side: (side, announced pointer, its recipients)
_BCAST_SLOTS = ((SIDE_LEFT, "bcast_rl", "bcast_rl_targets"), (SIDE_RIGHT, "bcast_rr", "bcast_rr_targets"))

#: a level's carry record (``LocalNode._carry``) is a list describing
#: its last execution, indexed by:
_PIECES = 0   # the pieces it landed (None: no mail for it)
_FIXED = 1    # the execution ended in the state it started from
_LAND = 2     # the landing's adds to nu, nr, nc and the wrap slots it left
_REALS = 3    # the real refs its sets and wrap slots held after purge
_LO = 4       # refs rule 2 of its siblings added to nu before its turn ...
_HI = 5       # ... and after it
_MOVES = 6    # its own rule-2 moves, ((target level, ref), ...)
_RLRR = 7     # rule 3's (rl, rr)
_EXT = 8      # its part of rule 5's extremes (kmin, kmax, real min, real max)
_WIDE = 9     # rule 5's peer-wide reads
_OUT = 10     # the outbox slices of rules 3, 4, 5, 6 at _OUT + memo index
_FIRES = 14   # its counter deltas in FIRE_NAMES order
_REPLAY = 15  # the nonzero ones as ((index, amount), ...), made by the first carry
_EPOCH = 16   # an oracle epoch at which its purge verdicts were the current ones
_OWNERS = 17  # the owners of every ref its purge judged, made when first asked
_REC_LEN = 18

#: a promoted level's stage: it carried up to its rule-2 turn, or up to
#: rule 5; at the end of the step it replays the counters of those
#: phases (apply-inbox and purge run again live after a rule-2 turn)
_POST2, _POST4 = 1, 2
_STAGE_FIRES = {_POST2: slice(_F_R2, _F_R4), _POST4: slice(0, _F_R5)}

_NO_MOVES: tuple = ()
#: the ``_LAND`` of a level that got no mail
_NO_LANDING = ((), (), (), None, None)


def _new_rec(pieces=None) -> list:
    rec = [None] * _REC_LEN
    rec[_PIECES] = pieces
    rec[_LO] = rec[_HI] = rec[_MOVES] = _NO_MOVES
    rec[_OUT] = rec[_OUT + 1] = rec[_OUT + 2] = rec[_OUT + 3] = ()
    rec[_FIRES] = [0] * len(FIRE_NAMES)
    return rec


def _slots(node) -> tuple:
    return (
        node._rl, node._rr, node._wrap_rl, node._wrap_rr,
        node._bcast_rl, node._bcast_rl_targets,
        node._bcast_rr, node._bcast_rr_targets,
    )


def _snapshot(node) -> tuple:
    """A level's state, to tell at the end of its step whether the step
    left it as it found it."""
    return (frozenset(node._nu), frozenset(node._nr), frozenset(node._nc), _slots(node))


def _owners(node, land: tuple) -> set:
    """The owners of every ref in the level's sets and slots, and in
    what its landing added."""
    owners = {r.owner for refs in (node._nu, node._nr, node._nc, *land[:3]) for r in refs}
    for ref in (node._rl, node._rr, node._wrap_rl, node._wrap_rr, land[3], land[4]):
        if ref is not None:
            owners.add(ref.owner)
    return owners


def _reals_of(node) -> frozenset:
    """The real refs among the level's part of ``PeerState.knowledge()``."""
    reals = {r for refs in (node._nu, node._nr, node._nc) for r in refs if not r.level}
    if node._wrap_rl is not None:
        reals.add(node._wrap_rl)
    if node._wrap_rr is not None:
        reals.add(node._wrap_rr)
    return frozenset(reals)


def _put_slots(slots: tuple, node) -> None:
    """Write rule 3's ``(wrap_rl, wrap_rr, bcast or None)`` back."""
    node.wrap_rl, node.wrap_rr, bcast = slots
    if bcast is not None:
        node.bcast_rl, node.bcast_rl_targets, node.bcast_rr, node.bcast_rr_targets = bcast


def _extremes(node) -> tuple:
    """``(kmin, kmax, real min, real max)`` over the level's part of
    ``knowledge()`` (its own ref included); the real ones may be None."""
    refs = [node.ref, *node._nu, *node._nr, *node._nc, *node.wrap_refs()]
    reals = [r for r in refs if not r.level]
    if not reals:
        return (min(refs, key=_KEY), max(refs, key=_KEY), None, None)
    return (min(refs, key=_KEY), max(refs, key=_KEY), min(reals, key=_KEY), max(reals, key=_KEY))


class _Step:
    """One peer's step through the pipeline: the levels it carries and
    the records its executed levels build."""

    __slots__ = (
        "carry", "carried", "recs", "snaps", "stage", "whole", "reals", "prev",
        "same_reals", "reals_list", "real_keys", "wide", "sibs", "sib_keys",
    )

    def __init__(self, carry: bool, whole: bool = False, prev: Optional[tuple] = None) -> None:
        #: may a level be carried this step
        self.carry = carry
        #: level -> its last record, for as long as the level is carried
        self.carried: Dict[int, list] = {}
        #: level -> the record an executed level is building
        self.recs: Dict[int, list] = defaultdict(_new_rec)
        #: level -> its state at step start (executed levels)
        self.snaps: Dict[int, tuple] = {}
        #: level -> the stage a promoted level left carrying at
        self.stage: Dict[int, int] = {}
        #: every level executes and the peer-wide reads scan knowledge():
        #: rule 1 changed the level set, or a phase runs alone
        self.whole = whole
        #: the real refs of knowledge() after purge, once asked for
        self.reals: Optional[set] = None
        #: the previous step's peer-wide reads ``(reals, their keys,
        #: rule 5's wide key, siblings, their keys)`` (None: none to
        #: reuse), whether the union of the levels' known reals is that
        #: step's, and this step's reads, for the next one
        self.prev = prev
        self.same_reals = False
        self.reals_list: Optional[list] = None
        self.real_keys: Optional[list] = None
        self.wide: Optional[tuple] = None
        self.sibs: Optional[tuple] = None
        self.sib_keys: Optional[list] = None


def _step(it: list) -> _Step:
    """The peer's :class:`_Step` (a phase called on its own gets one
    that carries nothing)."""
    if len(it) < 5:
        it.append(_Step(False, whole=True))
    return it[4]


def _restore(refs: TrackedSet, content: frozenset) -> None:
    """Make a tracked set hold exactly ``content``; bumps iff it changes."""
    if content:
        refs.intersection_update(content)
        refs.update(content)
    else:
        refs.clear()


def _as_frozen(refs) -> frozenset:
    """A key's rewritten set frozen: rule 4's ``nu`` may be rule 3's
    frozen post-state already, any other is the live set."""
    return refs if type(refs) is frozenset else frozenset(refs)


def _frozen(refs: TrackedSet, before: frozenset) -> frozenset:
    """``refs`` frozen — ``before`` itself when the content did not move,
    so entries share one object and later keys compare by identity."""
    return before if before == refs else frozenset(refs)


class RankIndex:
    """Global linear rank of every interned ref, by ``NodeRef._key``.

    Built from the intern table's flat columns: ``lexsort`` orders rows
    by ``(id, is_virtual, owner, level)`` — exactly the scalar sort key
    — and the inverse permutation is the rank.  The table is
    append-only, but appending *changes existing ranks* (a new row can
    land anywhere in the order), so consumers refresh at phase
    boundaries and treat a row id at or beyond the indexed size as
    unranked.
    """

    __slots__ = ("ranks", "size", "_use_numpy")

    def __init__(self, use_numpy: Optional[bool] = None) -> None:
        self.ranks: List[int] = []
        self.size = 0
        self._use_numpy = _np is not None if use_numpy is None else (
            bool(use_numpy) and _np is not None
        )

    def refresh(self) -> None:
        """Re-rank if the intern table grew since the last build."""
        n = len(INTERN)
        if n == self.size:
            return
        if self._use_numpy and n >= _NUMPY_MIN_ROWS:
            ids_col, owners_col, levels_col = INTERN.columns()
            ids = _np.frombuffer(ids_col, dtype=_np.uint64, count=n)
            owners = _np.frombuffer(owners_col, dtype=_np.uint64, count=n)
            levels = _np.frombuffer(levels_col, dtype=_np.intc, count=n)
            # last lexsort key is the primary one: (id, isv, owner, level)
            perm = _np.lexsort((levels, owners, levels != 0, ids))
            ranks = _np.empty(n, dtype=_np.int64)
            ranks[perm] = _np.arange(n, dtype=_np.int64)
            # a plain list keeps the per-ref lookups in the rule loops at
            # native list-index speed (ndarray item access boxes per hit)
            self.ranks = ranks.tolist()
        else:
            refs = INTERN.all_refs()
            order = sorted(range(n), key=lambda i: refs[i]._key)
            ranks = [0] * n
            for pos, iid in enumerate(order):
                ranks[iid] = pos
            self.ranks = ranks
        self.size = n


class BatchedRuleEngine:
    """Phase-major executor for a round's batch of dirty ReChord peers,
    installed on the columnar kernel via ``set_batch_stepper``: both of
    its loops hand it every round's step items (``run_batch``) instead
    of calling ``actor.step`` one by one."""

    __slots__ = (
        "rank_index", "_fast", "_memo_hits", "_memo_misses", "_carried",
        "_oracle", "_oracle_epoch", "_oracle_moves", "_epoch", "_moved",
        "_verdict_epoch", "_verdicts", "_ok",
    )

    def __init__(
        self, use_numpy: Optional[bool] = None, oracle=None, oracle_epoch=None,
        oracle_moves=None,
    ) -> None:
        self.rank_index = RankIndex(use_numpy)
        #: this pipeline's envelope intern cache, keyed by flat ints
        self._fast: Dict[tuple, Envelope] = {}
        #: per-level memo lookups by outcome and carried levels, one int
        #: per MEMO_PHASES entry; observational only — no rule reads them
        self._memo_hits = [0] * len(MEMO_PHASES)
        self._memo_misses = [0] * len(MEMO_PHASES)
        self._carried = [0] * len(MEMO_PHASES)
        #: the liveness oracle whose verdicts purge keeps across rounds
        #: and its readers: its epoch, and owner -> the epoch its answers
        #: last moved (``ReChordNetwork._ref_alive`` / ``.oracle_epoch``
        #: / ``.oracle_moves``); other oracles share and carry nothing
        self._oracle = oracle
        self._oracle_epoch = oracle_epoch
        self._oracle_moves = oracle_moves
        #: the running batch's epoch and owner moves
        self._epoch = None
        self._moved: Dict[int, int] = {}
        self._verdict_epoch = None
        self._verdicts: Dict[NodeRef, str] = {}
        self._ok: set = set()

    def memo_counts(self) -> Dict[str, tuple]:
        """``phase -> (hits, misses, carried)`` so far: the per-level
        memo's lookups by outcome, and the levels that phase carried
        without a lookup.  A rule-6 level whose ``nc`` is empty runs
        nothing and falls in no bucket, so rule 6's counts may sum to
        less than rule 5's."""
        return {
            phase: (self._memo_hits[i], self._memo_misses[i], self._carried[i])
            for i, phase in enumerate(MEMO_PHASES)
        }

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run_batch(self, items: Sequence[tuple], lane: Sequence[tuple] = ()) -> None:
        """Execute one round's steps phase-major.

        ``items`` is ``[(key, actor, parts, ctx), ...]`` in scheduler
        key order, ``parts`` the ordered envelope lists the actor's inbox
        is made of (a kernel without parts passes ``[inbox]``); a
        :class:`~repro.netsim.messages.SubFlow` part holds no application
        mail (the lane contract) and keeps its parsed form between
        rounds.  Every actor's state, outbox, counters and replay delta
        end up exactly as if ``actor.step(inbox, ctx)`` had been called
        in that order.  ``lane`` lists the round's lane steps as ``(key,
        actor, inbox, ctx)``, application mail only: they skip the rule
        phases and join the handler phase, which runs over both lists
        merged in key order.  A non-:class:`~repro.core.protocol.ReChordPeer`
        actor raises ``TypeError`` naming its key.
        """
        peers: List[list] = []
        #: the handler phase: (key, bound handler, its arguments)
        handlers: List[tuple] = []
        tel = None
        if self._oracle_moves is not None:
            self._epoch = self._oracle_epoch()
            self._moved = self._oracle_moves()
        for key, actor, parts, ctx in items:
            if not isinstance(actor, ReChordPeer):
                raise _not_a_peer(key)
            if actor.telemetry is not None:
                tel = actor.telemetry
            fires_before = dict(actor.counters.fires)
            if actor.traffic is not None:
                # one pass per one-shot part takes the application mail
                # out; a part that held nothing else is dropped
                app: list = []
                kept: list = []
                for part in parts:
                    if type(part) is not SubFlow:
                        rest = []
                        for env in part:
                            if isinstance(env.payload, AppPayload):
                                app.append(env.payload)
                            else:
                                rest.append(env)
                        if not rest:
                            continue
                        part = rest
                    kept.append(part)
                if app:
                    parts = kept
                    handlers.append((key, actor.traffic.handle, (actor, app, ctx)))
            # the levels' records describe the current state only while
            # nothing touched it since this peer's last step (every
            # write moves the version) and the config is the one that
            # step ran
            token = actor._carry
            carry = (
                token is not None and token[0] == actor.state.version
                and token[1] is actor.config
            )
            peers.append(
                [actor, parts, ctx, fires_before, _Step(carry, prev=token[2] if carry else None)]
            )
        for key, actor, inbox, ctx in lane:
            if not isinstance(actor, ReChordPeer):
                raise _not_a_peer(key)
            if actor.telemetry is not None:
                tel = actor.telemetry
            handlers.append((key, actor._handle_lane, (inbox, ctx)))
        if lane and peers:
            handlers.sort(key=_ITEM_KEY)
        if peers:
            self.rank_index.refresh()
        if tel is None:
            self._pipeline(peers, handlers, _untimed)
        else:
            before = self.memo_counts()
            self._pipeline(peers, handlers, tel.add_time)
            for phase, counts in self.memo_counts().items():
                tel.add_memo(phase, *(now - then for now, then in zip(counts, before[phase])))
        for actor, _parts, _ctx, fires_before, _s in peers:
            fires = actor.counters.fires
            actor._replay_delta = {
                rule: count - fires_before.get(rule, 0)
                for rule, count in fires.items()
                if count != fires_before.get(rule, 0)
            }

    def _pipeline(self, peers: List[list], handlers: List[tuple], add) -> None:
        """The phases in order, each closed by a wall-clock span.

        ``add`` is the recorder's ``add_time`` (or :func:`_untimed`).
        Labels match the scalar ``ReChordPeer.step`` ones; a span covers
        the whole batch and counts one call per peer, so per-call
        averages keep their per-peer meaning.  Closing the steps is part
        of the rule 6 span.
        """
        n = len(peers)
        t = _perf()
        if peers:
            self._phase_apply_inbox(peers)
            t2 = _perf(); add("peer.apply_inbox", t2 - t, n); t = t2
            self._phase_purge(peers)
            t2 = _perf(); add("rule.purge", t2 - t, n); t = t2
            self._phase_rule1(peers)
            t2 = _perf(); add("rule.1_virtual_nodes", t2 - t, n); t = t2
            self._phase_rule2(peers)
            t2 = _perf(); add("rule.2_overlap", t2 - t, n); t = t2
            # rule 1 mints refs for freshly created levels: re-rank once so
            # the sort phases below see them (cheap no-op when nothing grew)
            self.rank_index.refresh()
            self._phase_rule3(peers)
            t2 = _perf(); add("rule.3_closest_real", t2 - t, n); t = t2
            self._phase_rule4(peers)
            t2 = _perf(); add("rule.4_linearize", t2 - t, n); t = t2
            self._phase_rule5(peers)
            t2 = _perf(); add("rule.5_ring", t2 - t, n); t = t2
            self._phase_rule6(peers)
            self._phase_finish(peers)
            t2 = _perf(); add("rule.6_connection", t2 - t, n); t = t2
        if handlers:
            for _key, handle, args in handlers:
                handle(*args)
            add("peer.traffic", _perf() - t, len(handlers))

    # ------------------------------------------------------------------
    # sorting over the rank column
    # ------------------------------------------------------------------
    def _sorted_refs(self, refs) -> List[NodeRef]:
        """``sorted(refs, key=_KEY)`` via the global rank column.

        Ranks order exactly like keys for interned refs; a never-interned
        ref (or one minted after the last refresh) demotes the call to
        the scalar key sort.
        """
        n = len(refs)
        if n < 2:
            return list(refs)
        if n == 2:
            a, b = refs
            return [a, b] if a._key <= b._key else [b, a]
        ranks = self.rank_index.ranks
        size = self.rank_index.size
        pairs = []
        for r in refs:
            iid = r.iid
            if 0 <= iid < size:
                pairs.append((ranks[iid], r))
            else:
                return sorted(refs, key=_KEY)
        pairs.sort()
        return [r for _rank, r in pairs]

    # ------------------------------------------------------------------
    # fast envelope construction
    # ------------------------------------------------------------------
    def _send_edge(self, ctx, outbox, target: NodeRef, endpoint: NodeRef, kind: str) -> None:
        """``ctx.send(target.owner, EdgeAdd(target, endpoint, kind))``,
        cached under the refs' interned row ids (cheap to hash); a miss
        interns the envelope here only, and never-interned refs (``iid
        == -1`` is not unique) go through ``ctx.send``."""
        ti = target.iid
        ei = endpoint.iid
        if ti < 0 or ei < 0:
            ctx.send(target.owner, EdgeAdd(target, endpoint, kind))
            return
        fast = self._fast
        key = (ctx.self_key, ti, ei, kind)
        env = fast.get(key)
        if env is None:
            if len(fast) >= _FAST_CACHE_MAX:
                fast.clear()
            env = fast[key] = Envelope(
                ctx.self_key, target.owner, EdgeAdd(target, endpoint, kind)
            )
        outbox.append(env)

    def _send_cand(
        self, ctx, outbox, target: NodeRef, cand: NodeRef, side: str, wrap: bool = False
    ) -> None:
        """``ctx.send(target.owner, RealCandidate(target, cand, side, wrap))``."""
        ti = target.iid
        ci = cand.iid
        if ti < 0 or ci < 0:
            ctx.send(target.owner, RealCandidate(target, cand, side, wrap))
            return
        fast = self._fast
        key = (ctx.self_key, ti, ci, side, wrap)
        env = fast.get(key)
        if env is None:
            if len(fast) >= _FAST_CACHE_MAX:
                fast.clear()
            env = fast[key] = Envelope(
                ctx.self_key, target.owner, RealCandidate(target, cand, side, wrap)
            )
        outbox.append(env)

    # ------------------------------------------------------------------
    # phase: delayed-assignment delivery
    # ------------------------------------------------------------------
    def _phase_apply_inbox(self, peers: List[list]) -> None:
        # the scalar _apply_inbox, one landing per level (ARCHITECTURE.md,
        # "Apply-inbox: one delta per level").  It also decides which
        # levels the step sets out to carry: a level whose record is
        # fixed, whose pieces are the recorded ones and whose purge
        # verdicts stand
        parse = self._parse
        epoch, moved = self._epoch, self._moved
        for it in peers:
            actor, parts = it[0], it[1]
            step = _step(it)
            state = actor.state
            peer_id = state.peer_id
            #: addressed level -> its payload tuples, one per part
            by_level: Dict[int, list] = {}
            others: List[Envelope] = []
            for part in parts:
                if type(part) is SubFlow:
                    form = part.parsed
                    if form is None or form[0] != peer_id:
                        form = part.parsed = parse(part, peer_id)
                else:
                    form = parse(part, peer_id)
                for level, payloads in form[1]:
                    pieces = by_level.get(level)
                    if pieces is None:
                        by_level[level] = [payloads]
                    else:
                        pieces.append(payloads)
                if form[2]:
                    others.extend(form[2])
            nodes = state.nodes
            resolved = nodes.keys() >= by_level.keys()
            if others or not resolved:
                # the scalar handler or [D8] mail for a dropped level:
                # the whole peer executes
                step.carry = False
            carry = step.carry
            carried = step.carried
            live: List[int] = []
            for level in sorted(nodes):
                node = nodes[level]
                pieces = by_level.get(level)
                rec = node._carry
                if (
                    carry and rec is not None and rec[_FIXED] and rec[_PIECES] == pieces
                    and (rec[_EPOCH] == epoch or self._verdicts_stand(rec, node, epoch, moved))
                ):
                    carried[level] = rec
                    continue
                if not others:
                    # (the handler's mail is no record's input: a level
                    # it reaches keeps no record that may be carried)
                    step.snaps[level] = _snapshot(node)
                step.recs[level] = _new_rec(pieces)
                live.append(level)
            if others:
                # NeighborIntro / no-plane AppPayload / unknown: rare
                # paths — the scalar handler (same effects, same errors)
                actor._apply_inbox(others)
            if not by_level:
                continue
            if not resolved:
                by_level = self._resolve_levels(parts, nodes)
            recs = step.recs
            for level in live:
                pieces = by_level.get(level)
                if pieces is not None:
                    rec = recs[level]
                    rec[_PIECES] = pieces
                    self._land(actor, nodes[level], pieces, rec)

    @staticmethod
    def _verdicts_stand(rec: list, node, epoch: int, moved: Dict[int, int]) -> bool:
        """Whether every verdict the fixed level's purge took at
        ``rec``'s epoch is still the oracle's answer — no owner it judged
        moved since; then the record holds at ``epoch`` too."""
        then = rec[_EPOCH]
        owners = rec[_OWNERS]
        if owners is None:
            # the level holds what it held when its run ended — and so
            # when it started: its refs and its landing's are the judged
            owners = rec[_OWNERS] = _owners(node, rec[_LAND] or _NO_LANDING)
        for owner in owners:
            if moved.get(owner, then) > then:
                return False
        rec[_EPOCH] = epoch
        return True

    @staticmethod
    def _parse(envelopes: Sequence[Envelope], peer_id: int) -> tuple:
        """One inbox part as ``(receiver, ((level, payloads), ...),
        others)``: the delayed assignments per *addressed* level in part
        order, and the envelopes the scalar handler takes.  Raises like
        the scalar delivery on a payload addressed to another peer — so
        an error is never stored on a sub-flow."""
        by_level: Dict[int, list] = {}
        others: List[Envelope] = []
        for env in envelopes:
            payload = env.payload
            cls = type(payload)
            if cls is EdgeAdd:
                target = payload.target
                if target.owner != peer_id:
                    raise LookupError(
                        f"message for {target!r} delivered to peer {peer_id}"
                    )
            elif cls is RealCandidate:
                target = payload.target
                if target.owner != peer_id:
                    raise LookupError(f"candidate for {target!r} at peer {peer_id}")
            else:
                others.append(env)
                continue
            payloads = by_level.get(target.level)
            if payloads is None:
                by_level[target.level] = [payload]
            else:
                payloads.append(payload)
        return (
            peer_id,
            tuple((level, tuple(payloads)) for level, payloads in by_level.items()),
            tuple(others),
        )

    @staticmethod
    def _resolve_levels(parts: Sequence[Sequence[Envelope]], nodes: dict) -> Dict[int, list]:
        """The split per *landing* level when an addressed level is gone:
        its mail lands on ``u_m`` ([D8]) amid ``u_m``'s own, and wrap
        candidates do not commute, so it is redone from the envelopes."""
        top = max(nodes)
        landed: Dict[int, list] = {}
        for part in parts:
            for env in part:
                payload = env.payload
                cls = type(payload)
                if cls is EdgeAdd or cls is RealCandidate:
                    level = payload.target.level
                    landed.setdefault(level if level in nodes else top, []).append(payload)
        return {level: [tuple(payloads)] for level, payloads in landed.items()}

    def _land(self, actor, node, pieces: list, rec: list) -> None:
        """What the delayed assignments of one level's pieces do to it,
        landed as one delta — the refs added to ``nu`` / ``nr`` / ``nc``,
        the wrap slots, the adoption counts — and noted in its record."""
        self._memo_misses[_AI] += 1
        wrap = actor.config.wrap_pointers
        ref = node.ref
        rl, rr = node._rl, node._rr
        wrl, wrr = node._wrap_rl, node._wrap_rr
        nu_add: set = set()
        nr_add: set = set()
        nc_add: set = set()
        lefts: List[NodeRef] = []
        rights: List[NodeRef] = []
        wrap_adopts = 0
        for payloads in pieces:
            for payload in payloads:
                if type(payload) is EdgeAdd:
                    kind = payload.kind
                    if kind == KIND_UNMARKED:
                        nu_add.add(payload.endpoint)
                    elif kind == KIND_RING:
                        nr_add.add(payload.endpoint)
                    elif kind == KIND_CONNECTION:
                        nc_add.add(payload.endpoint)
                    else:  # pragma: no cover - protocol violation
                        raise ValueError(f"unknown edge kind {kind!r}")
                    continue
                cand = payload.candidate
                if not payload.wrap:
                    (lefts if payload.side == SIDE_LEFT else rights).append(cand)
                    continue
                # seam-exchange adoption [D6], _adopt_wrap_candidate on
                # local slots: the replaced pointer is demoted into nu
                if not wrap or cand.level != 0 or cand == ref:
                    continue
                if payload.side == SIDE_RIGHT:
                    if rr is None and (wrr is None or cand._key < wrr._key):
                        if wrr is not None and wrr != ref:
                            nu_add.add(wrr)
                        wrr = cand
                        wrap_adopts += 1
                elif rl is None and (wrl is None or cand._key > wrl._key):
                    if wrl is not None and wrl != ref:
                        nu_add.add(wrl)
                    wrl = cand
                    wrap_adopts += 1
        adopted = self._adoptable(ref, rl, lefts, SIDE_LEFT) if lefts else []
        if rights:
            adopted += self._adoptable(ref, rr, rights, SIDE_RIGHT)
        nu_add.update(adopted)
        # self-edge sanitation [D10]
        nu_add.discard(ref)
        nr_add.discard(ref)
        nc_add.discard(ref)
        if nu_add:
            node._nu.update(nu_add)
        if nr_add:
            node._nr.update(nr_add)
        if nc_add:
            node._nc.update(nc_add)
        if wrl is not node._wrap_rl or wrr is not node._wrap_rr:
            node.wrap_rl, node.wrap_rr = wrl, wrr
        rec[_LAND] = (tuple(nu_add), tuple(nr_add), tuple(nc_add), wrl, wrr)
        if adopted or wrap_adopts:
            rec[_FIRES][_F_AI:_F_PURGE] = (len(adopted), wrap_adopts)
            counters = actor.counters
            counters.bump("rule3_adopt", len(adopted))
            counters.bump("wrap_adopt", wrap_adopts)

    @staticmethod
    def _adoptable(ref: NodeRef, bound: Optional[NodeRef], cands: List[NodeRef], side: str) -> List[NodeRef]:
        """The candidates rule 3's receiver-side guard lets into ``nu``
        (``_deliver_candidate`` + ``_adopt_linear_candidate`` over one
        node's candidates of one side): real, not the node itself, on
        that side, and strictly closer than the cached pointer ``bound``
        (``rl`` / ``rr``).  A duplicate passes twice, as it fires
        ``rule3_adopt`` twice."""
        nk = ref._key
        bk = None if bound is None else bound._key
        if side == SIDE_LEFT:
            return [
                c for c in cands
                if c.level == 0 and c._key < nk and (bk is None or c._key > bk) and c != ref
            ]
        return [
            c for c in cands
            if c.level == 0 and c._key > nk and (bk is None or c._key < bk) and c != ref
        ]

    # ------------------------------------------------------------------
    # phase: purge [D7]/[D11]
    # ------------------------------------------------------------------
    def _verdicts_of(self, actor) -> tuple:
        """``(verdicts, ok)`` for the actor's oracle: the ones kept for
        the engine's oracle, fresh ones for any other."""
        if actor._ref_alive == self._oracle:
            return self._verdicts, self._ok
        return {}, set()

    def _phase_purge(self, peers: List[list]) -> None:
        # the verdicts of ``self._oracle`` stand for as long as its epoch
        # does, across peers and rounds; a set that holds no self-ref and
        # only refs in ``ok`` (judged alive) purges nothing
        if self._oracle is not None:
            epoch = self._oracle_epoch()
            if epoch != self._verdict_epoch:
                self._verdict_epoch = epoch
                self._verdicts = {}
                self._ok = set()
        for it in peers:
            actor = it[0]
            step = _step(it)
            carried = step.carried
            verdicts, ok = self._verdicts_of(actor)
            nodes = actor.state.nodes
            for level in sorted(nodes):
                if level not in carried:
                    self._purge_level(actor, nodes[level], step.recs[level], verdicts, ok)
            if step.prev is not None:
                for level, rec in step.recs.items():
                    old = nodes[level]._carry
                    if old is None or old[_REALS] != rec[_REALS]:
                        break
                else:
                    step.same_reals = True

    def _purge_level(self, actor, node, rec: list, verdicts: dict, ok: set) -> None:
        """Purge one level; notes its counters and its known reals in
        its record."""
        alive = actor._ref_alive
        nref = node.ref
        rec[_EPOCH] = self._epoch
        phantom = dead = slot = 0
        for refs in (node._nu, node._nr, node._nc):
            if nref not in refs and ok.issuperset(refs):
                continue
            p, d = self._purge_refs(refs, nref, verdicts, ok, alive)
            phantom += p
            dead += d
        for attr, ref in (
            ("rl", node._rl),
            ("rr", node._rr),
            ("wrap_rl", node._wrap_rl),
            ("wrap_rr", node._wrap_rr),
        ):
            if ref is None:
                continue
            if ref.level != 0 or ref == nref:
                setattr(node, attr, None)
                slot += 1
                continue
            v = verdicts.get(ref)
            if v is None:
                v = verdicts[ref] = alive(ref)
                if v == REF_OK:
                    ok.add(ref)
            if v != REF_OK:
                setattr(node, attr, None)
                slot += 1
        nk = nref._key
        rl = node._rl
        if rl is not None and rl._key >= nk:
            node.rl = None
        rr = node._rr
        if rr is not None and rr._key <= nk:
            node.rr = None
        rec[_REALS] = _reals_of(node)
        if phantom or dead or slot:
            rec[_FIRES][_F_PURGE:_F_R2] = (phantom, dead, slot)
            counters = actor.counters
            counters.bump("purge_phantom", phantom)
            counters.bump("purge_dead", dead)
            counters.bump("purge_slot", slot)

    @staticmethod
    def _purge_refs(refs, nref: NodeRef, verdicts: dict, ok: set, alive) -> tuple:
        """Purge one neighbor set; returns ``(phantom, dead)`` counts."""
        bad: List[NodeRef] = []
        for r in refs:
            if r != nref:
                v = verdicts.get(r)
                if v is None:
                    v = verdicts[r] = alive(r)
                    if v == REF_OK:
                        ok.add(r)
                if v == REF_OK:
                    continue
            bad.append(r)
        if not bad:
            return 0, 0
        phantom = dead = 0
        for ref in bad:
            refs.discard(ref)
            if ref == nref:
                continue
            if verdicts[ref] == REF_PHANTOM:
                real = NodeRef.real(ref.owner)
                if real != nref:
                    refs.add(real)
                phantom += 1
            else:
                dead += 1
        return phantom, dead

    # ------------------------------------------------------------------
    # carrying: a level whose inputs turn out to differ runs after all
    # ------------------------------------------------------------------
    def _execute_level(self, it: list, level: int) -> list:
        """A carried level executes from the start: its landing and purge
        run live now (nothing before rule 3 emits, and a carried level's
        counters are only added when the step closes).  Returns its new
        record."""
        actor, step = it[0], it[4]
        old = step.carried.pop(level)
        node = actor.state.nodes[level]
        step.snaps[level] = _snapshot(node)
        rec = step.recs[level] = _new_rec(old[_PIECES])
        if old[_PIECES] is not None:
            self._land(actor, node, old[_PIECES], rec)
        self._purge_level(actor, node, rec, *self._verdicts_of(actor))
        return rec

    def _resume(self, it: list, level: int, hi: tuple) -> None:
        """A carried level executes from rule 3 on (its rule-2 adds after
        its own turn differ, or its ``(rl, rr)`` does): landing and purge
        run live, then its recorded rule-2 turn is applied to ``nu`` and
        ``hi`` is added."""
        old = it[4].carried[level]
        rec = self._execute_level(it, level)
        nu = it[0].state.nodes[level]._nu
        for w in old[_LO]:
            nu.add(w)
        for _target, w in old[_MOVES]:
            nu.discard(w)
        for w in hi:
            nu.add(w)
        rec[_LO], rec[_MOVES], rec[_HI] = old[_LO], old[_MOVES], hi
        rec[_FIRES][_F_R2] = len(old[_MOVES])
        it[4].stage[level] = _POST2

    def _reopen(self, it: list, level: int) -> None:
        """A carried level executes rules 5 and 6 (rule 5's peer-wide
        reads moved): ``nu`` and the slots hold what rule 4 left, ``nr``
        and ``nc`` go back to what the purge left (the recorded adds,
        purged again under the same verdicts)."""
        actor, step = it[0], it[4]
        old = step.carried.pop(level)
        node = actor.state.nodes[level]
        step.snaps[level] = _snapshot(node)
        rec = step.recs[level] = list(old)
        # what rules 5 and 6 did is redone (an idle rule 6 did nothing)
        rec[_OUT + _R5] = rec[_OUT + _R6] = ()
        rec[_FIRES] = old[_FIRES][:_F_R5] + [0] * (len(FIRE_NAMES) - _F_R5)
        verdicts, ok = self._verdicts_of(actor)
        land = old[_LAND] or _NO_LANDING
        for refs, add in ((node._nr, land[1]), (node._nc, land[2])):
            if add:
                refs.update(add)
            self._purge_refs(refs, node.ref, verdicts, ok, actor._ref_alive)
        step.stage[level] = _POST4

    @staticmethod
    def _known_reals(step: _Step, state) -> set:
        """The real refs of ``knowledge()`` after purge (and after rules
        1 and 2, which lose none): the union of the levels' parts."""
        reals = step.reals
        if reals is None:
            reals = step.reals = {state.nodes[0].ref}
            carried, recs = step.carried, step.recs
            for level in state.nodes:
                rec = carried.get(level)
                reals |= (recs[level] if rec is None else rec)[_REALS]
        return reals

    # ------------------------------------------------------------------
    # phase: rule 1 — virtual nodes
    # ------------------------------------------------------------------
    def _phase_rule1(self, peers: List[list]) -> None:
        # the closest real gap, off the union of the levels' parts; only
        # a level set that must change runs the scalar rule (whole peer)
        for it in peers:
            actor = it[0]
            if not actor.config.virtual_nodes:
                continue
            step = it[4]
            state = actor.state
            nodes = state.nodes
            if step.same_reals:
                continue  # the gap is the previous step's, which kept the levels
            gap = state.closest_real_gap(self._known_reals(step, state))
            m = state.space.level_count(gap)
            if max(nodes) == m and len(nodes) == m + 1:
                continue
            for level in sorted(step.carried):
                self._execute_level(it, level)
            actor._rule1_virtual_nodes()
            step.whole = True
            step.sibs = None

    # ------------------------------------------------------------------
    # phase: rule 2 — overlapping neighborhood
    # ------------------------------------------------------------------
    def _phase_rule2(self, peers: List[list]) -> None:
        # the scalar loop, level by level.  A carried level replays its
        # recorded moves, and the refs moved into it before its turn and
        # after it are compared with the recorded ones: a difference
        # makes it execute
        for it in peers:
            actor = it[0]
            if not actor.config.overlap:
                continue
            step = _step(it)
            state = actor.state
            nodes = state.nodes
            sibs, sib_keys = self._siblings(step, nodes)
            carried = step.carried
            #: level -> refs moved into it since its turn (or the start)
            got: Dict[int, list] = {}
            moved = 0
            for level in sorted(nodes):
                node = nodes[level]
                lo = tuple(got.pop(level, _NO_MOVES))
                rec = carried.get(level)
                if rec is not None and lo == rec[_LO]:
                    moves = rec[_MOVES]
                else:
                    if rec is not None:
                        self._execute_level(it, level)
                        for w in lo:
                            node._nu.add(w)
                    rec = step.recs[level]
                    rec[_LO] = lo
                    moves = rec[_MOVES] = self._rule2_level(node, sibs, sib_keys)
                    rec[_FIRES][_F_R2] = len(moves)
                    moved += len(moves)
                for target, w in moves:
                    peer_node = nodes[target]
                    if w != peer_node.ref:
                        if target not in carried:
                            peer_node._nu.add(w)
                        got.setdefault(target, []).append(w)
            for level in sorted(nodes):
                hi = tuple(got.get(level, _NO_MOVES))
                rec = carried.get(level)
                if rec is None:
                    step.recs[level][_HI] = hi
                elif hi != rec[_HI]:
                    self._resume(it, level, hi)
            if moved:
                actor.counters.bump("rule2_move", moved)

    def _siblings(self, step: _Step, nodes: dict) -> tuple:
        """The sibling refs in key order and their keys — the previous
        step's while the level set stands."""
        if step.sibs is None:
            prev = step.prev
            if prev is not None and prev[3] is not None and not step.whole:
                step.sibs, step.sib_keys = prev[3], prev[4]
            else:
                sibs = step.sibs = tuple(self._sorted_refs([n.ref for n in nodes.values()]))
                step.sib_keys = [s._key for s in sibs]
        return step.sibs, step.sib_keys

    @staticmethod
    def _rule2_level(node, sibs: Sequence[NodeRef], sib_keys: list) -> tuple:
        """Scalar rule 2 on one node: discards every ref it moves and
        returns the moves as ``((target level, ref), ...)``."""
        ui = node.ref
        uik = ui._key
        nsibs = len(sibs)
        moves = []
        for w in sorted(node._nu, key=_KEY):
            wk = w._key
            if wk < uik:
                # siblings strictly between w and ui; closest to w wins
                idx = bisect_right(sib_keys, wk)
                target = sibs[idx] if idx < nsibs and sib_keys[idx] < uik else None
            else:
                idx = bisect_left(sib_keys, wk)
                target = sibs[idx - 1] if idx > 0 and sib_keys[idx - 1] > uik else None
            if target is None:
                continue
            node._nu.discard(w)
            moves.append((target.level, w))
        return tuple(moves) if moves else _NO_MOVES

    # ------------------------------------------------------------------
    # rules 3-6: one per-level driver (docs/ARCHITECTURE.md, "The driver")
    # ------------------------------------------------------------------
    def _drive(self, rule: int, work: List[tuple], key_of, body) -> None:
        """Memoized rule ``rule`` on each ``(step item, step, nodes,
        levels, arg)`` in ``work``, ``levels`` in order: a carried level
        replays its slice; another looks up ``key_of(arg, level, node,
        memo)`` (``key[0]`` the set the rule rewrites, live or frozen; the
        rest immutable).  A miss runs ``body(node, ctx, key) -> (deltas,
        extra)`` in place and stores the entry; a hit replays it — the
        envelopes, the set through the tracking API, ``extra(node)``
        unless None (what else the body wrote).  The record gets the slice
        and deltas, the counters the sum."""
        out = _OUT + rule
        attr = _REWRITES[rule]
        cut = _FIRES_AT[rule]
        zero = _NO_FIRES[rule]
        names = FIRE_NAMES[cut]
        n_levels = misses = n_carried = 0
        for it, step, nodes, levels, arg in work:
            outbox = it[2]._outbox
            carried, recs = step.carried, step.recs
            # (every carried level is in ``levels``; the others are looked up)
            n_carried += len(carried)
            n_levels += len(levels)
            acc = None
            for level in levels:
                rec = carried.get(level)
                if rec is not None:
                    if rec[out]:
                        outbox.extend(rec[out])
                    continue
                node = nodes[level]
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_RULES)
                key = key_of(arg, level, node, memo)
                entry = memo[rule]
                if entry is None or entry[0] != key:
                    misses += 1
                    start = len(outbox)
                    before = _as_frozen(key[0])
                    fires, extra = body(node, it[2], key)
                    entry = memo[rule] = (
                        (before, *key[1:]),
                        tuple(outbox[start:]),
                        _frozen(getattr(node, attr), before),
                        zero if fires == zero else fires,
                        extra,
                    )
                else:
                    if entry[1]:
                        outbox.extend(entry[1])
                    if entry[2] is not entry[0][0]:
                        _restore(getattr(node, attr), entry[2])
                    if entry[4] is not None:
                        entry[4](node)
                rec = recs[level]
                rec[out] = entry[1]
                fires = entry[3]
                if fires is not zero:  # (the record's slice is zero until now)
                    rec[_FIRES][cut] = fires
                    if acc is None:
                        acc = list(fires)
                    else:
                        for i, amount in enumerate(fires):
                            acc[i] += amount
            if acc is not None:
                counters = it[0].counters
                for name, amount in zip(names, acc):
                    counters.bump(name, amount)
        self._memo_hits[rule] += n_levels - n_carried - misses
        self._memo_misses[rule] += misses
        self._carried[rule] += n_carried

    @staticmethod
    def _nu_source(cfg, rule: int) -> Optional[int]:
        """The memoized rule whose entry holds ``nu`` frozen as ``rule``
        finds it — the last enabled one of rules 3 and 4 before it, which
        just ran on every level of the peer — or None: read the live set."""
        if rule > _R4 and cfg.linearize:
            return _R4
        return _R3 if cfg.closest_real else None

    # ------------------------------------------------------------------
    # phase: rule 3 — closest real neighbor
    # ------------------------------------------------------------------
    def _phase_rule3(self, peers: List[list]) -> None:
        # pre-pass: each level's closest real pair (rl, rr); a carried level
        # whose pair moved is promoted, in level order, before any emits
        work: List[tuple] = []
        for it in peers:
            actor = it[0]
            cfg = actor.config
            if not cfg.closest_real:
                continue
            step = _step(it)
            state = actor.state
            nodes = state.nodes
            carried, recs = step.carried, step.recs
            same = step.same_reals and not step.whole
            if same:
                # every carried level's (rl, rr) was checked against
                # this very list in the previous step
                reals, real_keys = step.prev[0], step.prev[1]
            else:
                if step.whole:
                    reals = self._sorted_refs([r for r in state.knowledge() if r.level == 0])
                else:
                    reals = self._sorted_refs(list(self._known_reals(step, state)))
                real_keys = [r._key for r in reals]
            step.reals_list, step.real_keys = reals, real_keys
            n = len(reals)
            levels = sorted(nodes)
            # (in a step that is not whole the records are exactly the
            # executed levels, and then no level is promoted)
            for level in recs if same else levels:
                ui = nodes[level].ref
                idx = bisect_left(real_keys, ui._key)
                rl = reals[idx - 1] if idx > 0 else None
                if idx < n and reals[idx] == ui:
                    idx += 1
                pair = (rl, reals[idx] if idx < n else None)
                rec = carried.get(level)
                if rec is not None:
                    if pair == rec[_RLRR]:
                        continue
                    self._resume(it, level, rec[_HI])
                recs[level][_RLRR] = pair
            work.append((it, step, nodes, levels, (recs, cfg)))
        self._drive(_R3, work, self._rule3_key, self._rule3_level)

    @staticmethod
    def _rule3_key(arg: tuple, level: int, node, memo: list) -> tuple:
        recs, cfg = arg
        rl, rr = recs[level][_RLRR]  # the first write: the same on a hit and a miss
        if node._rl is not rl:
            node.rl = rl
        if node._rr is not rr:
            node.rr = rr
        return (
            node._nu, rl, rr, node._wrap_rl, node._wrap_rr, cfg,
            (node._bcast_rl, node._bcast_rl_targets, node._bcast_rr, node._bcast_rr_targets)
            if cfg.economical_broadcast else None,
        )

    def _rule3_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 3 on one simulated node whose ``rl``/``rr`` are already
        assigned.  It fires no counter; a hit replays the wrap and
        broadcast slots it changed."""
        nu, rl, rr, wrap_rl, wrap_rr, cfg, bcast = key
        outbox = ctx._outbox
        wrap = cfg.wrap_pointers
        eco = cfg.economical_broadcast
        ui = node.ref
        uik = ui._key
        for x in (rl, rr):
            if x is not None:
                nu.add(x)
        if wrap and (wrap_rl is not None or wrap_rr is not None):
            # the scalar _maintain_wrap_slots: a linear real neighbor
            # retires the wrap pointer of its side into nu
            for near, slot in ((rr, "wrap_rr"), (rl, "wrap_rl")):
                w = getattr(node, slot)
                if near is not None and w is not None:
                    if w != ui:
                        nu.add(w)
                    setattr(node, slot, None)
        nu_sorted = self._sorted_refs(nu)
        for x, (side, slot, targets) in zip((rl, rr), _BCAST_SLOTS):
            if x is None:
                if eco:
                    setattr(node, slot, None)
                    setattr(node, targets, None)
                continue
            # every neighbor but ui beyond x (x is strictly on its side of ui)
            xk = x._key
            if side == SIDE_LEFT:
                recipients = [y for y in nu_sorted if y._key > xk and y._key != uik and y != x]
            else:
                recipients = [y for y in nu_sorted if y._key < xk and y._key != uik and y != x]
            sent = getattr(node, targets) if eco and x == getattr(node, slot) else None
            for y in recipients:
                if sent is None or y not in sent:
                    self._send_cand(ctx, outbox, y, x, side)
            if eco:
                setattr(node, slot, x)
                setattr(node, targets, frozenset(recipients))
        if wrap and (rl is None or rr is None):
            self._relay_wrap(node, ctx, outbox)
        bcast_after = (
            node._bcast_rl, node._bcast_rl_targets,
            node._bcast_rr, node._bcast_rr_targets,
        ) if eco else None
        slots = (node._wrap_rl, node._wrap_rr, bcast_after)
        return (), None if slots == (wrap_rl, wrap_rr, bcast) else partial(_put_slots, slots)

    def _relay_wrap(self, node, ctx, outbox) -> None:
        """Scalar ``_relay_wrap`` on the fast send path: a node with no
        linear real neighbor on a side relays that side's wrap pointer to
        its closest neighbor on the other side and to its linear real
        neighbor there."""
        uik = node.ref._key
        rl, rr = node._rl, node._rr
        for near, far, wrap, side, closest, toward in (
            (rr, rl, node._wrap_rr, SIDE_RIGHT, max, uik.__gt__),
            (rl, rr, node._wrap_rl, SIDE_LEFT, min, uik.__lt__),
        ):
            if near is not None or wrap is None:
                continue
            close = [w for w in node._nu if toward(w._key)]
            targets = {closest(close)} if close else set()
            if far is not None:
                targets.add(far)
            for t in sorted(targets):
                self._send_cand(ctx, outbox, t, wrap, side, wrap=True)

    # ------------------------------------------------------------------
    # phase: rule 4 — linearization + mirroring
    # ------------------------------------------------------------------
    def _phase_rule4(self, peers: List[list]) -> None:
        work: List[tuple] = []
        for it in peers:
            actor = it[0]
            if actor.config.linearize:
                nodes = actor.state.nodes
                work.append((it, _step(it), nodes, sorted(nodes), self._nu_source(actor.config, _R4)))
        self._drive(_R4, work, self._rule4_key, self._rule4_level)

    @staticmethod
    def _rule4_key(source: Optional[int], level: int, node, memo: list) -> tuple:
        return (node._nu if source is None else memo[source][2], node._rl, node._rr)

    def _rule4_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 4 on one simulated node; its counter delta is the number
        of forwards."""
        send_edge = self._send_edge
        outbox = ctx._outbox
        nu = node._nu
        ui = node.ref
        uik = ui._key
        # one sort, split at ui (the scalar code sorts each half)
        lefts: List[NodeRef] = []
        rights: List[NodeRef] = []
        for w in self._sorted_refs(nu):
            wk = w._key
            if wk < uik:
                lefts.append(w)
            elif wk > uik:
                rights.append(w)
        # forward pairs, closest-first (lefts in descending order)
        for j in range(len(lefts) - 1, 0, -1):
            send_edge(ctx, outbox, lefts[j], lefts[j - 1], KIND_UNMARKED)
            nu.discard(lefts[j - 1])
        for j in range(len(rights) - 1):
            send_edge(ctx, outbox, rights[j], rights[j + 1], KIND_UNMARKED)
            nu.discard(rights[j + 1])
        # mirroring over whatever remains in nu (the two closest, and
        # any equal-to-ui ref: the scalar re-scan, not an assumption)
        for v in self._sorted_refs(nu):
            send_edge(ctx, outbox, v, ui, KIND_UNMARKED)
        for x in key[1:]:
            if x is not None:
                nu.add(x)
        return ((len(lefts) - 1 if lefts else 0) + (len(rights) - 1 if rights else 0),), None

    # ------------------------------------------------------------------
    # phase: rule 5 — ring edges
    # ------------------------------------------------------------------
    def _phase_rule5(self, peers: List[list]) -> None:
        # pre-pass: the peer-wide reads, taken after rule 4 ran on every
        # level; a carried level that saw other ones is reopened
        work: List[tuple] = []
        for it in peers:
            actor = it[0]
            cfg = actor.config
            if not cfg.ring:
                continue
            step = _step(it)
            state = actor.state
            nodes = state.nodes
            carried = step.carried
            same = False
            if step.whole:
                knowledge = state.knowledge()
                reals = state.known_reals(knowledge)
                wide = (min(knowledge, key=_KEY), max(knowledge, key=_KEY),
                        reals[0], reals[-1], cfg.wrap_pointers)
            else:
                # the union of the levels' parts (a carried level's is
                # recorded): the previous step's if every executed
                # level's part is its recorded one
                same = step.prev is not None and step.prev[2] is not None
                for level, rec in step.recs.items():
                    ext = rec[_EXT] = _extremes(nodes[level])
                    if same:
                        old = nodes[level]._carry
                        same = old is not None and old[_EXT] == ext
                if same:
                    wide = step.prev[2]
                else:
                    exts = [(carried.get(level) or step.recs[level])[_EXT] for level in nodes]
                    wide = (
                        min([e[0] for e in exts], key=_KEY),
                        max([e[1] for e in exts], key=_KEY),
                        min([e[2] for e in exts if e[2] is not None], key=_KEY),
                        max([e[3] for e in exts if e[3] is not None], key=_KEY),
                        cfg.wrap_pointers,
                    )
            step.wide = wide
            if not same:
                for level in [lv for lv, rec in carried.items() if rec[_WIDE] != wide]:
                    self._reopen(it, level)
            for rec in step.recs.values():
                rec[_WIDE] = wide
            arg = (self._nu_source(cfg, _R5), step.stage, wide)
            work.append((it, step, nodes, sorted(nodes), arg))
        self._drive(_R5, work, self._rule5_key, self._rule5_level)

    @staticmethod
    def _rule5_key(arg: tuple, level: int, node, memo: list) -> tuple:
        source, stage, wide = arg
        nu = frozenset(node._nu) if source is None or level in stage else memo[source][2]
        return (node._nr, nu, *wide)

    def _rule5_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 5 on one simulated node; its counter deltas are
        ``(create, convert, forward)``."""
        nr, nu, kmin, kmax, real_min, real_max, wrap = key
        send_edge = self._send_edge
        outbox = ctx._outbox
        ui = node.ref
        uik = ui._key
        create = convert = forward = 0
        has_left = has_right = False
        for w in nu:
            wk = w._key
            if wk < uik:
                has_left = True
            elif wk > uik:
                has_right = True
        if not has_left and kmax != ui:
            send_edge(ctx, outbox, kmax, ui, KIND_RING)
            create += 1
        if not has_right and kmin != ui:
            send_edge(ctx, outbox, kmin, ui, KIND_RING)
            create += 1
        for w in self._sorted_refs(nr) if nr else ():
            if w == ui:
                nr.discard(w)
                continue
            wk = w._key
            # w's side of ui: its extreme, the one across the seam, the
            # real one across it, the wrap side and "farther out"
            if wk > uik:
                x, seam, real, side, beyond = kmax, kmin, real_min, SIDE_RIGHT, gt
            else:
                x, seam, real, side, beyond = kmin, kmax, real_max, SIDE_LEFT, lt
            xk = x._key
            for y in nr:
                if beyond(y._key, xk):
                    x = y
                    xk = y._key
            if beyond(xk, wk):
                send_edge(ctx, outbox, x, w, KIND_UNMARKED)
                nr.discard(w)
                convert += 1
            elif seam != ui:
                send_edge(ctx, outbox, seam, w, KIND_RING)
                nr.discard(w)
                forward += 1
            elif wrap:
                self._send_cand(ctx, outbox, w, real, side, wrap=True)
        return (create, convert, forward), None

    # ------------------------------------------------------------------
    # phase: rule 6 — connection edges
    # ------------------------------------------------------------------
    def _phase_rule6(self, peers: List[list]) -> None:
        # pre-pass: the sibling chain joins nc, so only the last sibling's
        # nc may be empty; then that level runs nothing (and no lookup)
        work: List[tuple] = []
        for it in peers:
            actor = it[0]
            cfg = actor.config
            if not cfg.connection:
                continue
            step = _step(it)
            carried = step.carried
            nodes = actor.state.nodes
            sibs = self._siblings(step, nodes)[0]
            for a, b in zip(sibs, sibs[1:]):
                if a.level not in carried:
                    nodes[a.level]._nc.add(b)
            levels = sorted(nodes)
            last = sibs[-1].level
            if last not in carried and not nodes[last]._nc:
                levels.remove(last)
            work.append((it, step, nodes, levels, (self._nu_source(cfg, _R6), step.stage, sibs)))
        self._drive(_R6, work, self._rule6_key, self._rule6_level)

    @staticmethod
    def _rule6_key(arg: tuple, level: int, node, memo: list) -> tuple:
        source, stage, sibs = arg
        nu = frozenset(node._nu) if source is None or level in stage else memo[source][2]
        return (node._nc, nu, sibs)

    def _rule6_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 6 on one simulated node whose ``nc`` already holds its
        sibling-chain edge; its counter deltas are ``(forward,
        backward)``."""
        nc, nu, sibs = key
        send_edge = self._send_edge
        outbox = ctx._outbox
        ui = node.ref
        forward = backward = 0
        # few connection edges (typically just the sibling chain): each
        # closest known predecessor by a linear scan, not a sort
        few = len(nc) <= 4
        if few:
            known = (*nu, *sibs)
        else:
            cands = self._sorted_refs([*nu, *sibs])
            cand_keys = [c._key for c in cands]
        for v in self._sorted_refs(nc):
            nc.discard(v)
            if v == ui:
                continue
            vk = v._key
            if few:
                w = wk = None
                for c in known:
                    ck = c._key
                    if ck < vk and (wk is None or ck > wk):
                        w = c
                        wk = ck
            else:
                idx = bisect_left(cand_keys, vk)
                w = cands[idx - 1] if idx > 0 else None
            if w is None or w == ui:
                send_edge(ctx, outbox, v, ui, KIND_UNMARKED)
                backward += 1
            else:
                send_edge(ctx, outbox, w, v, KIND_CONNECTION)
                forward += 1
        return (forward, backward), None

    # ------------------------------------------------------------------
    # closing a step
    # ------------------------------------------------------------------
    def _phase_finish(self, peers: List[list]) -> None:
        """Add the carried levels' counters, store the executed levels'
        records — fixed iff the step left the level as it found it — and
        the token that lets the next step trust them."""
        oracle = self._oracle
        carried_n = 0
        for it in peers:
            actor, step = it[0], it[4]
            state = actor.state
            nodes = state.nodes
            acc = [0] * len(FIRE_NAMES)
            for rec in step.carried.values():
                replay = rec[_REPLAY]
                if replay is None:
                    replay = rec[_REPLAY] = tuple((i, a) for i, a in enumerate(rec[_FIRES]) if a)
                for i, amount in replay:
                    acc[i] += amount
            carried_n += len(step.carried)
            whole = step.whole
            snaps = step.snaps
            stage = step.stage
            for level, rec in step.recs.items():
                node = nodes.get(level)
                if node is None:
                    continue
                fires = rec[_FIRES]
                replayed = stage.get(level)
                if replayed is not None:
                    cut = _STAGE_FIRES[replayed]
                    for i in range(cut.start, cut.stop):
                        acc[i] += fires[i]
                    carried_n += replayed == _POST4
                snap = snaps.get(level)
                rec[_FIXED] = not whole and snap is not None and (
                    node._nu == snap[0] and node._nr == snap[1]
                    and node._nc == snap[2] and _slots(node) == snap[3]
                )
                # what only a carry reads is worked out at the first one
                rec[_REPLAY] = rec[_OWNERS] = None
                node._carry = rec
            if any(acc):
                counters = actor.counters
                for name, amount in zip(FIRE_NAMES, acc):
                    if amount:
                        counters.bump(name, amount)
            actor._carry = (
                (state.version, actor.config, None if whole else (
                    step.reals_list, step.real_keys, step.wide, step.sibs, step.sib_keys,
                ))
                if self._oracle_moves is not None and actor._ref_alive == oracle else None
            )
        self._carried[_AI] += carried_n
