"""Batched rule kernels over the interned-id columns.

The scalar pipeline in :mod:`repro.core.protocol` steps one peer at a
time: apply inbox, purge, rules 1–6, traffic.  This module executes the
same pipeline **phase-major** across every peer the scheduler decided to
run in a round: one pass applies all inboxes, one pass purges all
peers, one pass runs rule 3 everywhere, and so on.  The reordering is
behaviorally invisible because within a round

* a peer's rules read and mutate *only its own* ``PeerState`` (direct
  assignments are peer-local; delayed assignments travel as messages),
* every send is buffered in the peer's round outbox and delivered only
  at the round boundary, and
* the liveness oracle answers from the network's frozen round-start
  snapshot, so purge verdicts cannot observe another peer's progress.

So per-peer phase results are identical to the scalar interleaving, and
per-peer outbox *order* is preserved too (each phase appends to the same
peer outbox in the same relative order the scalar pipeline would).

What the batching buys
----------------------

* **One rank index per round** — :class:`RankIndex` lexsorts the intern
  table's flat ``(ids, owners, levels)`` columns (numpy ``lexsort`` when
  available, a pure-Python argsort otherwise) into a global rank per
  interned ref.  Ranks are a strict-total-order isomorphism of
  ``NodeRef._key`` (the key is a bijection of the interned triple), so
  every neighbor-set sort in rules 3/4/5/6 becomes an integer sort
  instead of a tuple-key sort.  Ranks are used for *ordering only*;
  equality guards (``y == rl`` etc.) stay real ``NodeRef`` comparisons,
  which deliberately ignore the id component.
* **Purge verdicts kept per oracle epoch** — liveness verdicts are pure
  in the ref given the oracle's frozen snapshot, so one memo serves
  every peer of the network, across rounds, until the network moves its
  oracle epoch (any write to the snapshot).
* **An integer-keyed envelope cache** — the stable state re-emits the
  same small set of envelopes every round; the batched send path looks
  them up by flat ``(owner, level)`` integers without constructing the
  payload at all.  It is the *only* intern cache on this path: a miss
  builds the envelope here and never enters the scheduler's
  ``(sender, target, payload)``-keyed cache, so each envelope is held
  under one key, not two.  Interning is a pure speed device — outbox
  comparisons are by value — so a scalar step, which emits through
  ``ctx.send``, merely compares a little slower.
* **Per-level delivery** — the apply-inbox phase parses each part of an
  inbox into its payloads per addressed level (a persistent
  :class:`~repro.netsim.messages.SubFlow` keeps the parsed form, so an
  unchanged sub-flow is parsed once, not once per round), and lands
  each level with one delta: the refs added to ``nu``/``nr``/``nc``
  (one C-level ``set.update`` each, self-edges removed by one
  ``discard``), the wrap slots, the adoption counts.  Set *content* is
  all any downstream consumer observes (every order-sensitive reader
  sorts first), and the ``version`` counter is only ever compared for
  equality, so coalesced bumping is invisible.  Linear adoption reads
  only ``node.ref`` and the ``rl``/``rr`` slots, which nothing in the
  phase writes, so linear candidates commute with each other, with
  edge-adds and with wrap candidates; wrap candidates (which read and
  write the wrap slots) keep their relative order.  The landing sits
  behind the per-level memo too (key table below).
* **C-speed purge screening** — the ``ok`` set of refs already
  judged alive turns the common per-set scan into one hash-based
  ``issuperset`` call, and a single ``nref in refs`` containment check
  replaces the per-ref self-edge comparison; only sets that might
  actually purge fall back to the scalar loop.
* **Predecessor scans in rule 6** — with the typical one or two
  connection edges per level, the closest-known-predecessor is found
  by a linear key scan over ``nu`` and the sibling chain instead of
  materializing and sorting the full candidate list.
* **A per-level memo in front of rules 3–6** — the dirty set is per
  *peer*, but one changed sub-flow usually reaches one virtual node, and
  the other ~log n levels of the receiver see exactly the inputs they
  saw the last time the peer executed.  See "The per-level memo" below.

The per-level memo
------------------

For one simulated node, each of rules 3, 4, 5 and 6 is a deterministic
function of a short list of inputs — the node's own sets and slots plus
a few peer-wide values — to (emitted envelopes, the node's state after
the rule, counter deltas); ``node.ref`` is fixed for the node's
lifetime.  The inputs, i.e. the **memo key** of each rule:

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

The apply-inbox landing is memoized the same way, per simulated node:
its key is the level's pieces (the payload tuples addressed to it, in
inbox order), ``rl``, ``rr``, ``wrap_rl``, ``wrap_rr`` and
``config.wrap_pointers``.  The landing only ever *adds* to the neighbor
sets and reads none of them, so the sets are not key components and the
entry is a delta (``_land_level``).

``(rl, rr)`` rather than the sorted reals list: a far-away real node the
peer learns of moves no level's closest pair and must not miss them all.
**A new read in a rule body is a new key component.**

Every :class:`~repro.core.state.LocalNode` carries a one-entry memo per
rule (``_memo``).  A phase builds the key; on a **hit** it appends the
cached envelope slice to the outbox, restores the cached post-state
through the tracking API (so ``PeerState.version`` moves iff content
changes) and adds the cached counter deltas; on a **miss** it runs the
rule body (``_ruleN_level``) in place and stores what it did.  The
purity argument, the lifetime rules and the frozen-set sharing are in
docs/ARCHITECTURE.md § "The rule pipeline: spec and fast path".

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

from bisect import bisect_left
from operator import attrgetter, itemgetter
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
#: one entry per memoized phase (``MEMO_PHASES`` below), a rule's
#: indexed by its position here.  A rule's entry is
#: ``(key, envelopes, post set, rest)``: the key with its sets frozen,
#: the emitted outbox slice as a tuple, the post-state of the set the
#: rule rewrites (``nu`` for rules 3/4, ``nr`` for 5, ``nc`` for 6 — the
#: key's own frozenset when the rule left it alone) and the rule's
#: remaining results (rule 3: changed wrap/bcast slots or None; rules
#: 4–6: counter deltas)
MEMO_RULES = ("rule3", "rule4", "rule5", "rule6")
_R3, _R4, _R5, _R6 = range(4)

#: the memoized phases: the four rules and, in the list's last slot, the
#: apply-inbox landing (entry layout at ``_land_level``)
MEMO_PHASES = MEMO_RULES + ("apply_inbox",)
_AI = 4

#: rule 5's counter deltas when nothing fired
_NO_RING_FIRES = (0, 0, 0)


def _restore(refs: TrackedSet, content: frozenset) -> None:
    """Make a tracked set hold exactly ``content``; bumps iff it changes."""
    if content:
        refs.intersection_update(content)
        refs.update(content)
    else:
        refs.clear()


def _as_frozen(refs) -> frozenset:
    """A key's ``nu`` frozen: it is the previous rule's frozen post-state
    already, or the live set when no memoized rule ran before."""
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
    """Phase-major executor for a round's batch of dirty ReChord peers.

    Installed on the columnar kernel via ``set_batch_stepper``; both of
    its loops hand it the full list of ``(key, actor, inbox, ctx)`` step
    items (in key order) of every round, instead of calling
    ``actor.step`` one by one.  It steps Re-Chord peers only.
    """

    __slots__ = (
        "rank_index", "_fast", "_memo_hits", "_memo_misses",
        "_oracle", "_oracle_epoch", "_verdict_epoch", "_verdicts", "_ok",
    )

    def __init__(
        self, use_numpy: Optional[bool] = None, oracle=None, oracle_epoch=None
    ) -> None:
        self.rank_index = RankIndex(use_numpy)
        #: this pipeline's envelope intern cache, keyed by flat ints
        self._fast: Dict[tuple, Envelope] = {}
        #: per-level memo lookups by outcome, one int per MEMO_PHASES
        #: entry; observational only — no rule reads them
        self._memo_hits = [0] * len(MEMO_PHASES)
        self._memo_misses = [0] * len(MEMO_PHASES)
        #: the liveness oracle whose verdicts purge may keep across
        #: rounds, and the callable reading its epoch — which moves
        #: whenever one of its answers may
        #: (``ReChordNetwork._ref_alive`` / ``.oracle_epoch``).  Peers
        #: answering to any other oracle share nothing
        self._oracle = oracle
        self._oracle_epoch = oracle_epoch
        self._verdict_epoch = None
        self._verdicts: Dict[NodeRef, str] = {}
        self._ok: set = set()

    def memo_counts(self) -> Dict[str, tuple]:
        """``phase -> (hits, misses)`` of the per-level memo so far."""
        return {
            phase: (self._memo_hits[i], self._memo_misses[i])
            for i, phase in enumerate(MEMO_PHASES)
        }

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run_batch(self, items: Sequence[tuple], lane: Sequence[tuple] = ()) -> None:
        """Execute one round's steps phase-major.

        ``items`` is ``[(key, actor, parts, ctx), ...]`` in scheduler
        key order, ``parts`` being the actor's inbox as the ordered
        envelope lists it is made of (their concatenation is the inbox;
        a kernel without parts passes ``[inbox]``).  A part that is a
        :class:`~repro.netsim.messages.SubFlow` is a persistent steady
        sub-flow: it holds no application mail (the lane contract) and
        keeps its parsed form between rounds.  Every actor's observable
        effects (state, outbox, counters, replay delta) end up exactly
        as if ``actor.step(inbox, ctx)`` had been called in that order.
        ``lane`` lists the round's lane steps as ``(key, actor, inbox,
        ctx)``, the inbox holding application mail only:
        those actors skip the rule phases and join the handler phase,
        which runs over both lists merged in key order — handler side
        effects (completion order) must not depend on which peers
        happened to be dirty.  An actor that is not a
        :class:`~repro.core.protocol.ReChordPeer` raises ``TypeError``
        naming its key.
        """
        peers: List[list] = []
        #: the handler phase: (key, bound handler, its arguments)
        handlers: List[tuple] = []
        tel = None
        for key, actor, parts, ctx in items:
            if not isinstance(actor, ReChordPeer):
                raise _not_a_peer(key)
            if actor.telemetry is not None:
                tel = actor.telemetry
            fires_before = dict(actor.counters.fires)
            if actor.traffic is not None:
                app: Optional[list] = None
                for i, part in enumerate(parts):
                    if type(part) is SubFlow:
                        continue
                    mail = [e.payload for e in part if isinstance(e.payload, AppPayload)]
                    if mail:
                        if app is None:
                            app = mail
                            parts = list(parts)
                        else:
                            app.extend(mail)
                        parts[i] = [e for e in part if not isinstance(e.payload, AppPayload)]
                if app:
                    handlers.append((key, actor.traffic.handle, (actor, app, ctx)))
            peers.append([actor, parts, ctx, fires_before])
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
            for phase, (hits, misses) in self.memo_counts().items():
                tel.add_memo(phase, hits - before[phase][0], misses - before[phase][1])
        for actor, _parts, _ctx, fires_before in peers:
            fires = actor.counters.fires
            actor._replay_delta = {
                rule: count - fires_before.get(rule, 0)
                for rule, count in fires.items()
                if count != fires_before.get(rule, 0)
            }

    def _pipeline(self, peers: List[list], handlers: List[tuple], add) -> None:
        """The phases in order, each closed by a wall-clock span.

        ``add`` is the recorder's ``add_time`` (or :func:`_untimed`: an
        untraced batch pays ten clock reads per *round*, not per peer).
        Phase labels match the scalar ``ReChordPeer.step`` ones so telemetry
        reports stay comparable; a span covers the whole batch and
        counts one call per peer in it, so call counts (and the
        per-call averages derived from them) keep their per-peer
        meaning.
        """
        n = len(peers)
        t = _perf()
        if peers:
            self._phase_apply_inbox(peers)
            t2 = _perf(); add("peer.apply_inbox", t2 - t, n); t = t2
            self._phase_purge(peers)
            t2 = _perf(); add("rule.purge", t2 - t, n); t = t2
            for actor, _i, _c, _f in peers:
                if actor.config.virtual_nodes:
                    actor._rule1_virtual_nodes()
            t2 = _perf(); add("rule.1_virtual_nodes", t2 - t, n); t = t2
            for actor, _i, _c, _f in peers:
                if actor.config.overlap:
                    actor._rule2_overlap()
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
        """``ctx.send(target.owner, EdgeAdd(target, endpoint, kind))``.

        The cache key is the interned row ids of both refs — a short
        int tuple that hashes far cheaper than the refs themselves — so
        repeated stable-flow emissions skip both payload construction
        and the scheduler cache's tuple hashing.  A miss interns the
        new envelope here only; never-interned refs (``iid == -1`` is
        not unique) go through ``ctx.send``.
        """
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
        # the scalar _apply_inbox, level by level.  Each part of the inbox
        # is parsed into its payloads per addressed level (a SubFlow keeps
        # the result), a level's pieces are gathered in inbox order, and
        # one landing per level — behind the memo — does what the scalar
        # loop does envelope by envelope.  Edge-adds write only the
        # neighbor sets; linear adoption reads only node.ref and the rl/rr
        # slots, which nothing in this phase writes — so edge-adds, linear
        # candidates and NeighborIntros commute with each other and with
        # wrap candidates, which read and write the wrap slots and keep
        # their relative order (a level's pieces are in inbox order)
        hits = misses = 0
        parse = self._parse
        for it in peers:
            actor, parts = it[0], it[1]
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
            if others:
                # NeighborIntro / no-plane AppPayload / unknown: rare
                # paths — the scalar handler (same effects, same errors)
                actor._apply_inbox(others)
            if not by_level:
                continue
            nodes = state.nodes
            if not nodes.keys() >= by_level.keys():
                by_level = self._resolve_levels(parts, nodes)
            wrap = actor.config.wrap_pointers
            counters = actor.counters
            adopts = wrap_adopts = 0
            for level, pieces in by_level.items():
                node = nodes[level]
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_PHASES)
                entry = memo[_AI]
                rl = node._rl
                rr = node._rr
                wrl = node._wrap_rl
                wrr = node._wrap_rr
                # interned refs: identity first, NodeRef.__eq__ is a call
                if entry is not None and (
                    (k := entry[0])[0] == pieces
                    and (k[1] is rl or k[1] == rl)
                    and (k[2] is rr or k[2] == rr)
                    and (k[3] is wrl or k[3] == wrl)
                    and (k[4] is wrr or k[4] == wrr)
                    and k[5] == wrap
                ):
                    hits += 1
                else:
                    misses += 1
                    entry = memo[_AI] = self._land_level(
                        node, (pieces, rl, rr, wrl, wrr, wrap)
                    )
                _key, nu_add, nr_add, nc_add, slots, fired = entry
                if nu_add:
                    node._nu.update(nu_add)
                if nr_add:
                    node._nr.update(nr_add)
                if nc_add:
                    node._nc.update(nc_add)
                if slots is not None:
                    node.wrap_rl, node.wrap_rr = slots
                if fired is not None:
                    adopts += fired[0]
                    wrap_adopts += fired[1]
            if adopts:
                counters.bump("rule3_adopt", adopts)
            if wrap_adopts:
                counters.bump("wrap_adopt", wrap_adopts)
        self._memo_hits[_AI] += hits
        self._memo_misses[_AI] += misses

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
        """The split per *landing* level when an addressed level is gone.

        Mail for a dropped level lands on ``u_m`` ([D8]), and wrap
        candidates do not commute: ``u_m`` must see its own and the
        inherited ones in inbox order, so the peer's split is redone
        from the envelopes, one piece per landing level.
        """
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

    def _land_level(self, node, key: tuple) -> tuple:
        """What the delayed assignments in ``key``'s pieces do to one
        simulated node, as the memo entry ``(key, added to nu, to nr, to
        nc, wrap slots or None, (rule3_adopt, wrap_adopt) or None)``.

        Pure in ``key`` and ``node.ref``: no set is read — every landing
        only adds — so the sets are not key components, and the entry is
        a *delta* the caller applies on a hit and on a miss alike.
        ``key`` lists every input: the pieces, ``rl``/``rr`` (the
        receiver-side guards of both candidate kinds), the wrap slots
        and ``config.wrap_pointers`` (wrap adoption).
        """
        pieces, rl, rr, wrl, wrr, wrap = key
        ref = node.ref
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
        return (
            key,
            tuple(nu_add),
            tuple(nr_add),
            tuple(nc_add),
            None if wrl is key[3] and wrr is key[4] else (wrl, wrr),
            (len(adopted), wrap_adopts) if adopted or wrap_adopts else None,
        )

    @staticmethod
    def _adoptable(ref: NodeRef, bound: Optional[NodeRef], cands: List[NodeRef], side: str) -> List[NodeRef]:
        """The candidates rule 3's receiver-side guard lets into ``nu``.

        ``_deliver_candidate`` + ``_adopt_linear_candidate`` over one
        node's candidates of one side: real, not the node itself, on the
        right side, and a strict improvement over the cached pointer
        ``bound`` (``rl`` / ``rr``).  A duplicate passes twice, as it
        fires ``rule3_adopt`` twice.
        """
        nk = ref._key
        if side == SIDE_LEFT:
            lo = None if bound is None else bound._key
            return [
                c for c in cands
                if c.level == 0 and c._key < nk
                and (lo is None or c._key > lo) and c != ref
            ]
        hi = None if bound is None else bound._key
        return [
            c for c in cands
            if c.level == 0 and c._key > nk
            and (hi is None or c._key < hi) and c != ref
        ]

    # ------------------------------------------------------------------
    # phase: purge [D7]/[D11]
    # ------------------------------------------------------------------
    def _phase_purge(self, peers: List[list]) -> None:
        # a verdict is a pure function of the ref given the oracle's
        # frozen snapshot, so the verdicts of ``self._oracle`` are kept
        # for as long as its epoch stands — across peers and rounds.
        # ``ok`` holds every ref already judged alive; a set whose
        # members are all in it (and which does not contain a self-ref)
        # provably purges nothing, and both checks run at C speed.
        oracle = self._oracle
        if oracle is not None:
            epoch = self._oracle_epoch()
            if epoch != self._verdict_epoch:
                self._verdict_epoch = epoch
                self._verdicts = {}
                self._ok = set()
        for it in peers:
            actor = it[0]
            alive = actor._ref_alive
            if alive == oracle:
                verdicts, ok = self._verdicts, self._ok
            else:  # another oracle's answers are shared with nobody
                verdicts, ok = {}, set()
            counters = actor.counters
            state = actor.state
            for level in sorted(state.nodes):
                node = state.nodes[level]
                nref = node.ref
                for refs in (node._nu, node._nr, node._nc):
                    if nref not in refs and ok.issuperset(refs):
                        continue
                    bad: Optional[List[NodeRef]] = None
                    for r in refs:
                        if r == nref:
                            if bad is None:
                                bad = []
                            bad.append(r)
                            continue
                        v = verdicts.get(r)
                        if v is None:
                            v = verdicts[r] = alive(r)
                            if v == REF_OK:
                                ok.add(r)
                        if v != REF_OK:
                            if bad is None:
                                bad = []
                            bad.append(r)
                    if bad is None:
                        continue
                    for ref in bad:
                        refs.discard(ref)
                        if ref == nref:
                            continue
                        if verdicts[ref] == REF_PHANTOM:
                            real = NodeRef.real(ref.owner)
                            if real != nref:
                                refs.add(real)
                            counters.bump("purge_phantom")
                        else:
                            counters.bump("purge_dead")
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
                        counters.bump("purge_slot")
                        continue
                    v = verdicts.get(ref)
                    if v is None:
                        v = verdicts[ref] = alive(ref)
                        if v == REF_OK:
                            ok.add(ref)
                    if v != REF_OK:
                        setattr(node, attr, None)
                        counters.bump("purge_slot")
                nk = nref._key
                rl = node._rl
                if rl is not None and rl._key >= nk:
                    node.rl = None
                rr = node._rr
                if rr is not None and rr._key <= nk:
                    node.rr = None

    # ------------------------------------------------------------------
    # the per-level memo (module docstring, "The per-level memo")
    # ------------------------------------------------------------------
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
        hits = misses = 0
        for it in peers:
            actor, ctx = it[0], it[2]
            cfg = actor.config
            if not cfg.closest_real:
                continue
            state = actor.state
            outbox = ctx._outbox
            eco = cfg.economical_broadcast
            reals = self._sorted_refs(
                [r for r in state.knowledge() if r.level == 0]
            )
            real_keys = [r._key for r in reals]
            nreals = len(reals)
            nodes = state.nodes
            for level in sorted(nodes):
                node = nodes[level]
                ui = node.ref
                idx = bisect_left(real_keys, ui._key)
                rl = reals[idx - 1] if idx > 0 else None
                if idx < nreals and reals[idx] == ui:
                    rr = reals[idx + 1] if idx + 1 < nreals else None
                else:
                    rr = reals[idx] if idx < nreals else None
                # the rule's first assignment; (rl, rr) is in the key, so
                # it is the same write on a hit and on a miss
                if node._rl is not rl:
                    node.rl = rl
                if node._rr is not rr:
                    node.rr = rr
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_PHASES)
                key = (
                    node._nu, rl, rr, node._wrap_rl, node._wrap_rr, cfg,
                    (node._bcast_rl, node._bcast_rl_targets,
                     node._bcast_rr, node._bcast_rr_targets) if eco else None,
                )
                entry = memo[_R3]
                if entry is None or entry[0] != key:
                    misses += 1
                    memo[_R3] = self._rule3_level(actor, node, ctx, key)
                    continue
                hits += 1
                ekey, envelopes, nu_after, slots = entry
                if envelopes:
                    outbox.extend(envelopes)
                if nu_after is not ekey[0]:
                    _restore(node._nu, nu_after)
                if slots is not None:
                    node.wrap_rl, node.wrap_rr, bcast = slots
                    if bcast is not None:
                        (node.bcast_rl, node.bcast_rl_targets,
                         node.bcast_rr, node.bcast_rr_targets) = bcast
        self._memo_hits[_R3] += hits
        self._memo_misses[_R3] += misses

    def _rule3_level(self, actor, node, ctx, key: tuple) -> tuple:
        """Rule 3 on one simulated node whose ``rl``/``rr`` are already
        assigned; returns the memo entry.  ``key`` lists every input."""
        nu_live, rl, rr, wrap_rl, wrap_rr, cfg, bcast = key
        outbox = ctx._outbox
        start = len(outbox)
        nu_before = frozenset(nu_live)
        wrap = cfg.wrap_pointers
        eco = cfg.economical_broadcast
        ui = node.ref
        uik = ui._key
        if rl is not None:
            node._nu.add(rl)
        if rr is not None:
            node._nu.add(rr)
        if wrap:
            actor._maintain_wrap_slots(node)
        nu_sorted = self._sorted_refs(node._nu)
        if rl is not None:
            rlk = rl._key
            recipients = []
            for y in nu_sorted:
                if y == rl:
                    continue
                yk = y._key
                if yk > uik or rlk < yk < uik:
                    recipients.append(y)
            for y in recipients:
                if eco and rl == node.bcast_rl and (
                    node.bcast_rl_targets is not None
                    and y in node.bcast_rl_targets
                ):
                    continue
                self._send_cand(ctx, outbox, y, rl, SIDE_LEFT)
            if eco:
                node.bcast_rl = rl
                node.bcast_rl_targets = frozenset(recipients)
        elif eco:
            node.bcast_rl = None
            node.bcast_rl_targets = None
        if rr is not None:
            rrk = rr._key
            recipients = []
            for y in nu_sorted:
                if y == rr:
                    continue
                yk = y._key
                if yk < uik or uik < yk < rrk:
                    recipients.append(y)
            for y in recipients:
                if eco and rr == node.bcast_rr and (
                    node.bcast_rr_targets is not None
                    and y in node.bcast_rr_targets
                ):
                    continue
                self._send_cand(ctx, outbox, y, rr, SIDE_RIGHT)
            if eco:
                node.bcast_rr = rr
                node.bcast_rr_targets = frozenset(recipients)
        elif eco:
            node.bcast_rr = None
            node.bcast_rr_targets = None
        if wrap:
            self._relay_wrap(node, ctx, outbox)
        bcast_after = (
            node._bcast_rl, node._bcast_rl_targets,
            node._bcast_rr, node._bcast_rr_targets,
        ) if eco else None
        slots = (node._wrap_rl, node._wrap_rr, bcast_after)
        return (
            (nu_before, *key[1:]),
            tuple(outbox[start:]),
            _frozen(node._nu, nu_before),
            None if slots == (wrap_rl, wrap_rr, bcast) else slots,
        )

    def _relay_wrap(self, node, ctx, outbox) -> None:
        """Scalar ``_relay_wrap`` on the fast send path."""
        ui = node.ref
        if node.rr is None and node.wrap_rr is not None:
            lefts = [w for w in node.nu if w < ui]
            targets = set()
            if lefts:
                targets.add(max(lefts))
            if node.rl is not None:
                targets.add(node.rl)
            for t in sorted(targets):
                self._send_cand(ctx, outbox, t, node.wrap_rr, SIDE_RIGHT, wrap=True)
        if node.rl is None and node.wrap_rl is not None:
            rights = [w for w in node.nu if w > ui]
            targets = set()
            if rights:
                targets.add(min(rights))
            if node.rr is not None:
                targets.add(node.rr)
            for t in sorted(targets):
                self._send_cand(ctx, outbox, t, node.wrap_rl, SIDE_LEFT, wrap=True)

    # ------------------------------------------------------------------
    # phase: rule 4 — linearization + mirroring
    # ------------------------------------------------------------------
    def _phase_rule4(self, peers: List[list]) -> None:
        hits = misses = 0
        for it in peers:
            actor, ctx = it[0], it[2]
            cfg = actor.config
            if not cfg.linearize:
                continue
            outbox = ctx._outbox
            source = self._nu_source(cfg, _R4)
            nodes = actor.state.nodes
            forwards = 0
            for level in sorted(nodes):
                node = nodes[level]
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_PHASES)
                key = (
                    node._nu if source is None else memo[source][2],
                    node._rl, node._rr,
                )
                entry = memo[_R4]
                if entry is None or entry[0] != key:
                    misses += 1
                    entry = memo[_R4] = self._rule4_level(node, ctx, key)
                else:
                    hits += 1
                    if entry[1]:
                        outbox.extend(entry[1])
                    if entry[2] is not entry[0][0]:
                        _restore(node._nu, entry[2])
                forwards += entry[3]
            if forwards:
                actor.counters.bump("rule4_forward", forwards)
        self._memo_hits[_R4] += hits
        self._memo_misses[_R4] += misses

    def _rule4_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 4 on one simulated node; returns the memo entry (its
        counter delta is the number of forwards)."""
        send_edge = self._send_edge
        outbox = ctx._outbox
        start = len(outbox)
        nu = node._nu
        nu_before = _as_frozen(key[0])
        ui = node.ref
        uik = ui._key
        forwards = 0
        # one sort, split at ui — the scalar code sorts the left
        # and right halves separately
        lefts: List[NodeRef] = []
        rights: List[NodeRef] = []
        for w in self._sorted_refs(nu):
            wk = w._key
            if wk < uik:
                lefts.append(w)
            elif wk > uik:
                rights.append(w)
        # forward pairs, closest-first (scalar iterates lefts in
        # descending order)
        for j in range(len(lefts) - 1, 0, -1):
            a = lefts[j]
            b = lefts[j - 1]
            send_edge(ctx, outbox, a, b, KIND_UNMARKED)
            nu.discard(b)
            forwards += 1
        for j in range(len(rights) - 1):
            a = rights[j]
            b = rights[j + 1]
            send_edge(ctx, outbox, a, b, KIND_UNMARKED)
            nu.discard(b)
            forwards += 1
        # mirroring over whatever remains in nu (the two closest
        # neighbors, plus pathological equal-to-ui refs — match
        # the scalar re-scan exactly rather than assuming)
        for v in self._sorted_refs(nu):
            send_edge(ctx, outbox, v, ui, KIND_UNMARKED)
        if key[1] is not None:
            nu.add(key[1])
        if key[2] is not None:
            nu.add(key[2])
        return (
            (nu_before, key[1], key[2]),
            tuple(outbox[start:]),
            _frozen(nu, nu_before),
            forwards,
        )

    # ------------------------------------------------------------------
    # phase: rule 5 — ring edges
    # ------------------------------------------------------------------
    def _phase_rule5(self, peers: List[list]) -> None:
        hits = misses = 0
        for it in peers:
            actor, ctx = it[0], it[2]
            cfg = actor.config
            if not cfg.ring:
                continue
            state = actor.state
            outbox = ctx._outbox
            # peer-wide inputs, read after rule 4 ran on every level
            knowledge = state.knowledge()
            kmin = min(knowledge, key=_KEY)
            kmax = max(knowledge, key=_KEY)
            reals = state.known_reals(knowledge)
            wide = (kmin, kmax, reals[0], reals[-1], cfg.wrap_pointers)
            source = self._nu_source(cfg, _R5)
            nodes = state.nodes
            create = convert = forward = 0
            for level in sorted(nodes):
                node = nodes[level]
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_PHASES)
                key = (
                    node._nu if source is None else memo[source][2],
                    node._nr,
                    *wide,
                )
                entry = memo[_R5]
                if entry is None or entry[0] != key:
                    misses += 1
                    entry = memo[_R5] = self._rule5_level(node, ctx, key)
                else:
                    hits += 1
                    if entry[1]:
                        outbox.extend(entry[1])
                    if entry[2] is not entry[0][1]:
                        _restore(node._nr, entry[2])
                fires = entry[3]
                if fires is not _NO_RING_FIRES:
                    create += fires[0]
                    convert += fires[1]
                    forward += fires[2]
            counters = actor.counters
            counters.bump("rule5_create", create)
            counters.bump("rule5_convert", convert)
            counters.bump("rule5_forward", forward)
        self._memo_hits[_R5] += hits
        self._memo_misses[_R5] += misses

    def _rule5_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 5 on one simulated node; returns the memo entry (its
        counter deltas are ``(create, convert, forward)``)."""
        nu, nr_live, kmin, kmax, real_min, real_max, wrap = key
        send_edge = self._send_edge
        outbox = ctx._outbox
        start = len(outbox)
        nr = node._nr
        nr_before = frozenset(nr)
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
            if wk > uik:
                x = kmax
                xk = x._key
                for y in nr:
                    yk = y._key
                    if yk > xk:
                        x = y
                        xk = yk
                if xk > wk:
                    send_edge(ctx, outbox, x, w, KIND_UNMARKED)
                    nr.discard(w)
                    convert += 1
                elif kmin != ui:
                    send_edge(ctx, outbox, kmin, w, KIND_RING)
                    nr.discard(w)
                    forward += 1
                elif wrap:
                    self._send_cand(ctx, outbox, w, real_min, SIDE_RIGHT, wrap=True)
            else:
                x = kmin
                xk = x._key
                for y in nr:
                    yk = y._key
                    if yk < xk:
                        x = y
                        xk = yk
                if xk < wk:
                    send_edge(ctx, outbox, x, w, KIND_UNMARKED)
                    nr.discard(w)
                    convert += 1
                elif kmax != ui:
                    send_edge(ctx, outbox, kmax, w, KIND_RING)
                    nr.discard(w)
                    forward += 1
                elif wrap:
                    self._send_cand(ctx, outbox, w, real_max, SIDE_LEFT, wrap=True)
        fires = (create, convert, forward)
        return (
            (_as_frozen(nu), nr_before, *key[2:]),
            tuple(outbox[start:]),
            _frozen(nr, nr_before),
            _NO_RING_FIRES if fires == _NO_RING_FIRES else fires,
        )

    # ------------------------------------------------------------------
    # phase: rule 6 — connection edges
    # ------------------------------------------------------------------
    def _phase_rule6(self, peers: List[list]) -> None:
        hits = misses = 0
        for it in peers:
            actor, ctx = it[0], it[2]
            cfg = actor.config
            if not cfg.connection:
                continue
            outbox = ctx._outbox
            nodes = actor.state.nodes
            sibs = tuple(self._sorted_refs([n.ref for n in nodes.values()]))
            for a, b in zip(sibs, sibs[1:]):
                nodes[a.level]._nc.add(b)
            source = self._nu_source(cfg, _R6)
            forward = backward = 0
            for level in sorted(nodes):
                node = nodes[level]
                nc = node._nc
                if not nc:
                    continue
                memo = node._memo
                if memo is None:
                    memo = node._memo = [None] * len(MEMO_PHASES)
                key = (nc, node._nu if source is None else memo[source][2], sibs)
                entry = memo[_R6]
                if entry is None or entry[0] != key:
                    misses += 1
                    entry = memo[_R6] = self._rule6_level(node, ctx, key)
                else:
                    hits += 1
                    if entry[1]:
                        outbox.extend(entry[1])
                    if entry[2] is not entry[0][0]:
                        _restore(nc, entry[2])
                forward += entry[3][0]
                backward += entry[3][1]
            if forward:
                actor.counters.bump("rule6_forward", forward)
            if backward:
                actor.counters.bump("rule6_backward", backward)
        self._memo_hits[_R6] += hits
        self._memo_misses[_R6] += misses

    def _rule6_level(self, node, ctx, key: tuple) -> tuple:
        """Rule 6 on one simulated node whose ``nc`` already holds its
        sibling-chain edge; returns the memo entry (its counter deltas
        are ``(forward, backward)``)."""
        nc, nu, sibs = key
        send_edge = self._send_edge
        outbox = ctx._outbox
        start = len(outbox)
        nc_before = frozenset(nc)
        ui = node.ref
        forward = backward = 0
        if len(nc) <= 4:
            # few connection edges (typically just the sibling
            # chain): find each closest known predecessor by a
            # linear key scan instead of sorting nu + sibs
            for v in self._sorted_refs(nc):
                if v == ui:
                    nc.discard(v)
                    continue
                vk = v._key
                w = None
                wk = None
                for c in nu:
                    ck = c._key
                    if ck < vk and (wk is None or ck > wk):
                        w = c
                        wk = ck
                for c in sibs:
                    ck = c._key
                    if ck < vk and (wk is None or ck > wk):
                        w = c
                        wk = ck
                if w is None or w == ui:
                    send_edge(ctx, outbox, v, ui, KIND_UNMARKED)
                    nc.discard(v)
                    backward += 1
                else:
                    send_edge(ctx, outbox, w, v, KIND_CONNECTION)
                    nc.discard(v)
                    forward += 1
        else:
            cands = self._sorted_refs([*nu, *sibs])
            cand_keys = [c._key for c in cands]
            for v in self._sorted_refs(nc):
                if v == ui:
                    nc.discard(v)
                    continue
                idx = bisect_left(cand_keys, v._key)
                w = cands[idx - 1] if idx > 0 else None
                if w is None or w == ui:
                    send_edge(ctx, outbox, v, ui, KIND_UNMARKED)
                    nc.discard(v)
                    backward += 1
                else:
                    send_edge(ctx, outbox, w, v, KIND_CONNECTION)
                    nc.discard(v)
                    forward += 1
        return (
            (nc_before, _as_frozen(nu), sibs),
            tuple(outbox[start:]),
            _frozen(nc, nc_before),
            (forward, backward),
        )
