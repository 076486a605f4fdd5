"""The columnar kernel: activity tracking and O(dirty work) rounds.

:class:`ColumnarScheduler` is the fast kernel of ``engine="columnar"``.
Its rounds are observably those of the spec loop
(:class:`~repro.netsim.scheduler.SynchronousScheduler`), round for
round.  Every full round under settled unit delivery runs the **columnar
loop** (:meth:`ColumnarScheduler._run_round_columnar`), sparse or dense;
the **tracked loop** (:meth:`ColumnarScheduler._run_round_tracked`) runs
only the rounds the columns cannot express.  Both work over one dirty
set, one steady-emission cache and one application lane.

Activity tracking
-----------------

The kernel exploits the locality of self-stabilization (paper Theorems
4.1/4.2: post-churn recovery only touches a neighborhood): instead of
stepping every actor every round, it maintains a **dirty set** and only
executes actors that can possibly behave differently from their last
executed step.  An actor is dirty when

* it was just registered, or externally marked via :meth:`mark_dirty`;
* its state changed — detected cheaply via the optional ``state_version``
  probe (a monotonic counter bumped by every mutating operation) and
  confirmed exactly via the optional ``state_token`` probe (a canonical
  state tuple), so transient within-step mutations that cancel out do
  not keep an actor dirty;
* a message other than application mail was :meth:`post`-ed to it; or
* an actor whose *emissions changed* sent to it (receivers of both the
  old and the new outbox are re-activated, so vanished flows wake their
  former receivers too).

A clean actor's round is **replayed** from the steady-emission cache:
its inbox is consumed with no state effect, its cached outbox is re-sent
verbatim, and its optional ``replay_step`` hook re-applies cached side
effects (e.g. rule-counter increments).  This is exact, not heuristic:
by induction a clean actor's inbox, application mail aside, equals the
inbox of its last executed step, so re-running the (deterministic) step
would reproduce the cached emissions and leave the state untouched.
Actors that implement none of the probes are simply always dirty and
keep the paper's every-actor semantics.

One-shot application mail (an :class:`AppPayload` post, a delivered
:meth:`RoundContext.send_once`) dirties nobody — the lane rule, the same
in every loop: the rules never read it, so a clean receiver replays and
runs only its ``handle_app`` hook on that mail (a *lane step*, counted
as replayed).  The **mail set** (``_lane_targets``) names the actors
that may hold some for their next step; a receiver without the hook
executes.

The O(active-work) stability flag :attr:`changed_last_round` (used by
``ReChordNetwork.run_until_stable`` instead of a full O(n) fingerprint
per round) is computed from **exact** comparisons only: per-actor state
tokens plus per-actor emission comparisons against the steady-emission
cache, with one-shot flags for posts and membership changes.  The
scheduler additionally exposes a **configuration hash**
(:meth:`config_hash`) — a 64-bit multiset sum over state-token hashes
and all in-flight envelope hashes.  Its state half rolls, updated only
from dirty actors; its pending half is counted on demand, O(pending),
so no round pays per-envelope bookkeeping for it.  The hash is for
external observation only; it is deliberately *not* part of the
stability decision because a sum of non-cryptographic hashes admits
structured collisions.  ``changed_last_round`` is meaningful only for
fully activated rounds.  Partial activation (the asynchrony bridge) filters
the tracked loop's work list — only awake actors step, and all of them
execute — and the round conservatively marks every actor dirty and
reports ``True``.

Rounds are atomic (nothing changes the scheduler from inside a step),
so both loops take every inbox of a round before any step runs and hand
the round's steps to one stepper
(:meth:`ColumnarScheduler.set_batch_stepper`; :class:`SerialStepper`
when none is installed).

Exactness under non-unit delivery
---------------------------------

Delayed sends wait in the base class's delivery-round-keyed queue
(``_future``) and mature at its delivery point.  Exactness rules:

* **matured steady mail dirties nobody.**  ``DeliveryModel.delay`` is a
  pure function of envelope content, so a clean sender's replayed outbox
  lands in the same inboxes with the same delays every round (the
  tracked loop schedules, matures and hands over whole sub-flows, from
  each sub-flow's cached delay buckets, without asking the model again;
  a ``per_link`` model is asked once per sub-flow): a
  receiver's inbox can only differ from its replay baseline in a round
  where a *change* of some sender's sub-flow arrives.  The **wake wheel**
  (``round -> actors that must execute in it``; ``_dirty`` and
  ``_dirty_carry`` are its next-round and round-after slots) is fed when
  the change is made, for the round it arrives in:

  1. a changed sub-flow (``_post_step``'s per-target patch, made in
     round ``q``) wakes its target for ``q + d`` for every delay ``d``
     at which the old and the new sub-flow differ (``d = 1``: the unit
     rule, dirty next round);
  2. a removed sender wakes its former receivers ``d`` rounds after its
     last send, for each delay ``d`` of its cached outbox;
  3. a delayed one-shot (``send_once``, a delayed ``post``) reaches its
     target in the round that consumes it: application mail through the
     mail set (``_mail_at``, the wheel's twin), anything else as a wake
     for that round and the round after (the carry); a (re-)joining
     actor runs again when the flows that were waiting for it land;
  4. what redefines every delivery at once is conservative: a model
     change wakes everyone for as long as an old- or new-delay front can
     arrive (``delay_bound() + 1`` rounds), a partial round likewise,
     unit delivery included (the sleepers' missing sends arrive as
     gaps), a drop-filter change for the two rounds of the unit rule
     (all delays are filtered at landing, so it takes effect at once).

  Conservative wakes are always allowed, missed wakes never.  The
  in-flight ref query of a liveness flip (:meth:`ref_receivers`) may
  keep reading inboxes only: a receiver whose *current* inbox holds a
  reference to the flipped owner executes now, and a later first
  arrival is itself a sub-flow change, woken by the wheel;
* :attr:`changed_last_round` stays exact and O(changed): the flow flags
  are extended by a **flux horizon**.  An emission change of envelope
  ``E`` (delay ``d``) effective from round ``q`` — started, stopped, or,
  at a model switch, "the old-delay flow stops and the new-delay flow
  starts" for every cached envelope whose delay differs — keeps the flag
  raised for the boundaries of rounds ``q .. q+d-2`` (the front travels
  through remaining ``d-1 .. 1``) and for ``q+d-1`` iff ``E`` is
  deliverable when it lands (live target, not filtered: a delivery
  dropped at maturity never reaches remaining 0).  Fronts are found per
  changed sub-flow and delay class (a sub-flow is one class under a
  ``per_link`` model): a class on one side only, or of another length
  or multiset sum (``SubFlow.fp_sum``) on the two, proves that fronts
  exist and records one landing entry for all of them, which lands iff
  its target is alive — only a drop filter installed at landing time
  makes it compute the envelope difference; equal sums take the exact
  difference.  A one-shot is a start
  at ``q`` and a stop at ``q + 1``, which also flags the boundary of the
  round that consumes it.  The unit model keeps the O(active-work) fast
  path bit for bit, and takes over again once wheel, horizon and queue
  are empty (:meth:`_unit_settled`).

The columnar loop
-----------------

The tracked loop costs O(n + sub-flows) per round: every round it sorts
all actor keys, iterates every actor (replaying the quiescent ones) and
re-delivers every steady sub-flow as a part.  At n = 10k-100k peers that
per-round floor — not rule evaluation — dominates wall-clock time.

The columnar loop removes the floor by holding the steady state of the
network in *flow-indexed columns* instead of per-round deliveries:

* ``_flow_in[target][sender]`` — the delivered sub-flows of every
  sender's steady outbox, stored once and conceptually re-delivered
  every boundary (the tracked loop delivers these parts again each
  round).  Each is a :class:`~repro.netsim.messages.SubFlow`: an
  immutable value shared with the sender's outbox split, carrying its
  referenced owners, so all accounting below is per sub-flow and an
  unchanged one is recognized by identity;
* ``_ghost[target][sender]`` — one-shot remnants: the final emissions
  of a removed sender, consumed at the target's next materialization;
* the plain inbox buffer (``_inboxes``) — posts made since the last
  round, which sort after the flows at the next boundary (matching the
  tracked loop, whose inbox is its delivered parts, then its buffer);
* ``_lane[target]`` — the application lane: one-shot sends
  (``RoundContext.send_once``) delivered at the last boundary, held
  outside the flow columns; their targets and those of ``AppPayload``
  posts in the buffers make the mail set ``_lane_targets``, which is
  *not* dirty;
* ``_settled[key]`` — lazily settled rule-counter replays: a quiescent
  actor owes one replay delta per skipped round, applied in one batch
  (``replay_steps``) when it wakes or when counters are observed.

The in-flight ref query of a liveness flip
(:meth:`ColumnarScheduler.ref_receivers`) scans these columns: flows
and ghosts one sub-flow at a time, the one-shot lists one envelope at a
time.  No index is kept for it: the network asks once per round start
for every flip since the last one (a wave of k joins or crashes between
rounds is one query, not k), while an index would be updated on every
flow patch and post.

A round then touches only its work list — the key-sorted merge of the
dirty set and the lane's targets.  A dirty actor *materializes* its
inbox ``[flows + ghosts in sorted-sender order][lane mail][buffer]``,
steps (rules, then the application handler), and has its outbox diffed
against the steady cache.  A lane-only actor — clean, but holding
application mail — runs only its ``handle_app`` hook against its
boundary state: the rule pipeline would reproduce the cached step, so
the round counts and settles as a replay, and application messages
never dirty the overlay (the lane rule).  Flow patches, revivals and
the round's one-shot sends are applied at the end-of-round delivery
point, exactly where the tracked loop delivers, so every boundary
observable — fingerprints, pending multisets, change flags,
sent/dropped/executed counts, rule counters at observation points — is
bit-for-bit identical to the tracked loop (the differential suite in
``tests/test_columnar.py`` asserts this round-for-round).

The columnar loop is only sound under the unit-delivery flow induction,
so the kernel drops back to the tracked loop (handing its columns over
as delivered parts) under non-unit delivery, partial activation and for
the round after a drop-filter change, and re-enters one round after the
last out-of-band flow event; the rounds before the first entry are
tracked too.  How many actors execute plays no part: a dense round
(a cold start, a crash wave) runs the columns like a sparse one.  Both
loops obey one lane rule, so application mail crosses either switch as
it is: the exit hands the lane over as one-shot parts in the tracked
loop's order and leaves its targets in the mail set, the entry takes the
lane from the one-shot parts and leaves the buffers as posts.  The
full-scan spec loop remains the executable reference.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from time import perf_counter as _perf
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.netsim.messages import (
    HASH_MASK as _MASK,
    AppPayload,
    Envelope,
    SubFlow,
    envelope_fingerprint as _envelope_hash,
    future_fingerprint as _future_hash,
    group_by_target as _group_by_target,
    receivers_referencing,
    ref_owners,
)
from repro.netsim.scheduler import RoundContext, SynchronousScheduler, _inside_step
from repro.netsim.timemodel import DeliveryModel, TimeModel


#: sub-flow map: sender -> that sender's sub-flow to one target
SubFlows = Dict[Hashable, SubFlow]


def _unmatched(stopped: Sequence[tuple], started: Sequence[tuple]) -> List[tuple]:
    """The ``(envelope, delay)`` pairs whose multiplicity differs between
    ``stopped`` and ``started``: the stopped ones in order, then the
    started ones.

    A linear multiset difference: the started pairs are bucketed by
    (memoized envelope fingerprint, delay) and equality decides within a
    bucket — never ``Envelope.__hash__``, which re-hashes payloads
    deeply."""
    unmatched: Dict[tuple, List[Envelope]] = {}
    for env, d in started:
        unmatched.setdefault((_envelope_hash(env), d), []).append(env)
    fronts: List[tuple] = []
    for env, d in stopped:
        bucket = unmatched.get((_envelope_hash(env), d))
        if bucket and env in bucket:
            bucket.remove(env)
        else:
            fronts.append((env, d))
    for (_, d), envs in unmatched.items():
        fronts.extend((env, d) for env in envs)
    return fronts


class SerialStepper:
    """The stepper of a scheduler with no batch stepper installed: each
    item's ``step`` on its concatenated inbox and each lane item's
    ``handle_app`` on its mail, one actor at a time in key order."""

    @staticmethod
    def run_batch(items: Sequence[tuple], lane: Sequence[tuple]) -> None:
        steps = [
            (key, actor.step, list(chain.from_iterable(parts)), ctx)
            for key, actor, parts, ctx in items
        ]
        steps += [(key, actor.handle_app, mail, ctx) for key, actor, mail, ctx in lane]
        steps.sort(key=itemgetter(0))
        for _key, run, inbox, ctx in steps:
            run(inbox, ctx)


class ColumnarScheduler(SynchronousScheduler):
    """The activity-tracked kernel: the tracked loop and the columnar
    loop over one dirty set (module docstring)."""

    def __init__(self, time_model: Optional[TimeModel] = None) -> None:
        super().__init__(time_model=time_model)
        # ---- activity tracking (both loops) ---------------------------
        #: the wake wheel: round -> actors that must execute in it.  Fed
        #: when a change is made, for the round the change *arrives* in
        #: (see "Exactness under non-unit delivery" above); ``_dirty`` / ``_dirty_carry``
        #: are its next-round and round-after slots, so unit delivery
        #: never touches it
        self._wake: Dict[int, Set[Hashable]] = {}
        #: the flux horizon: ``changed_last_round`` stays raised for the
        #: boundaries of all rounds <= this (change fronts in flight)
        self._flux_until = -1
        #: change fronts by landing point: consumption round -> fronts,
        #: each an envelope whose emission started or stopped, or one
        #: changed sub-flow's ``(target, stopped, started)`` entry whose
        #: fronts are the multiset difference of the two envelope lists
        #: (known to be non-empty, computed only if a drop filter is
        #: installed when it lands); the boundary before that round
        #: differs iff one front is deliverable when it lands
        self._landing: Dict[int, List[Any]] = {}
        #: the delivery model the last round's sends were scheduled with,
        #: while it differs from the installed one (None otherwise)
        self._switched_from: Optional[DeliveryModel] = None
        #: actors that must execute (not replay) next round
        self._dirty: Set[Hashable] = set()
        #: actors that must ALSO execute the round after next: one-shot
        #: flow events (a post consumed, a removed actor's last in-flight
        #: emissions) change a receiver's inbox one round *after* the
        #: event round, so a single dirty mark would expire too early
        self._dirty_carry: Set[Hashable] = set()
        #: bound (state_version, state_token, replay_step) probes per actor
        self._probes: Dict[Hashable, tuple] = {}
        #: state_version observed at the last boundary sync per actor
        self._ver: Dict[Hashable, int] = {}
        #: exact state token at the last boundary sync per actor
        self._tok: Dict[Hashable, Hashable] = {}
        #: hash of the cached token (rolling-hash contribution) per actor
        self._tok_hash: Dict[Hashable, int] = {}
        #: steady-emission cache: outbox of the last executed step
        self._out: Dict[Hashable, List[Envelope]] = {}
        #: the cached outbox split into its sub-flows (target -> SubFlow);
        #: an unchanged sub-flow stays the same object from step to step
        self._out_by: Dict[Hashable, Dict[Hashable, SubFlow]] = {}
        #: the tracked loop: each sender's split scheduled under one
        #: model, ``(split, model, next-round parts, ((delay, parts),
        #: ...))`` with parts ``(target, envelopes)`` — rebuilt when the
        #: split or the model is a new object (see :meth:`_deliver_flows`)
        self._plans: Dict[Hashable, tuple] = {}
        #: the tracked loop: the parts delivered to each target at the
        #: last delivery point (or handed over by a columnar exit), in
        #: inbox order; an inbox is its parts followed by its plain
        #: buffer (``_inboxes``: posts since)
        self._parts: Dict[Hashable, List[Sequence[Envelope]]] = {}
        #: rolling hash over all tracked actors' state tokens
        self._state_hash = 0
        #: external flow change (post / membership) pending for next round
        self._flow_flag = False
        #: one-shot application mail (an :class:`AppPayload` post, a
        #: delivered :meth:`RoundContext.send_once`) is pending: the next
        #: boundary differs because that mail is consumed.  Kept apart
        #: from ``_flow_flag`` because it says nothing about the steady
        #: flows (the columnar kernel may enter with it raised)
        self._lane_flag = False
        #: the mail set: clean actors that may hold application mail for
        #: their next step (a lane step finds out what is really there)
        self._lane_targets: Set[Hashable] = set()
        #: the mail set's wheel: round -> targets of delayed application
        #: mail consumed in it (see :meth:`_one_shot`)
        self._mail_at: Dict[int, Set[Hashable]] = {}
        #: optional batched rule pipeline (see repro.core.rules_batched):
        #: both loops hand it every round (:meth:`set_batch_stepper`);
        #: None steps through SerialStepper
        self._batch_stepper = None
        # ---- the columnar loop -------------------------------------------
        #: whether the columnar fast path is currently driving rounds
        self._cols_active = False
        self._clear_columns()

    def _clear_columns(self) -> None:
        """Empty the columns: outside the columnar loop they hold nothing."""
        #: steady delivered sub-flows per live target
        self._flow_in: Dict[Hashable, SubFlows] = {}
        #: one-shot remnants of removed senders per live target
        self._ghost: Dict[Hashable, SubFlows] = {}
        #: frozen sub-flows to removed targets (revived on re-join)
        self._dead_in: Dict[Hashable, SubFlows] = {}
        #: re-added targets whose frozen flows resume at the next
        #: delivery point
        self._revive: Set[Hashable] = set()
        #: per-sender steady drops per round (dead targets + filtered)
        self._drop_by: Dict[Hashable, int] = {}
        #: running totals kept consistent with the structures above
        self._flow_dropped = 0  # = sum(_drop_by.values())
        self._flow_sent = 0  # = sum(len(_out[k]) for live k)
        self._flow_pending = 0  # envelopes held in _flow_in + _ghost
        #: rule-counter settlement: last round each actor's counters cover
        self._settled: Dict[Hashable, int] = {}
        #: the application lane: one-shot sends delivered at the last
        #: boundary, per live target, in sender order; the mail set
        #: (``_lane_targets``) names their targets and those of
        #: AppPayload posts in the buffers
        self._lane: Dict[Hashable, List[Envelope]] = {}
        #: telemetry mirror of ``_flow_sent``, broken out by payload type
        #: name; maintained only while a recorder is attached (every
        #: ``_flow_sent`` adjustment has a matching typed adjustment, so
        #: the per-round envelope census equals the tracked loop's)
        self._tel_flow_types: Optional[Counter] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_actor(self, key: Hashable, actor) -> None:
        """Register a new actor; it executes next round, its probes
        baselined now."""
        super().add_actor(key, actor)
        self._dirty.add(key)
        ver_fn = getattr(actor, "state_version", None)
        tok_fn = getattr(actor, "state_token", None)
        replay_fn = getattr(actor, "replay_step", None)
        self._probes[key] = (ver_fn, tok_fn, replay_fn)
        if ver_fn is not None and tok_fn is not None:
            # baseline the probes now so a no-op first round is
            # recognized as such (exactness of changed_last_round)
            self._ver[key] = ver_fn()
            self._note_token(key, tok_fn())
        self._out[key] = []
        self._out_by[key] = {}
        if not self._unit_settled():
            # flows already addressed to a (re-)joining id — scheduled
            # ones included — all start landing for its second step
            self._wake_at(self._round + 1, key)
        if self._cols_active:
            # counters owe nothing before the first scheduled execution
            self._settled[key] = self._round - 1
            if key in self._dead_in:
                # a re-joining id: the steady flows still addressed to it
                # resume at the next delivery point, like the tracked
                # loop's delivery would
                self._revive.add(key)

    def remove_actor(self, key: Hashable):
        """Remove an actor; its pending messages die, its steady flow
        stops and wakes its former receivers."""
        if self._in_round:
            raise _inside_step("remove_actor")
        if self._cols_active:
            self._remove_columnar(key)
        actor = super().remove_actor(key)
        # its steady flow vanishes: a former receiver must re-run in
        # the round its last emission is missing from the inbox — the
        # round after next under unit delivery (carry; next round is
        # defensive), ``delay`` rounds after its last send in general
        if self._out.pop(key, None):
            self._flow_flag = True  # its contribution leaves the pending set
        out_by = self._out_by.pop(key, {})
        self._plans.pop(key, None)
        self._parts.pop(key, None)
        settled = self._unit_settled()
        model = self._switched_from or self._delivery
        q = self._round
        for target, sub in out_by.items():
            if target == key:
                continue
            for d, envs in ((1, sub),) if settled else sub.delay_buckets(model):
                if d == 1:
                    self._dirty.add(target)
                    self._dirty_carry.add(target)
                else:
                    self._wake_at(q + d, target)
                if not settled:
                    self._sub_front(q, d, target, envs, ())
        self._dirty_carry.discard(key)
        h = self._tok_hash.pop(key, None)
        if h is not None:
            self._state_hash = (self._state_hash - h) & _MASK
        self._probes.pop(key, None)
        self._ver.pop(key, None)
        self._tok.pop(key, None)
        self._dirty.discard(key)
        return actor

    def _remove_columnar(self, key: Hashable) -> None:
        # -- settle its counters to what the tracked loop would have applied
        self._settle_actor(key, self._round - 1)
        self._settled.pop(key, None)
        # -- as a target: its pending messages die with it ---------------
        flows = self._flow_in.pop(key, None)
        if key in self._revive:
            # re-added and removed again before its frozen flows resumed:
            # keep the original _dead_in entry untouched
            self._revive.discard(key)
        elif flows is not None:
            for sender, sub in flows.items():
                self._flow_pending -= len(sub)
                self._drop_by[sender] = self._drop_by.get(sender, 0) + len(sub)
                self._flow_dropped += len(sub)
            self._dead_in[key] = flows
        ghosts = self._ghost.pop(key, None)
        if ghosts:
            for sub in ghosts.values():
                self._flow_pending -= len(sub)
        self._lane.pop(key, None)
        self._lane_targets.discard(key)
        # -- as a sender: its steady flow stops --------------------------
        out = self._out[key]
        self._flow_sent -= len(out)
        if self._tel_flow_types is not None:
            for env in out:
                self._tel_flow_types[type(env.payload).__name__] -= 1
        self._flow_dropped -= self._drop_by.pop(key, 0)
        for subs in self._dead_in.values():
            subs.pop(key, None)
        # the flows delivered at the last boundary are still pending;
        # they become one-shot ghosts
        for target in self._out_by[key]:
            subs = self._flow_in.get(target)
            if subs is None:
                continue
            sub = subs.pop(key, None)
            if sub:
                self._ghost.setdefault(target, {})[key] = sub

    # ------------------------------------------------------------------
    # activity tracking
    # ------------------------------------------------------------------
    def mark_dirty(self, key: Hashable, carry: bool = False) -> None:
        """Force ``key`` to execute (not replay) next round.

        Used by the network layer when an actor's behavior may change for
        reasons the scheduler cannot see (external state mutation, a
        liveness-oracle change such as a membership event or a remote
        level-set change).  ``carry=True`` keeps the actor executing for
        one extra round — required when the trigger is a one-shot flow
        change whose effect reaches the actor's inbox a round later.
        """
        if self._in_round:
            raise _inside_step("mark_dirty")
        self._dirty.add(key)
        if carry:
            self._dirty_carry.add(key)

    def dirty_count(self) -> int:
        """Number of actors scheduled to execute next round."""
        return sum(1 for key in self._dirty if key in self._actors)

    def resync_actor(self, key: Hashable) -> None:
        """Re-baseline an externally mutated actor's probes *now*.

        Makes the current (mutated) state the comparison baseline so
        ``changed_last_round`` keeps measuring boundary-to-boundary
        differences exactly, matching a full-scan fingerprint comparison
        that would also start from the mutated state.
        """
        probes = self._probes.get(key)
        if probes is None or probes[0] is None:
            return
        self._ver[key] = probes[0]()
        self._note_token(key, probes[1]())

    def _note_token(self, key: Hashable, tok: Hashable) -> bool:
        """Make ``tok`` the actor's cached state token; returns whether
        it differs from the cached one (then the rolling hash moves)."""
        if key in self._tok and tok == self._tok[key]:
            return False
        self._tok[key] = tok
        old_h = self._tok_hash.get(key, 0)
        h = hash(tok) & _MASK
        self._tok_hash[key] = h
        self._state_hash = (self._state_hash - old_h + h) & _MASK
        return True

    def config_hash(self) -> tuple:
        """The configuration hash ``(states, pending)``.

        A 64-bit multiset-sum fingerprint of all tracked actor states
        plus all in-flight messages.  The state half rolls, maintained
        from dirty actors only; the pending half is counted on demand —
        O(pending): the (memoized) envelope fingerprints over
        :meth:`all_pending`, one-shots included, plus the scheduled
        future deliveries keyed by their remaining delay.  Two equal
        configurations always hash equal; unequal configurations collide
        with probability ~2^-64.  Only meaningful with activity
        tracking.
        """
        pending = sum(map(_envelope_hash, self.all_pending()))
        for remaining, env in self.future_pending():
            pending += _future_hash(env, remaining)
        return (self._state_hash, pending & _MASK)

    def ref_receivers(self, owners: Set) -> Set[Hashable]:
        """The actors whose next-round inbox holds a message referencing
        any owner in ``owners`` — whom a liveness flip of those owners
        reaches in flight (the network's ``_wake_flow_refs``).

        O(pending); every payload must enumerate its refs.  Scans the
        buffers, the tracked loop's delivered parts and the columns
        (both empty while the other is in use) a sub-flow at a time, and
        the lane an envelope at a time.
        """
        receivers = receivers_referencing(owners, self._inboxes)
        disjoint = owners.isdisjoint
        for target, parts in self._parts.items():
            for part in parts:
                if not disjoint(
                    part.owners() if part.__class__ is SubFlow else ref_owners(part)
                ):
                    receivers.add(target)
                    break
        for column in (self._flow_in, self._ghost):
            for target, subs in column.items():
                for sub in subs.values():
                    if not disjoint(sub.owners()):
                        receivers.add(target)
                        break
        return receivers | receivers_referencing(owners, self._lane)

    def set_batch_stepper(self, stepper) -> None:
        """Install (or clear, with ``None``) the batched rule pipeline of
        both round loops.

        ``stepper`` provides ``run_batch(items, lane)``, ``items`` being
        a round's ``[(key, actor, parts, ctx), ...]`` in key order, where
        ``parts`` lists the envelope lists whose concatenation is the
        actor's inbox: in both loops the persistent :class:`SubFlow`
        objects (what of them a drop filter lets through) and the
        one-shot mail around them.  ``run_batch`` must
        leave every actor's observable effects (state, ``ctx`` outbox,
        counters, replay hooks) exactly as the equivalent sequence of
        ``actor.step(inbox, ctx)`` calls would — the equivalence suites
        compare it bit for bit against the full-scan kernel, which is the
        spec and never consults a stepper.  ``lane`` lists the round's
        lane steps as ``(key, actor, mail, ctx)``, ``mail`` holding the
        application mail alone: those actors get ``handle_app``
        semantics, ordered with the other actors' application handlers
        by key.

        **One stepping path.**  Rounds are atomic, so every inbox of a
        round is taken before any step runs and both loops hand
        every round to ``self._batch_stepper or SerialStepper``; the
        serial stepper runs the same items one actor at a time.
        """
        self._batch_stepper = stepper

    # ------------------------------------------------------------------
    # flow events between rounds
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope) -> bool:
        """Inject a message from outside the round loop (see the base
        class).  Application mail joins the mail set, anything else
        dirties its target; a delayed post is a one-shot of the
        previous round.  Under the columns a post waits in the buffer.
        """
        if self._in_round:
            raise _inside_step("post")
        delay = self._inject(envelope)
        if not delay:
            return False
        target = envelope.target
        app = isinstance(envelope.payload, AppPayload)
        if delay > 1:
            # a one-shot — unless it is application mail (the rules
            # never see that), the target also executes the round
            # after consuming it, when it is missing again
            self._one_shot(self._round - 1, envelope, delay)
            if not app:
                self._wake_at(self._round + delay, target)
        elif app:
            # application mail never reaches the rules: the target
            # consumes it in a lane step
            self._lane_targets.add(target)
            self._lane_flag = True
        else:
            # the target consumes the injected message next round AND
            # has it missing from its inbox the round after — dirty
            # for both
            self._dirty.add(target)
            self._dirty_carry.add(target)
            self._flow_flag = True  # one-shot injection: next boundary differs
        return True

    def set_drop_filter(self, drop: Optional[Callable[[Envelope], bool]]) -> None:
        """Install (or clear) a delivery-time fault filter (see the base
        class).

        Installing or clearing a filter is a flow event: every actor's
        next inbox may differ from its cached baseline, so all actors
        are marked dirty (with the one-round carry, since the changed
        delivery lands one round later) and the boundary is flagged as
        changed.  It redefines every steady delivery, so the columns
        fall back to the tracked loop, re-entered once the flow flag
        clears.
        """
        old = self._drop_filter
        super().set_drop_filter(drop)
        if drop is None and old is None:
            return
        if self._cols_active:
            self._exit_columnar()
        self._dirty.update(self._actors)
        self._dirty_carry.update(self._actors)
        self._flow_flag = True

    def set_delivery_model(self, model) -> None:
        """Install a delivery model (see the base class).

        A model change is a flow event: per cached envelope whose delay
        differs, the old-delay flow stops and the new-delay flow starts,
        so every actor is woken for each round one of the two fronts can
        still arrive in (``bound + 1`` rounds, the larger bound of the
        two models), and the columns fall back to the tracked loop.  A
        no-op install (unit over unit) keeps the fast path and the exact
        change flag intact.  The sub-flows' cached delays
        (:meth:`SubFlow.delay_buckets`) are keyed on the model object,
        so the switch invalidates them without a sweep.
        """
        old = self._delivery
        super().set_delivery_model(model)
        model = self._delivery
        if model is old:
            return
        if self._cols_active:
            self._exit_columnar()
        if self._switched_from is None:
            self._switched_from = old
        self._dirty.update(self._actors)
        self._dirty_carry.update(self._actors)
        first = self._round + 2
        self._wake_everyone(first, first - 2 + max(old.delay_bound(), model.delay_bound()))
        self._flow_flag = True

    def set_telemetry(self, recorder) -> None:
        super().set_telemetry(recorder)
        if self._cols_active:
            # in place, not by leaving columnar mode: a traced run must
            # drive the same kernel as an untraced one
            self._sync_tel_flow_types()

    def _sync_tel_flow_types(self) -> None:
        """(Re)build the typed mirror of ``_flow_sent`` from ``_out``."""
        self._tel_flow_types = None if self._telemetry is None else Counter(
            type(env.payload).__name__
            for key in self._actors
            for env in self._out.get(key, ())
        )

    # -- the wake wheel and the flux horizon (exactness under latency) ---
    def _unit_settled(self) -> bool:
        """Whether unit delivery is in effect *and* nothing of a non-unit
        past is left: no scheduled envelope, no wake, no change front.
        Only then do the unit-mode shortcuts hold (O(changed) flow
        flags, the columnar kernel's fast rounds)."""
        return (
            not self._future
            and not self._wake
            and not self._landing
            and self._switched_from is None
            and self._flux_until < self._round
            and self._delivery.is_unit
        )

    def _wake_at(self, round_no: int, key: Hashable) -> None:
        """``key`` must execute (not replay) in ``round_no``."""
        self._wake.setdefault(round_no, set()).add(key)

    def _wake_everyone(self, first: int, last: int) -> None:
        """Every current actor executes in rounds ``first..last``."""
        for round_no in range(first, last + 1):
            self._wake.setdefault(round_no, set()).update(self._actors)

    def _front(self, q: int, env: Envelope, d: int) -> None:
        """The emission of ``env`` (delay ``d``) started or stopped with
        round ``q``: the pending structure differs across the boundaries
        of rounds ``q .. q+d-2`` (the front travels through remaining
        ``d-1 .. 1``) and of ``q+d-1`` iff ``env`` is deliverable when
        the front lands — decided then, see :meth:`_landed`."""
        if q + d - 2 > self._flux_until:
            self._flux_until = q + d - 2
        self._landing.setdefault(q + d, []).append(env)

    def _sub_front(
        self, q: int, d: int, target: Hashable, stopped: Sequence[Envelope],
        started: Sequence[Envelope],
    ) -> None:
        """One sub-flow's emission to ``target`` (delay ``d``) went from
        ``stopped`` to ``started`` with round ``q``, and the two differ
        as multisets: :meth:`_front` for every envelope of the
        difference, as one entry.  They share the target and the delay,
        so the entry lands like each of them — its difference is taken
        only if a drop filter is installed by then."""
        if q + d - 2 > self._flux_until:
            self._flux_until = q + d - 2
        self._landing.setdefault(q + d, []).append((target, stopped, started))

    def _one_shot(self, q: int, env: Envelope, d: int) -> None:
        """``env`` (delay ``d``) is emitted in round ``q`` only: its
        target consumes it in round ``q + d`` — in a lane step if it is
        application mail, executing otherwise — and the emission starts
        with round ``q`` and stops with ``q + 1``."""
        if isinstance(env.payload, AppPayload):
            self._mail_at.setdefault(q + d, set()).add(env.target)
        else:
            self._wake_at(q + d, env.target)
        self._front(q, env, d)
        self._front(q + 1, env, d)

    def _landed(self, round_no: int) -> bool:
        """Whether a change front landed in an inbox at the end of
        ``round_no`` (a front to a dead or filtered target never reaches
        remaining 0: that boundary does not differ).  A sub-flow entry
        of :meth:`_sub_front` lands iff its target is alive — its
        difference is not empty — unless a drop filter is installed:
        then its fronts are computed and checked one by one."""
        fronts = self._landing.pop(round_no + 1, None)
        if not fronts:
            return False
        inboxes = self._inboxes
        flt = self._drop_filter
        for entry in fronts:
            if entry.__class__ is tuple:
                target, stopped, started = entry
                if target in inboxes and (
                    flt is None
                    or any(
                        not flt(env)
                        for env, _d in _unmatched(
                            [(env, 0) for env in stopped], [(env, 0) for env in started]
                        )
                    )
                ):
                    return True
            elif entry.target in inboxes and not (flt is not None and flt(entry)):
                return True
        return False

    # ------------------------------------------------------------------
    # round dispatch
    # ------------------------------------------------------------------
    def _run_round(self, active: Optional[frozenset]) -> None:
        """One round through the columnar loop, or through the tracked
        loop under partial activation, non-unit delivery or out-of-band
        flow events not yet absorbed."""
        if active is None and self._unit_settled():
            if not self._cols_active and not self._flow_flag:
                self._enter_columnar()
            if self._cols_active:
                self._run_round_columnar()
                return
            # out-of-band flow events since the last boundary: let the
            # tracked loop absorb them, enter once the flag clears
        elif self._cols_active:
            self._exit_columnar()
        self._run_round_tracked(active)

    # ------------------------------------------------------------------
    # the tracked loop
    # ------------------------------------------------------------------
    def _probe_refresh(self, key: Hashable, probes: tuple) -> bool:
        """Refresh an executed actor's probe baselines after its step.

        Returns whether the exact state token changed: the cheap version
        counter says *possibly*, the token confirms, and only then do
        the version/token caches and the rolling state hash move.
        """
        version = probes[0]()
        if version == self._ver.get(key):
            return False
        self._ver[key] = version
        return self._note_token(key, probes[1]())

    def _post_step(
        self,
        key: Hashable,
        out: List[Envelope],
        changed_keys: Set[Hashable],
        newly_dirty: Set[Hashable],
    ) -> Tuple[bool, Optional[tuple]]:
        """Boundary bookkeeping after one executed step.

        Refreshes the actor's probe baselines (a changed state keeps the
        actor dirty) and diffs its outbox against the steady-emission
        cache.  Returns ``(state_changed, patch)``; ``patch`` is ``None``
        when the outbox repeats the cached one — a replayed actor
        repeats its contribution verbatim, so only a patch can make a
        later boundary's pending set differ — and otherwise ``(prev_out,
        out, changed_targets, prev_by, new_by)``: only the targets whose
        per-sender sub-flow actually changed (messages that stopped,
        started, or were reordered) must re-run when the change arrives,
        not every receiver of an otherwise-stable emission.  The caller
        wakes them (next round under unit delivery) and the columnar
        kernel's flow surgery consumes the per-target diff.  ``prev_by``
        and ``new_by`` map targets to :class:`SubFlow` objects; the split
        of the cached outbox is kept, so only ``out`` is re-grouped.
        """
        probes = self._probes.get(key)
        if probes is None or probes[0] is None:
            state_changed = True  # untracked actor: assume changed, never replay
        else:
            state_changed = self._probe_refresh(key, probes)
        if state_changed:
            changed_keys.add(key)
            newly_dirty.add(key)
        prev_out = self._out.get(key)
        if prev_out == out:
            return state_changed, None
        prev_by = self._out_by[key]
        new_by = _group_by_target(out)
        # an unchanged sub-flow keeps its object (and what it carries)
        changed: List[Hashable] = []
        for target, envs in new_by.items():
            old = prev_by.get(target)
            if old == envs:
                new_by[target] = old
                continue
            new_by[target] = SubFlow(envs)
            changed.append(target)
        changed.extend(target for target in prev_by if target not in new_by)
        self._out[key] = out
        self._out_by[key] = new_by
        return state_changed, (prev_out, out, changed, prev_by, new_by)

    def _step_work(
        self, keys: List[Hashable], dirty: Set[Hashable], mail: Set[Hashable], round_no: int
    ) -> List[Tuple[Hashable, Optional[RoundContext], bool]]:
        """Run the round's steps; return ``(key, ctx, executed)`` per
        actor of ``keys``, in key order.

        Actors in ``dirty`` execute, the others replay (inbox consumed —
        application mail aside it provably repeats the last executed one,
        a known no-op on state — and cached side effects re-applied).  A
        replayed actor of ``mail`` holding application mail also runs
        ``handle_app`` on that mail alone, its lane step; one without the
        hook executes instead.  ``ctx`` is ``None`` for a plain replay.
        Every inbox is taken first, then the round goes to the stepper
        in one ``run_batch(items, lane)``: an inbox is handed over as
        its parts — the delivered sub-flows, buckets and one-shots
        (:meth:`_deliver_flows`), then the plain buffer — and only the
        one-shot parts are searched for application mail.
        """
        actors, inboxes = self._actors, self._inboxes
        parts_of = self._parts
        probes = self._probes
        items: List[tuple] = []
        lane: List[tuple] = []
        plan: List[tuple] = []
        for key in keys:
            actor = actors[key]
            box = inboxes[key]
            parts = parts_of.pop(key, None) if parts_of else None
            if parts is not None and box:
                parts.append(box)
            app = None
            run = key in dirty
            if not run and key in mail:
                app = [
                    env
                    for part in parts or (box,)
                    if part.__class__ is not SubFlow
                    for env in part
                    if isinstance(env.payload, AppPayload)
                ]
                run = bool(app) and not hasattr(actor, "handle_app")
            if run:
                ctx = RoundContext(round_no, key, self)
                items.append((key, actor, parts or [box], ctx))
                inboxes[key] = []
            else:
                ctx = None
                if box:
                    inboxes[key] = []
                replay_fn = probes[key][2]
                if replay_fn is not None:
                    replay_fn()
                if app:
                    ctx = RoundContext(round_no, key, self)
                    lane.append((key, actor, app, ctx))
            plan.append((key, ctx, run))
        if items or lane:
            (self._batch_stepper or SerialStepper).run_batch(items, lane)
            for key, _actor, _mail, ctx in lane:
                self._check_lane_step(key, ctx)
        return plan

    @staticmethod
    def _check_lane_step(key: Hashable, ctx: RoundContext) -> None:
        if ctx._outbox:
            raise RuntimeError(
                f"actor {key!r} used ctx.send() while handling application "
                "mail on a lane-only round; handlers emit through "
                "ctx.send_once() — a steady send here would never be replayed"
            )

    def _run_round_tracked(self, active: Optional[frozenset] = None) -> None:
        """One round of the tracked loop.

        ``active`` (partial activation) filters the work list: only awake
        actors step, and every one of them executes; sleepers keep state
        *and inbox* and contribute nothing.  That breaks the
        inbox-repetition induction the replay cache relies on, so such a
        round ends conservatively: the round reported as changed, and
        every actor executing while a sleeper's missing sends can still
        arrive (as gaps) and its resumed sends land once more — the next
        two rounds, and under non-unit delivery everyone woken, with the
        change flag raised, until the last one landed (``delay_bound()``
        rounds).  Probe baselines and emission caches of executed actors
        stay exact, so later full rounds detect stability.
        """
        round_no = self._round
        _t0 = _perf() if self._telemetry is not None else 0.0
        keys = sorted(self._actors)
        state_changed_any = False
        # posts / membership / pending one-shot mail since the last round
        flow_changed = self._flow_flag or self._lane_flag
        self._flow_flag = False
        self._lane_flag = False
        changed_keys: Set[Hashable] = set()
        newly_dirty: Set[Hashable] = set()
        #: (sender, its one-shot sends) in delivery order: a sender
        #: contributes its sub-flows, delivered from their cached delay
        #: buckets (see :meth:`_deliver_flows`)
        senders: List[tuple] = []
        #: sender -> outbox patch of this round (see :meth:`_post_step`)
        patches: Dict[Hashable, tuple] = {}
        #: the round's one-shot sends, per sender in key order
        onces: List[List[Envelope]] = []
        executed = 0
        replayed = 0
        # the round's working sets; the next round's fill up from empty
        dirty = self._dirty
        carry_due = self._dirty_carry
        self._dirty_carry = set()
        mail = self._lane_targets
        self._lane_targets = set()
        work = keys
        if active is not None:
            work = [key for key in keys if key in active]
            dirty = active
        for key, ctx, ran in self._step_work(work, dirty, mail, round_no):
            if ran:
                executed += 1
                state_changed, patch = self._post_step(
                    key, ctx._outbox, changed_keys, newly_dirty
                )
                if state_changed:
                    state_changed_any = True
                if patch is not None:
                    patches[key] = patch
            else:
                # quiescent: the steady emissions repeat without rules
                replayed += 1
            # one-shot sends go out right after the steady outbox; they
            # never enter ``_out``, so sender and target both stay valid
            # replay templates
            once = ctx._once if ctx is not None else None
            senders.append((key, once))
            if once:
                onces.append(once)

        # the delivery point.  Settled unit delivery: every change arrives
        # next round and the boundary differs iff anything was patched or
        # sent once.  Otherwise the wake wheel and the flux horizon are
        # fed with each change's own arrival round (module docstring); a
        # partial round's conservative tail covers every change instead
        settled = self._unit_settled()
        if active is None:
            if settled:
                if patches:
                    flow_changed = True
                    for patch in patches.values():
                        newly_dirty.update(patch[2])
            elif self._telemetry is None:
                self._feed_flow_changes(round_no, keys, patches, newly_dirty)
            else:
                # its own phase, cut out of the kernel.step span
                _t1 = _perf()
                self._feed_flow_changes(round_no, keys, patches, newly_dirty)
                spent = _perf() - _t1
                self._telemetry.add_time("kernel.flow_changes", spent)
                _t0 += spent
        delay = self._delivery.delay
        for once in onces:
            # the lane rule: application mail reaches the mail set, the
            # target of anything else executes the round it consumes it
            for env in once:
                d = 1 if settled else delay(env)
                if d == 1:
                    if isinstance(env.payload, AppPayload):
                        self._lane_targets.add(env.target)
                    else:
                        newly_dirty.add(env.target)
                    flow_changed = True
                    self._lane_flag = True  # consumed next round: that boundary differs too
                else:
                    self._one_shot(round_no, env, d)
        self._deliver_flows(round_no, senders, executed, replayed, _t0)
        if settled and active is None:
            self.changed_last_round = state_changed_any or flow_changed
        else:
            landed = self._landed(round_no)
            self.changed_last_round = (
                state_changed_any or flow_changed or landed or round_no <= self._flux_until
            )
        self.state_changed_keys = changed_keys
        self.executed_last_round = executed
        self.replayed_last_round = replayed
        newly_dirty |= carry_due
        newly_dirty.update(self._wake.pop(round_no + 1, ()))
        self._lane_targets.update(self._mail_at.pop(round_no + 1, ()))
        self._dirty = newly_dirty
        if active is not None:
            # the conservative tail (see the docstring): the sleepers'
            # missing sends are gaps in next round's inboxes, and their
            # resumed sends differ from those the round after — everyone
            # executes in both
            self.changed_last_round = True
            self._flow_flag = True  # sleepers' flow resumes later: boundary differs
            self._dirty = set(self._actors)
            self._dirty_carry = set(self._actors)
            if not settled:
                bound = self._delivery.delay_bound()
                if self._switched_from is not None:
                    bound = max(bound, self._switched_from.delay_bound())
                    self._switched_from = None
                last = max(round_no + 1 + bound, max(self._future, default=0))
                self._wake_everyone(round_no + 2, last)
                self._flux_until = max(self._flux_until, last - 1)
        self._round += 1

    def _deliver_flows(
        self,
        round_no: int,
        senders: List[Tuple[Hashable, Optional[List[Envelope]]]],
        executed: int,
        replayed: int,
        step_t0: float,
    ) -> None:
        """The tracked loop's delivery point, under every delivery model:
        :meth:`SynchronousScheduler._deliver_round` a part at a time.

        ``senders`` lists ``(sender, its one-shot sends)`` in delivery
        order.  A sender's split is scheduled once per split and model
        (``_plans``): its delayed parts join the delivery queue with one
        ``extend`` per delay, its next-round parts land
        (:meth:`_land_parts`) after the matured ones.  Per target and
        maturity round the parts keep the flat outboxes' order, so every
        observer reads the same envelopes in the same order.
        """
        tel = self._telemetry
        if tel is not None:
            tel.add_time("kernel.step", _perf() - step_t0, executed + replayed)
            step_t0 = _perf()
        model = self._delivery
        future = self._future
        out, out_by, plans = self._out, self._out_by, self._plans
        sent = 0
        #: this round's next-round parts, in delivery order
        near: List[tuple] = []
        for key, once in senders:
            plan = plans.get(key)
            split = out_by[key]
            if plan is None or plan[0] is not split or plan[1] is not model:
                now: List[tuple] = []
                later: Dict[int, List[tuple]] = {}
                for target, sub in split.items():
                    for d, envs in sub.delay_buckets(model):
                        if d == 1:
                            now.append((target, envs))
                        else:
                            later.setdefault(d, []).append((target, envs))
                plan = plans[key] = (split, model, now, tuple(later.items()))
            sent += len(out[key])
            if plan[2]:
                near.extend(plan[2])
            for d, parts in plan[3]:
                batch = future.get(round_no + d)
                if batch is None:
                    future[round_no + d] = list(parts)
                else:
                    batch.extend(parts)
            if once:
                sent += len(once)
                for env in once:
                    d = model.delay(env)
                    if d > 1:
                        future.setdefault(round_no + d, []).append((env.target, (env,)))
                    else:
                        near.append((env.target, (env,)))
        dropped = self._drain_matured(round_no) + self._land_parts(near)
        self.dropped_last_round = dropped
        if tel is not None:
            tel.add_time("kernel.deliver", _perf() - step_t0)
            msg = tel.messages
            for key, once in senders:
                for env in chain(out[key], once or ()):
                    msg[type(env.payload).__name__] += 1
            tel.on_round(sent=sent, dropped=dropped, executed=executed, replayed=replayed)

    def _drain_matured(self, round_no: int) -> int:
        """The parts scheduled for consumption in ``round_no + 1`` land
        (:meth:`_land_parts`); returns how many envelopes dropped."""
        return self._land_parts(self._future.pop(round_no + 1, ()))

    def _land_parts(self, parts: Sequence[tuple]) -> int:
        """Deliver ``(target, envelopes)`` parts, in order, into
        ``_parts``; returns how many envelopes dropped (dead target or
        drop filter).  A part nothing of which is filtered lands as the
        object it is.  A target's plain buffer — a sleeper's posts —
        becomes a part first, so the inbox keeps arrival order."""
        dropped = 0
        inboxes, parts_of = self._inboxes, self._parts
        flt = self._drop_filter
        for target, part in parts:
            box = inboxes.get(target)
            if box is None:
                dropped += len(part)
                continue
            if flt is not None:
                kept = [env for env in part if not flt(env)]
                if len(kept) != len(part):
                    dropped += len(part) - len(kept)
                    if not kept:
                        continue
                    part = kept
            got = parts_of.get(target)
            if got is None:
                got = parts_of[target] = []
            if box:
                got.append(box)
                inboxes[target] = []
            got.append(part)
        return dropped

    def _feed_flow_changes(
        self,
        q: int,
        keys: List[Hashable],
        patches: Dict[Hashable, tuple],
        newly_dirty: Set[Hashable],
    ) -> None:
        """Feed wake wheel and flux horizon with round ``q``'s emission
        changes, at its delivery point (the delivery model is final),
        one changed sub-flow at a time (:meth:`_sub_flow_change`).

        A changed sub-flow wakes its target for round ``q + d`` for every
        delay ``d`` at which the old and the new sub-flow differ.  In the
        first round after a model switch every cached sub-flow whose
        delay buckets differ sends fronts, whether its sender executed
        or not: the old-delay flow stops, the new-delay flow starts (the
        switch itself woke everyone for as long as either front can
        arrive, so nobody is woken here).  The delays are those of the
        sub-flows' cached delay buckets, which the delivery point reuses.
        """
        model = self._delivery
        old_model = self._switched_from
        if old_model is not None:
            self._switched_from = None
            out_by = self._out_by
            for key in keys:
                new_by = out_by[key]
                patch = patches.get(key)
                old_by = patch[3] if patch else new_by
                for target in chain(old_by, (t for t in new_by if t not in old_by)):
                    self._sub_flow_change(
                        q, target, old_by.get(target), new_by.get(target), old_model, model
                    )
            return
        for _prev_out, _out, changed, prev_by, new_by in patches.values():
            for target in changed:
                self._sub_flow_change(
                    q, target, prev_by.get(target), new_by.get(target), model, model,
                    newly_dirty,
                )

    def _sub_flow_change(
        self,
        q: int,
        target: Hashable,
        old: Optional[SubFlow],
        new: Optional[SubFlow],
        old_model: DeliveryModel,
        model: DeliveryModel,
        newly_dirty: Optional[Set[Hashable]] = None,
    ) -> None:
        """The sub-flow to ``target`` went from ``old`` (delays under
        ``old_model``) to ``new`` (under ``model``) with round ``q``.

        A target's inbox is grouped by delay (older sends land first), so
        the sub-flow changes class by class: a delay class that differs
        wakes ``target`` for its arrival (unless ``newly_dirty`` is None)
        and sends fronts.  A class present on one side only, or of
        another length or multiset sum on the two, differs as a
        multiset: its fronts are one :meth:`_sub_front` entry, no
        envelope is diffed.  Equal sums (a reordered class) take the
        exact difference (:meth:`_fronts`).  Under a ``per_link`` model
        a sub-flow is one class.
        """
        old_by = dict(old.delay_buckets(old_model)) if old else {}
        new_by = dict(new.delay_buckets(model)) if new else {}
        stopped_pairs: List[tuple] = []
        started_pairs: List[tuple] = []
        for d in old_by.keys() | new_by.keys():
            stopped, started = old_by.get(d, ()), new_by.get(d, ())
            if stopped == started:
                continue
            if newly_dirty is not None:
                if d == 1:
                    newly_dirty.add(target)
                else:
                    self._wake_at(q + d, target)
            if (
                stopped and started and len(stopped) == len(started)
                and stopped.fp_sum == started.fp_sum
            ):
                stopped_pairs.extend((env, d) for env in stopped)
                started_pairs.extend((env, d) for env in started)
            else:
                self._sub_front(q, d, target, stopped, started)
        if stopped_pairs:
            self._fronts(q, stopped_pairs, started_pairs)

    def _fronts(self, q: int, stopped: List[tuple], started: List[tuple]) -> None:
        """Every ``(envelope, delay)`` whose multiplicity differs between
        the emissions of round ``q - 1`` and of round ``q`` is a front
        (:func:`_unmatched`)."""
        for env, d in _unmatched(stopped, started):
            self._front(q, env, d)

    # ------------------------------------------------------------------
    # the columnar loop: the columns
    # ------------------------------------------------------------------
    def _deliverable(self, sub: SubFlow) -> SubFlow:
        """What of ``sub`` passes the drop filter (``sub`` itself when
        nothing is filtered) — the gate every sub-flow passes on its way
        into the columns."""
        assert not any(isinstance(env.payload, AppPayload) for env in sub), (
            "application mail in a steady sub-flow: AppPayloads travel by "
            "post() / send_once(), never send() (the lane contract)"
        )
        flt = self._drop_filter
        if flt is None:
            return sub
        kept = [env for env in sub if not flt(env)]
        return sub if len(kept) == len(sub) else SubFlow(kept)

    # ------------------------------------------------------------------
    # sender flow surgery
    # ------------------------------------------------------------------
    def _install_sender_flows(self, sender: Hashable) -> int:
        """Index ``sender``'s cached outbox as steady flows; returns its
        per-round drop count (dead targets + filtered envelopes)."""
        drops = 0
        for target, sub in self._out_by[sender].items():
            deliverable = self._deliverable(sub)
            if target in self._actors:
                drops += len(sub) - len(deliverable)
                if deliverable:
                    self._flow_in.setdefault(target, {})[sender] = deliverable
                    self._flow_pending += len(deliverable)
            else:
                # every envelope to a dead target drops, filtered or not;
                # the deliverable part is frozen for a possible re-join
                drops += len(sub)
                if deliverable:
                    self._dead_in.setdefault(target, {})[sender] = deliverable
        return drops

    # ------------------------------------------------------------------
    # mode transitions
    # ------------------------------------------------------------------
    def _enter_columnar(self) -> None:
        """Derive the columns from the steady-emission cache.

        Only called at a boundary with no pending flow events
        (``_flow_flag`` clear), where the delivered parts provably equal
        the filtered steady deliveries plus application mail — so the
        steady part can be dropped and regenerated from ``_out`` on
        exit.  The application mail of the one-shot (non-:class:`SubFlow`)
        parts, last round's one-shot sends in sender order, becomes the
        lane; the buffers keep the posts made since.  The derived columns
        must hold the parts and buffers as a fingerprint multiset:
        checked at entry.
        """
        expected = self.config_hash()[1]
        parts_of = self._parts
        self._parts = {}
        self._plans = {}
        self._clear_columns()
        self._settled = {key: self._round - 1 for key in self._actors}
        for key in self._actors:
            self._flow_sent += len(self._out.get(key, ()))
            drops = self._install_sender_flows(key)
            self._drop_by[key] = drops
            self._flow_dropped += drops
        for target, parts in parts_of.items():
            sends = [
                env
                for part in parts
                if part.__class__ is not SubFlow
                for env in part
                if isinstance(env.payload, AppPayload)
            ]
            if sends:
                self._lane[target] = sends
        self._lane_targets = {key for key, box in self._inboxes.items() if box}
        self._lane_targets.update(self._lane)
        self._cols_active = True
        assert self.config_hash()[1] == expected, (
            "columnar entry: the derived columns diverge from the "
            "delivered parts — flow bookkeeping bug"
        )
        self._sync_tel_flow_types()

    def _boundary_parts(self, target: Hashable) -> List[Sequence[Envelope]]:
        """The target's pending messages but its buffer, as the tracked
        loop's parts: ``[per sender in key order: flow, ghost, one-shot
        sends]`` — a sender's one-shots follow its steady emissions,
        exactly where :meth:`_deliver_flows` puts them."""
        flows = self._flow_in.get(target) or {}
        ghosts = self._ghost.get(target) or {}
        lane: Dict[Hashable, List[Envelope]] = {}
        for env in self._lane.get(target, ()):
            lane.setdefault(env.sender, []).append(env)
        return [
            column[sender]
            for sender in sorted({*flows, *ghosts, *lane})
            for column in (flows, ghosts, lane)
            if sender in column
        ]

    def _exit_columnar(self) -> None:
        """Hand every pending message to the tracked loop as delivered
        parts (the buffers stay as they are) and fall back to it."""
        self.settle_replays()
        for target in self._actors:
            parts = self._boundary_parts(target)
            if parts:
                self._parts[target] = parts
        # the lane's targets stay behind as the tracked loop's mail set
        self._clear_columns()
        self._cols_active = False

    # ------------------------------------------------------------------
    # counter settlement
    # ------------------------------------------------------------------
    def _settle_actor(self, key: Hashable, upto: int) -> None:
        last = self._settled.get(key)
        if last is None:
            self._settled[key] = upto
            return
        if last >= upto:
            return
        owed = upto - last
        self._settled[key] = upto
        actor = self._actors.get(key)
        if actor is None:
            return
        batch = getattr(actor, "replay_steps", None)
        if batch is not None:
            batch(owed)
            return
        replay_fn = self._probes.get(key, (None, None, None))[2]
        if replay_fn is not None:
            for _ in range(owed):
                replay_fn()

    def settle_replays(self) -> None:
        """Apply every owed quiescent-round counter delta now.

        Called at boundaries by observers of rule counters (the network
        facade) and on every fall-back to the tracked loop; afterwards
        all counters equal what the tracked loop's eager per-round
        replay would have produced.
        """
        if not self._cols_active:
            return
        upto = self._round - 1
        for key in self._actors:
            self._settle_actor(key, upto)

    # ------------------------------------------------------------------
    # pending-set observers
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        if not self._cols_active:
            count = super().pending_messages()
            for parts in self._parts.values():
                count += sum(map(len, parts))
            return count
        count = self._flow_pending
        for boxes in (self._lane, self._inboxes):
            for box in boxes.values():
                count += len(box)
        return count

    def all_pending(self) -> List[Envelope]:
        parts_of = self._boundary_parts if self._cols_active else self._parts.get
        out: List[Envelope] = []
        for target in sorted(self._inboxes):
            for part in parts_of(target) or ():
                out.extend(part)
            out.extend(self._inboxes[target])
        return out

    # ------------------------------------------------------------------
    # the fast round
    # ------------------------------------------------------------------
    def _materialize_inbox(self, key: Hashable) -> List[List[Envelope]]:
        """Assemble and consume the actor's boundary inbox, as the
        ordered parts it is made of: ``[per sender in key order: its
        SubFlow, its ghost][lane mail + buffer]``.

        Ghosts, lane mail and buffered posts are one-shot: they leave
        the pending set here.  Steady flows stay indexed — they are
        conceptually re-delivered at the end of the round — and are
        handed out as the persistent :class:`SubFlow` objects, so a
        consumer recognizes an unchanged one by identity.
        Lane sends land after all flows rather than after their own
        sender's: the rules never see them and the handler sees only
        them, so just their relative order is observable.
        """
        flows = self._flow_in.get(key) or {}
        ghosts = self._ghost.pop(key, None)
        if ghosts:
            parts: List[List[Envelope]] = []
            for sub in ghosts.values():
                self._flow_pending -= len(sub)
            for sender in sorted({*flows, *ghosts}):
                if sender in flows:
                    parts.append(flows[sender])
                if sender in ghosts:
                    parts.append(ghosts[sender])
        else:
            parts = [flows[sender] for sender in sorted(flows)]
        mail = self._take_mail(key)
        if mail:
            parts.append(mail)
        return parts

    def _take_mail(self, key: Hashable) -> List[Envelope]:
        """Consume the actor's lane sends and buffered posts, in order
        (a lane-only actor's whole inbox: any other post would have put
        it on the dirty list)."""
        mail = self._lane.pop(key, None) or []
        box = self._inboxes.get(key)
        if box:
            mail.extend(box)
            self._inboxes[key] = []
        return mail

    def _run_round_columnar(self) -> None:
        round_no = self._round
        tel = self._telemetry
        actors = self._actors
        state_changed_any = False
        # posts / membership / pending application mail since last round
        flow_changed = self._flow_flag or self._lane_flag
        self._flow_flag = False
        self._lane_flag = False
        changed_keys: Set[Hashable] = set()
        newly_dirty: Set[Hashable] = set()
        carry_due = self._dirty_carry
        self._dirty_carry = set()
        # the work list: the dirty set merged with the lane's targets;
        # the dirty actors run the rule pipeline, the rest is lane-only
        must_step = {k for k in self._dirty if k in actors}
        work = sorted(must_step.union(k for k in self._lane_targets if k in actors))
        self._lane_targets = set()

        # ---- pass 1: take every inbox, then step the round as one batch
        batch: List[tuple] = []
        lane_batch: List[tuple] = []
        #: every context of the round in key order (one-shot delivery)
        ctxs: List[RoundContext] = []
        materialize_s = 0.0
        for key in work:
            actor = actors[key]
            ctx = RoundContext(round_no, key, self)
            ctxs.append(ctx)
            # a clean actor with application mail is lane-only: the rules
            # would reproduce the cached step, so only the handler runs
            # and the round still counts (and settles) as a replay
            if key in must_step or not hasattr(actor, "handle_app"):
                self._settle_actor(key, round_no - 1)
                self._settled[key] = round_no
                take, items = self._materialize_inbox, batch
            else:
                take, items = self._take_mail, lane_batch
            if tel is None:
                inbox = take(key)
            else:
                _t0 = _perf()
                inbox = take(key)
                materialize_s += _perf() - _t0
            items.append((key, actor, inbox, ctx))
        executed = len(batch)
        if work:
            stepper = self._batch_stepper or SerialStepper
            if tel is None:
                stepper.run_batch(batch, lane_batch)
            else:
                tel.add_time("kernel.materialize", materialize_s, len(work))
                _t0 = _perf()
                stepper.run_batch(batch, lane_batch)
                tel.add_time("kernel.execute", _perf() - _t0, len(work))
        #: sender -> outbox patch of this round (see :meth:`_post_step`)
        patched: Dict[Hashable, tuple] = {}
        for key, _actor, _inbox, ctx in batch:
            sc, patch = self._post_step(key, ctx._outbox, changed_keys, newly_dirty)
            state_changed_any |= sc
            if patch is not None:
                # unit delivery: the change arrives next round
                newly_dirty.update(patch[2])
                patched[key] = patch
                flow_changed = True
        for key, _actor, _inbox, ctx in lane_batch:
            self._check_lane_step(key, ctx)

        # ---- pass 2: the delivery point ---------------------------------
        _t0 = _perf() if tel is not None else 0.0
        tel_types = self._tel_flow_types
        tel_extra: Optional[Counter] = Counter() if tel is not None else None
        sent_extra = 0
        dropped_extra = 0
        flt = self._drop_filter
        # (a) steady-flow patches: surgery touches only the targets whose
        # sub-flow actually changed
        for sender, (prev, new, changed, prev_by, new_by) in patched.items():
            self._flow_sent += len(new) - len(prev or ())
            drop_delta = 0
            for target in changed:
                old_sub = prev_by.get(target)
                new_sub = new_by.get(target)
                if tel_types is not None:
                    for env in new_sub or ():
                        tel_types[type(env.payload).__name__] += 1
                    for env in old_sub or ():
                        tel_types[type(env.payload).__name__] -= 1
                # a frozen sub from before the target's death (or from a
                # pre-revival window) must not resurface on top of the
                # fresh sub-flow installed below
                dead = self._dead_in.get(target)
                if dead is not None:
                    dead.pop(sender, None)
                deliverable = self._deliverable(new_sub) if new_sub else None
                if target in self._actors:
                    subs = self._flow_in.get(target)
                    cur = subs.pop(sender, None) if subs is not None else None
                    if cur:
                        self._flow_pending -= len(cur)
                    drop_delta -= len(old_sub or ()) - len(cur or ())
                    if new_sub:
                        drop_delta += len(new_sub) - len(deliverable)
                        if deliverable:
                            self._flow_in.setdefault(target, {})[sender] = deliverable
                            self._flow_pending += len(deliverable)
                else:
                    # every envelope to a dead target drops; the
                    # deliverable part is frozen for a possible re-join
                    drop_delta -= len(old_sub or ())
                    if new_sub:
                        drop_delta += len(new_sub)
                        if deliverable:
                            self._dead_in.setdefault(target, {})[sender] = deliverable
            self._drop_by[sender] = self._drop_by.get(sender, 0) + drop_delta
            self._flow_dropped += drop_delta
        # (b) revivals: frozen flows to re-joined ids resume
        for target in sorted(self._revive):
            if target not in self._actors:
                continue
            subs = self._dead_in.pop(target, None)
            if subs is None:
                continue
            for sender in sorted(subs):
                if sender not in self._actors:
                    continue
                sub = subs[sender]
                self._flow_in.setdefault(target, {})[sender] = sub
                self._flow_pending += len(sub)
                self._drop_by[sender] = self._drop_by.get(sender, 0) - len(sub)
                self._flow_dropped -= len(sub)
        self._revive.clear()
        # (c) this round's one-shot sends enter the lane
        lane = self._lane
        for ctx in ctxs:
            once = ctx._once
            if not once:
                continue
            flow_changed = True
            self._lane_flag = True  # consumed next round: that boundary differs too
            sent_extra += len(once)
            if tel_extra is not None:
                tel_extra.update(type(env.payload).__name__ for env in once)
            for env in once:
                target = env.target
                if target not in actors or (flt is not None and flt(env)):
                    dropped_extra += 1
                    continue
                box = lane.get(target)
                if box is None:  # a target's first box puts it in the mail set
                    box = lane[target] = []
                    self._lane_targets.add(target)
                box.append(env)

        # (d) boundary bookkeeping — identical observables to the tracked loop
        self.dropped_last_round = self._flow_dropped + dropped_extra
        if tel is not None:
            tel.add_time("kernel.patch", _perf() - _t0)
            msg = tel.messages
            if tel_types:
                for name, count in tel_types.items():
                    if count:
                        msg[name] += count
            if tel_extra:
                msg.update(tel_extra)
            tel.on_round(
                sent=self._flow_sent + sent_extra, dropped=self.dropped_last_round,
                executed=executed, replayed=len(actors) - executed,
            )
        self.changed_last_round = state_changed_any or flow_changed
        self.state_changed_keys = changed_keys
        self.executed_last_round = executed
        self.replayed_last_round = len(actors) - executed
        newly_dirty |= carry_due
        self._dirty = newly_dirty
        self._round += 1
