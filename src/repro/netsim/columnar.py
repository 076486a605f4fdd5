"""The columnar kernel: activity tracking and O(dirty work) rounds.

:class:`ColumnarScheduler` is the fast kernel of ``engine="columnar"``.
Its rounds are observably those of the spec loop
(:class:`~repro.netsim.scheduler.SynchronousScheduler`), round for
round, under every delivery model, daemon and drop filter.  It has one
round loop (:meth:`ColumnarScheduler._run_round`) over one dirty set,
one steady-emission cache, one application lane and the flow columns.

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
:meth:`RoundContext.send_once`) dirties nobody — the lane rule: the
rules never read it, so a clean receiver replays and runs only its
``handle_app`` hook on that mail (a *lane step*, counted as replayed).
The **mail set** (``_lane_targets``) names the actors that may hold
some for their next step; a receiver without the hook executes.

The O(active-work) stability flag :attr:`changed_last_round` (used by
``ReChordNetwork.run_until_stable`` instead of a full O(n) fingerprint
per round) is computed from **exact** comparisons only: per-actor state
tokens plus per-actor emission comparisons against the steady-emission
cache, with one-shot flags for posts and membership changes.

Rounds are atomic (nothing changes the scheduler from inside a step),
so the loop takes every inbox of a round before any step runs and hands
the round's steps to one stepper
(:meth:`ColumnarScheduler.set_batch_stepper`; :class:`SerialStepper`
when none is installed).

The columns
-----------

Stepping every actor and re-delivering every steady message each round
costs O(n + sub-flows) per round; at n = 10k-100k peers that floor, not
rule evaluation, dominates.  The kernel instead holds the steady state
of the network in *flow-indexed columns*, conceptually re-delivered at
every boundary, and a round touches only its work list:

* ``_flow_in[target][sender]`` — the delay-1 piece of every sender's
  steady outbox; ``_late_in[target][(-d, 0, sender)]`` — its piece of
  delay class ``d >= 2``.  A piece is a
  :class:`~repro.netsim.messages.SubFlow` (a sub-flow, or one of its
  :meth:`~repro.netsim.messages.SubFlow.delay_buckets`): an immutable
  value shared with the sender's split, carrying its referenced owners,
  so an unchanged one is recognized by identity.  Pieces are stored as
  sent; what of them the drop filter of the last delivery point let
  through (:meth:`SubFlow.kept`, ``_flt``) is the inbox.  Pieces to
  removed targets wait frozen in ``_dead_in`` / ``_dead_late`` (they
  count as dropped every round) and resume when the id re-joins;
* ``_late_once[target][slot]`` — matured delayed one-shots at their
  inbox position (``(-d, 0, sender)``, or ``(-d, 1)`` for a post, which
  follows every sender of its class);
* ``_lane[target]`` — the application lane: delay-1 one-shot sends
  (``RoundContext.send_once``) delivered at the last boundary;
* the plain inbox buffer (``_inboxes``) — posts made since the last
  round;
* ``_held[target]`` — a sleeper's inbox (partial activation: below);
* ``_settled[key]`` — lazily settled rule-counter replays: a quiescent
  actor owes one replay delta per skipped round, applied in one batch
  (``replay_steps``) when it wakes or when counters are observed.

A boundary inbox is ``[held][late pieces and one-shots by slot][delay-1
pieces by sender][lane mail][buffer]`` — the spec's order: older sends
land first, a class in sender order, each sender's one-shots after its
own piece (:meth:`ColumnarScheduler.all_pending` interleaves the lane
per sender; a dirty actor is handed its lane mail after the pieces,
since only the relative order of application mail is observable).  A
dirty actor *materializes* it, steps (rules, then the application
handler), and has its outbox diffed against the steady cache; a
lane-only actor runs only its ``handle_app`` hook on its mail, against
its boundary state.  The in-flight ref query of a liveness flip
(:meth:`ColumnarScheduler.ref_receivers`) scans the columns one piece
at a time; the network asks it once per round start for every flip
since the last one.

Every change of what the columns deliver is a **column patch**
``(target, d, sender, piece)`` applied at the delivery point of the
round it arrives in, ``_patch_at[round]`` in scheduling order:

1. a changed sub-flow (``_post_step``'s per-target diff, made in round
   ``q``) patches each delay class ``d`` in which the old and the new
   sub-flow differ, for ``q + d`` (under settled unit delivery it is
   applied at once — the only class is 1);
2. a removed sender's last sends keep arriving for ``d - 1`` more
   rounds: its pieces are patched away ``d`` rounds after its last
   send;
3. a model switch stops every old-delay piece and starts every
   new-delay one (rule 1 for every sub-flow whose buckets differ);
4. a sleeper sends nothing: each of its pieces leaves a one-round gap,
   removed for ``q + d`` and restored for ``q + d + 1`` (a later patch
   of the same piece overrides the restore).

A scheduled piece is thus the column's piece as patched up to its
arrival: :meth:`ColumnarScheduler.future_pending` enumerates the
in-flight copies on demand, O(pending).  Delayed one-shots and posts
wait in the base class's delivery-round-keyed queue (``_future``, with
their slot) and mature into ``_late_once`` (application mail also into
the mail set) at the delivery point before their consumption round.  A
drop-filter change re-derives the delivered pieces and the drop count
at the next delivery point.

Exactness under non-unit delivery
---------------------------------

* **matured steady mail dirties nobody.**  ``DeliveryModel.delay`` is a
  pure function of envelope content, so a clean sender's pieces land in
  the same inboxes with the same delays every round (from each
  sub-flow's cached delay buckets, without asking the model again; a
  ``per_link`` model is asked once per sub-flow): a receiver's inbox
  can only differ from its replay baseline in a round where a patch
  arrives.  The **wake wheel** (``round -> actors that must execute in
  it``; ``_dirty`` and ``_dirty_carry`` are its next-round and
  round-after slots) is fed when the change is made, for the round it
  arrives in: a changed sub-flow wakes its target for ``q + d`` per
  differing class; a removed sender wakes its former receivers ``d``
  rounds after its last send; a delayed one-shot reaches its target in
  the round that consumes it (application mail through the mail set,
  anything else as a wake); a (re-)joining actor runs again when the
  flows that were waiting for it land.  What redefines every delivery
  at once is conservative: a model change wakes everyone for as long
  as an old- or new-delay front can arrive (``delay_bound() + 1``
  rounds), a partial round likewise, a drop-filter change for the two
  rounds of the unit rule.  Conservative wakes are always allowed,
  missed wakes never.  The in-flight ref query may keep reading inboxes
  only: a later first arrival is itself a patch, woken by the wheel;
* :attr:`changed_last_round` stays exact and O(changed): the flow flags
  are extended by a **flux horizon**.  An emission change of envelope
  ``E`` (delay ``d``) effective from round ``q`` keeps the flag raised
  for the boundaries of rounds ``q .. q+d-2`` (the front travels
  through remaining ``d-1 .. 1``) and for ``q+d-1`` iff ``E`` is
  deliverable when it lands (live target, not filtered).  Fronts are
  found per changed sub-flow and delay class: a class on one side only,
  or of another length or multiset sum (``SubFlow.fp_sum``) on the two,
  proves that fronts exist and records one landing entry for all of
  them, which lands iff its target is alive — only a drop filter
  installed at landing time makes it compute the envelope difference;
  equal sums take the exact difference.  A one-shot is a start at ``q``
  and a stop at ``q + 1``.  Under unit delivery, once wheel, horizon
  and queue are empty (:meth:`_unit_settled`), none of this runs.

Partial activation is a work-list filter
----------------------------------------

Under a fair partial daemon only the awake actors step, and every one
of them executes.  A sleeper keeps its inbox: at the round's delivery
point its pending inbox becomes ``_held`` (the columns keep
delivering after it), and its own pieces leave a one-round gap (rule 4
above).  That breaks the inbox-repetition induction the replay cache
relies on, so such a round ends conservatively: reported as changed,
every actor executing the next two rounds, and under non-unit delivery
everyone woken with the change flag raised until the last gap landed.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from time import perf_counter as _perf
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.netsim.messages import (
    AppPayload,
    Envelope,
    SubFlow,
    envelope_fingerprint as _envelope_hash,
    group_by_target as _group_by_target,
    receivers_referencing,
    ref_owners,
)
from repro.netsim.scheduler import RoundContext, SynchronousScheduler, _inside_step
from repro.netsim.timemodel import DeliveryModel, TimeModel


#: piece map of one target: sender (delay 1) or slot (delay >= 2) -> piece
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
    """The activity-tracked kernel: one round loop over the dirty set
    and the flow columns (module docstring)."""

    def __init__(self, time_model: Optional[TimeModel] = None) -> None:
        super().__init__(time_model=time_model)
        # ---- activity tracking ------------------------------------------
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
        #: steady-emission cache: outbox of the last executed step
        self._out: Dict[Hashable, List[Envelope]] = {}
        #: the cached outbox split into its sub-flows (target -> SubFlow);
        #: an unchanged sub-flow stays the same object from step to step
        self._out_by: Dict[Hashable, Dict[Hashable, SubFlow]] = {}
        #: external flow change (post / membership) pending for next round
        self._flow_flag = False
        #: one-shot application mail (an :class:`AppPayload` post, a
        #: delivered :meth:`RoundContext.send_once`) is pending: the next
        #: boundary differs because that mail is consumed.  Kept apart
        #: from ``_flow_flag`` because it says nothing about the steady
        #: flows
        self._lane_flag = False
        #: the mail set: clean actors that may hold application mail for
        #: their next step (a lane step finds out what is really there)
        self._lane_targets: Set[Hashable] = set()
        #: optional batched rule pipeline (see repro.core.rules_batched):
        #: the loop hands it every round (:meth:`set_batch_stepper`);
        #: None steps through SerialStepper
        self._batch_stepper = None
        # ---- the columns (module docstring) -------------------------------
        self._flow_in: Dict[Hashable, SubFlows] = {}
        self._late_in: Dict[Hashable, SubFlows] = {}
        self._dead_in: Dict[Hashable, SubFlows] = {}
        self._dead_late: Dict[Hashable, SubFlows] = {}
        self._late_once: Dict[Hashable, Dict[tuple, List[Envelope]]] = {}
        self._lane: Dict[Hashable, List[Envelope]] = {}
        self._held: Dict[Hashable, List[Sequence[Envelope]]] = {}
        #: column patches by consumption round, in scheduling order
        self._patch_at: Dict[int, List[tuple]] = {}
        #: the drop filter of the last delivery point: what it let
        #: through of the pieces is the pending inbox
        self._flt: Optional[Callable[[Envelope], bool]] = None
        #: re-added targets whose frozen pieces resume at the next
        #: delivery point
        self._revive: Set[Hashable] = set()
        #: running totals kept consistent with the columns: envelopes
        #: delivered by the live pieces, and dropped per round (pieces to
        #: dead targets, filtered envelopes)
        self._flow_pending = 0
        self._flow_dropped = 0
        self._flow_sent = 0  # = sum(len(_out[k]) for live k)
        self._settled: Dict[Hashable, int] = {}
        #: telemetry mirror of ``_flow_sent``, broken out by payload type
        #: name; maintained only while a recorder is attached (every
        #: ``_flow_sent`` adjustment has a matching typed adjustment)
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
        # counters owe nothing before the first scheduled execution
        self._settled[key] = self._round - 1
        if key in self._dead_in or key in self._dead_late:
            # a re-joining id: the steady pieces still addressed to it
            # resume at the next delivery point
            self._revive.add(key)

    def remove_actor(self, key: Hashable):
        """Remove an actor; its pending messages die, its steady flow
        stops (its last sends still land) and wakes its former
        receivers."""
        if self._in_round:
            raise _inside_step("remove_actor")
        self._settle_actor(key, self._round - 1)
        self._settled.pop(key, None)
        actor = super().remove_actor(key)
        # -- as a target: its pieces freeze, its one-shot mail dies
        if key in self._revive:
            # re-added and removed again before its frozen pieces resumed
            self._revive.discard(key)
        else:
            for column, frozen in ((self._flow_in, self._dead_in), (self._late_in, self._dead_late)):
                subs = column.pop(key, None)
                if subs:
                    for sub in subs.values():
                        self._count(sub, True, -1)
                        self._count(sub, False, 1)
                    frozen[key] = subs
        for box in (self._late_once, self._lane, self._held):
            box.pop(key, None)
        self._lane_targets.discard(key)
        # -- as a sender: a former receiver must re-run in the round its
        # last emission is missing from the inbox — the round after next
        # under unit delivery (carry; next round is defensive), ``delay``
        # rounds after its last send in general
        out = self._out.pop(key, None)
        if out:
            self._flow_flag = True  # its contribution leaves the pending set
            self._flow_sent -= len(out)
            if self._tel_flow_types is not None:
                self._tel_flow_types.subtract(type(env.payload).__name__ for env in out)
        settled = self._unit_settled()
        model = self._switched_from or self._delivery
        q = self._round
        for target, sub in self._out_by.pop(key, {}).items():
            for d, envs in sub.delay_buckets(model):
                self._patch_at.setdefault(q + d, []).append((target, d, key, None))
                if target == key:
                    continue
                if d == 1:
                    self._dirty.add(target)
                    self._dirty_carry.add(target)
                else:
                    self._wake_at(q + d, target)
                if not settled:
                    self._sub_front(q, d, target, envs, ())
        self._dirty_carry.discard(key)
        self._probes.pop(key, None)
        self._ver.pop(key, None)
        self._tok.pop(key, None)
        self._dirty.discard(key)
        return actor

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
        it differs from the cached one."""
        if key in self._tok and tok == self._tok[key]:
            return False
        self._tok[key] = tok
        return True

    def ref_receivers(self, owners: Set) -> Set[Hashable]:
        """The actors whose next-round inbox holds a message referencing
        any owner in ``owners`` — whom a liveness flip of those owners
        reaches in flight (the network's ``_wake_flow_refs``).

        O(pending); every payload must enumerate its refs.  Scans the
        buffers and the lane an envelope at a time, the columns a
        delivered piece at a time.
        """
        receivers = receivers_referencing(owners, self._inboxes, self._lane)
        disjoint = owners.isdisjoint
        flt = self._flt
        for column in (self._flow_in, self._late_in):
            for target, subs in column.items():
                for sub in subs.values():
                    if not disjoint((sub if flt is None else sub.kept(flt)).owners()):
                        receivers.add(target)
                        break
        for target, parts in chain(
            ((t, once.values()) for t, once in self._late_once.items()), self._held.items()
        ):
            if any(
                not disjoint(part.owners() if part.__class__ is SubFlow else ref_owners(part))
                for part in parts
            ):
                receivers.add(target)
        return receivers

    def set_batch_stepper(self, stepper) -> None:
        """Install (or clear, with ``None``) the batched rule pipeline.

        ``stepper`` provides ``run_batch(items, lane)``, ``items`` being
        a round's ``[(key, actor, parts, ctx), ...]`` in key order, where
        ``parts`` lists the envelope lists whose concatenation is the
        actor's inbox: the persistent :class:`SubFlow` pieces (what of
        them the drop filter let through) and the one-shot mail around
        them.  ``run_batch`` must
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
        round is taken before any step runs and the loop hands every
        round to ``self._batch_stepper or SerialStepper``; the serial
        stepper runs the same items one actor at a time.
        """
        self._batch_stepper = stepper

    # ------------------------------------------------------------------
    # flow events between rounds
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope) -> bool:
        """Inject a message from outside the round loop (see the base
        class).  Application mail joins the mail set, anything else
        dirties its target; a delayed post is a one-shot of the
        previous round.  A post waits in the buffer.
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

    def _park_post(self, envelope: Envelope, delay: int) -> None:
        """A delayed post waits with its inbox slot: after every sender
        of its class (the base class's docstring)."""
        self._future.setdefault(self._round + delay - 1, []).append(
            (envelope.target, (-delay, 1), envelope)
        )

    def set_drop_filter(self, drop: Optional[Callable[[Envelope], bool]]) -> None:
        """Install (or clear) a delivery-time fault filter (see the base
        class).

        Installing or clearing a filter is a flow event: every actor's
        next inbox may differ from its cached baseline, so all actors
        are marked dirty (with the one-round carry, since the changed
        delivery lands one round later) and the boundary is flagged as
        changed.  The next delivery point re-derives what the pieces
        deliver.
        """
        old = self._drop_filter
        super().set_drop_filter(drop)
        if drop is None and old is None:
            return
        self._dirty.update(self._actors)
        self._dirty_carry.update(self._actors)
        self._flow_flag = True

    def set_delivery_model(self, model) -> None:
        """Install a delivery model (see the base class).

        A model change is a flow event: per cached envelope whose delay
        differs, the old-delay flow stops and the new-delay flow starts,
        so every actor is woken for each round one of the two fronts can
        still arrive in (``bound + 1`` rounds, the larger bound of the
        two models).  A no-op install (unit over unit) keeps the exact
        change flag intact.  The sub-flows' cached delays
        (:meth:`SubFlow.delay_buckets`) are keyed on the model object,
        so the switch invalidates them without a sweep.
        """
        old = self._delivery
        super().set_delivery_model(model)
        model = self._delivery
        if model is old:
            return
        if self._switched_from is None:
            self._switched_from = old
        self._dirty.update(self._actors)
        self._dirty_carry.update(self._actors)
        first = self._round + 2
        self._wake_everyone(first, first - 2 + max(old.delay_bound(), model.delay_bound()))
        self._flow_flag = True

    def set_telemetry(self, recorder) -> None:
        super().set_telemetry(recorder)
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
        flags, patches applied where they are made)."""
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
        application mail (the mail set takes it when it matures),
        executing otherwise — and the emission starts with round ``q``
        and stops with ``q + 1``."""
        if not isinstance(env.payload, AppPayload):
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
    # step bookkeeping
    # ------------------------------------------------------------------
    def _probe_refresh(self, key: Hashable, probes: tuple) -> bool:
        """Refresh an executed actor's probe baselines after its step.

        Returns whether the exact state token changed: the cheap version
        counter says *possibly*, the token confirms, and only then do
        the version/token caches move.
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
        not every receiver of an otherwise-stable emission.  The
        delivery point wakes them and patches their columns.  ``prev_by``
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

    @staticmethod
    def _check_lane_step(key: Hashable, ctx: RoundContext) -> None:
        if ctx._outbox:
            raise RuntimeError(
                f"actor {key!r} used ctx.send() while handling application "
                "mail on a lane-only round; handlers emit through "
                "ctx.send_once() — a steady send here would never be replayed"
            )

    def _feed_flow_changes(
        self,
        q: int,
        keys,
        patches: Dict[Hashable, tuple],
        newly_dirty: Set[Hashable],
    ) -> None:
        """Patch the columns, and feed wake wheel and flux horizon, with
        round ``q``'s emission changes at its delivery point (the
        delivery model is final), one changed sub-flow at a time
        (:meth:`_sub_flow_change`).

        In the first round after a model switch every cached sub-flow
        whose delay buckets differ changes, whether its sender executed
        or not: the old-delay flow stops, the new-delay flow starts (the
        switch itself woke everyone for as long as either front can
        arrive, so nobody is woken here).  The delays are those of the
        sub-flows' cached delay buckets.
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
                        q, key, target, old_by.get(target), new_by.get(target), old_model,
                        model,
                    )
            return
        for key, (_prev_out, _out, changed, prev_by, new_by) in patches.items():
            for target in changed:
                self._sub_flow_change(
                    q, key, target, prev_by.get(target), new_by.get(target), model, model,
                    newly_dirty,
                )

    def _sub_flow_change(
        self,
        q: int,
        sender: Hashable,
        target: Hashable,
        old: Optional[SubFlow],
        new: Optional[SubFlow],
        old_model: DeliveryModel,
        model: DeliveryModel,
        newly_dirty: Optional[Set[Hashable]] = None,
    ) -> None:
        """The sub-flow ``sender`` sends ``target`` went from ``old``
        (delays under ``old_model``) to ``new`` (under ``model``) with
        round ``q``.

        A target's inbox is grouped by delay (older sends land first), so
        the sub-flow changes class by class: a delay class ``d`` that
        differs is a column patch for ``q + d``, wakes ``target`` for
        that round (unless ``newly_dirty`` is None) and sends fronts.  A
        class present on one side only, or of another length or multiset
        sum on the two, differs as a multiset: its fronts are one
        :meth:`_sub_front` entry, no envelope is diffed.  Equal sums (a
        reordered class) take the exact difference (:meth:`_fronts`).
        Under a ``per_link`` model a sub-flow is one class.
        """
        old_by = dict(old.delay_buckets(old_model)) if old else {}
        new_by = dict(new.delay_buckets(model)) if new else {}
        stopped_pairs: List[tuple] = []
        started_pairs: List[tuple] = []
        for d in old_by.keys() | new_by.keys():
            stopped, started = old_by.get(d, ()), new_by.get(d, ())
            if stopped == started:
                continue
            self._patch_at.setdefault(q + d, []).append((target, d, sender, started or None))
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
    # the columns
    # ------------------------------------------------------------------
    def _kept(self, sub: SubFlow) -> SubFlow:
        """What of ``sub`` the last delivery point's filter let through."""
        return sub if self._flt is None else sub.kept(self._flt)

    def _count(self, sub: SubFlow, live: bool, sign: int) -> None:
        """Add (``sign`` 1) or take out (-1) one piece's share of the
        running totals: a live target's piece delivers what the filter
        keeps and drops the rest, a dead target's drops whole."""
        if not live:
            self._flow_dropped += sign * len(sub)
            return
        kept = len(self._kept(sub))
        self._flow_pending += sign * kept
        self._flow_dropped += sign * (len(sub) - kept)

    def _patch(self, target: Hashable, d: int, sender: Hashable, sub: Optional[SubFlow]) -> None:
        """From this delivery point on, ``sender``'s delay-``d`` piece to
        ``target`` is ``sub`` (None: there is none)."""
        live = target in self._actors
        if d == 1:
            column, key = (self._flow_in if live else self._dead_in), sender
        else:
            column, key = (self._late_in if live else self._dead_late), (-d, 0, sender)
        subs = column.get(target)
        if subs is None:
            if sub is None:
                return
            subs = column[target] = {}
        old = subs.pop(key, None)
        if sub is not None:
            subs[key] = sub
        elif not subs:
            del column[target]
        if self._flt is None:
            delta = (len(sub) if sub else 0) - (len(old) if old else 0)
            if live:
                self._flow_pending += delta
            else:
                self._flow_dropped += delta
            return
        if old is not None:
            self._count(old, live, -1)
        if sub is not None:
            self._count(sub, live, 1)

    def _rederive(self) -> None:
        """A new drop filter takes effect at this delivery point: the
        running totals are recounted under it."""
        self._flt = self._drop_filter
        self._flow_pending = self._flow_dropped = 0
        for column, live in (
            (self._flow_in, True), (self._late_in, True),
            (self._dead_in, False), (self._dead_late, False),
        ):
            for subs in column.values():
                for sub in subs.values():
                    self._count(sub, live, 1)

    def _revive_frozen(self) -> None:
        """Re-joined ids: their frozen pieces resume delivering."""
        for target in self._revive:
            for frozen, column in ((self._dead_in, self._flow_in), (self._dead_late, self._late_in)):
                subs = frozen.pop(target, None)
                if subs:
                    for sub in subs.values():
                        self._count(sub, False, -1)
                        self._count(sub, True, 1)
                    column[target] = subs
        self._revive.clear()

    def _hold(self, sleepers: List[Hashable]) -> None:
        """The sleepers of a partial round keep their inboxes: what each
        holds becomes its ``_held`` parts, the columns deliver after it."""
        for key in sleepers:
            parts = self._pending_parts(key)
            box = self._inboxes[key]
            if box:
                parts.append(box)
                self._inboxes[key] = []
            if parts:
                self._held[key] = parts
                self._late_once.pop(key, None)
                self._lane.pop(key, None)

    def _gap(self, q: int, sleepers: List[Hashable]) -> None:
        """The sleepers of round ``q`` sent nothing: each of their
        pieces is missing for one arrival round, then resumes."""
        model = self._delivery
        patch_at = self._patch_at
        for key in sleepers:
            for target, sub in self._out_by[key].items():
                for d, piece in sub.delay_buckets(model):
                    patch_at.setdefault(q + d, []).append((target, d, key, None))
                    patch_at.setdefault(q + d + 1, []).append((target, d, key, piece))

    def _mature(self, q: int) -> int:
        """Delayed one-shots and posts consumed in ``q + 1`` take their
        slots (application mail joins the mail set); returns how many
        dropped (dead target or filter)."""
        dropped = 0
        flt = self._drop_filter
        for target, slot, env in self._future.pop(q + 1, ()):
            if target not in self._actors or (flt is not None and flt(env)):
                dropped += 1
                continue
            self._late_once.setdefault(target, {}).setdefault(slot, []).append(env)
            if isinstance(env.payload, AppPayload):
                self._lane_targets.add(target)
        return dropped

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
        facade) and before a partial round; afterwards all counters
        equal what an eager per-round replay would have produced.
        """
        upto = self._round - 1
        for key in self._actors:
            self._settle_actor(key, upto)

    # ------------------------------------------------------------------
    # pending-set observers
    # ------------------------------------------------------------------
    def _late_parts(self, target: Hashable, take: bool) -> List[Sequence[Envelope]]:
        """The target's delay-``>= 2`` pieces and matured one-shots in
        slot order (``take``: the one-shots are consumed)."""
        late = self._late_in.get(target) or {}
        once = (self._late_once.pop if take else self._late_once.get)(target, None) or {}
        if not once and self._flt is None:
            return [late[slot] for slot in sorted(late)]
        parts: List[Sequence[Envelope]] = []
        for slot in sorted({*late, *once}):
            sub = late.get(slot)
            if sub is not None:
                sub = self._kept(sub)
                if sub:
                    parts.append(sub)
            if slot in once:
                parts.append(once[slot])
        return parts

    def _pending_parts(self, target: Hashable) -> List[Sequence[Envelope]]:
        """The target's pending inbox but its buffer, in the spec's
        order: held, late slots, then per sender its delay-1 piece and
        its one-shot sends."""
        parts = [*self._held.get(target, ()), *self._late_parts(target, take=False)]
        flows = self._flow_in.get(target) or {}
        lane: Dict[Hashable, List[Envelope]] = {}
        for env in self._lane.get(target, ()):
            lane.setdefault(env.sender, []).append(env)
        for sender in sorted({*flows, *lane}):
            sub = flows.get(sender)
            if sub is not None:
                sub = self._kept(sub)
                if sub:
                    parts.append(sub)
            if sender in lane:
                parts.append(lane[sender])
        return parts

    def pending_messages(self) -> int:
        count = self._flow_pending
        for boxes in (self._lane, self._inboxes):
            for box in boxes.values():
                count += len(box)
        for parts in chain(self._held.values(), (o.values() for o in self._late_once.values())):
            count += sum(map(len, parts))
        count += sum(map(len, self._future.values()))
        return count + sum(
            len(piece) * (stop - first) for _t, _s, piece, first, stop in self._wire_spans()
        )

    def all_pending(self) -> List[Envelope]:
        out: List[Envelope] = []
        for target in sorted(self._inboxes):
            for part in self._pending_parts(target):
                out.extend(part)
            out.extend(self._inboxes[target])
        return out

    def _wire_spans(self):
        """The delay-``>= 2`` pieces on the wire at this boundary, as
        ``(target, slot, piece, first, stop)``: the arrivals ``first ..
        stop - 1`` each carry ``piece``.  At boundary ``r`` a class-``d``
        piece has its sends of the last ``d - 1`` rounds in flight
        (arrivals ``r + 1 .. r + d - 1``); a pending patch for arrival
        ``c`` changes the piece from ``c`` on.  Raw: the filter applies
        when they land, to dead targets too."""
        r = self._round
        steps: Dict[tuple, List[tuple]] = {}
        for c in sorted(self._patch_at):
            for target, d, sender, sub in self._patch_at[c]:
                if 1 < d and c < r + d:
                    steps.setdefault((target, (-d, 0, sender)), []).append((c, sub))
        for column in (self._late_in, self._dead_late):
            for target, subs in column.items():
                for slot, sub in subs.items():
                    if (target, slot) not in steps:
                        yield target, slot, sub, r + 1, r - slot[0]
        for (target, slot), changes in steps.items():
            piece = (self._late_in.get(target) or self._dead_late.get(target) or {}).get(slot)
            first = r + 1
            for c, sub in [*changes, (r - slot[0], None)]:
                if piece is not None and c > first:
                    yield target, slot, piece, first, c
                piece, first = sub, c

    def future_pending(self) -> List[Tuple[int, Envelope]]:
        """The queued one-shots and the in-flight copies of the pieces
        (:meth:`_wire_spans`), per arrival round and target in the
        spec's inbox order."""
        r = self._round
        flight = [
            (c, target, (slot, 1, rank), (env,))
            for c, entries in self._future.items()
            for rank, (target, slot, env) in enumerate(entries)
        ]
        for target, slot, piece, first, stop in self._wire_spans():
            flight += [(c, target, (slot, 0), piece) for c in range(first, stop)]
        flight.sort(key=itemgetter(0, 1, 2))
        return [(c - r, env) for c, _target, _order, part in flight for env in part]

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def _materialize_inbox(self, key: Hashable) -> List[Sequence[Envelope]]:
        """Assemble and consume the actor's boundary inbox, as the
        ordered parts it is made of: ``[held][late slots][delay-1 pieces
        in sender order][lane mail + buffer]``.

        Held parts, one-shots, lane mail and buffered posts leave the
        pending set here.  Steady pieces stay indexed — they are
        conceptually re-delivered at the end of the round — and are
        handed out as the persistent :class:`SubFlow` objects, so a
        consumer recognizes an unchanged one by identity.  Lane sends
        land after all pieces rather than after their own sender's: the
        rules never see them and the handler sees only them, so just
        their relative order is observable.
        """
        flows = self._flow_in.get(key) or {}
        if self._flt is None and not (self._late_in or self._late_once or self._held):
            parts: List[Sequence[Envelope]] = [flows[sender] for sender in sorted(flows)]
        else:
            parts = [*self._held.pop(key, ()), *self._late_parts(key, take=True)]
            if self._flt is None:
                parts += [flows[sender] for sender in sorted(flows)]
            else:
                parts += filter(None, map(self._kept, (flows[s] for s in sorted(flows))))
        mail = self._take_mail(key)
        if mail:
            parts.append(mail)
        return parts

    def _take_mail(self, key: Hashable) -> List[Envelope]:
        """Consume the actor's matured one-shots, lane sends and buffered
        posts, in order (a lane-only actor's whole inbox: any other mail
        would have put it on the dirty list)."""
        mail = self._lane.pop(key, None) or []
        once = self._late_once.pop(key, None) if self._late_once else None
        if once:
            mail[:0] = [env for slot in sorted(once) for env in once[slot]]
        box = self._inboxes.get(key)
        if box:
            mail.extend(box)
            self._inboxes[key] = []
        return mail

    def _run_round(self, active: Optional[frozenset]) -> None:
        """One round: step the work list, then the delivery point.

        ``active`` (partial activation) filters the work list: only
        awake actors step, and every one of them executes (module
        docstring)."""
        round_no = self._round
        tel = self._telemetry
        actors = self._actors
        settled = self._unit_settled()
        switched_from = self._switched_from
        state_changed_any = False
        # posts / membership / pending application mail since last round
        flow_changed = self._flow_flag or self._lane_flag
        self._flow_flag = False
        self._lane_flag = False
        changed_keys: Set[Hashable] = set()
        newly_dirty: Set[Hashable] = set()
        carry_due = self._dirty_carry
        self._dirty_carry = set()
        if active is None:
            # the work list: the dirty set merged with the lane's targets;
            # the dirty actors run the rule pipeline, the rest is lane-only
            sleepers: List[Hashable] = []
            must_step = {k for k in self._dirty if k in actors}
            work = sorted(must_step.union(k for k in self._lane_targets if k in actors))
        else:
            self.settle_replays()
            sleepers = [k for k in actors if k not in active]
            must_step = active
            work = sorted(k for k in actors if k in active)
        self._lane_targets = set()

        # ---- pass 1: take every inbox, then step the round as one batch
        batch: List[tuple] = []
        lane_batch: List[tuple] = []
        #: every context of the round in key order (one-shot delivery)
        ctxs: List[RoundContext] = []
        materialize_s = execute_s = 0.0
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
                _t0 = _perf()
                stepper.run_batch(batch, lane_batch)
                execute_s = _perf() - _t0
        #: sender -> outbox patch of this round (see :meth:`_post_step`)
        patched: Dict[Hashable, tuple] = {}
        for key, _actor, _inbox, ctx in batch:
            sc, patch = self._post_step(key, ctx._outbox, changed_keys, newly_dirty)
            state_changed_any |= sc
            if patch is not None:
                patched[key] = patch
        for key, _actor, _inbox, ctx in lane_batch:
            self._check_lane_step(key, ctx)

        # ---- pass 2: the delivery point ---------------------------------
        _t0 = _perf() if tel is not None else 0.0
        flow_s = 0.0
        tel_types = self._tel_flow_types
        tel_extra: Optional[Counter] = Counter() if tel is not None else None
        # (a) the senders' side: sent totals and their typed mirror
        for prev, new, changed, prev_by, new_by in patched.values():
            self._flow_sent += len(new) - len(prev or ())
            if tel_types is not None:
                for target in changed:
                    tel_types.update(type(env.payload).__name__ for env in new_by.get(target, ()))
                    tel_types.subtract(type(env.payload).__name__ for env in prev_by.get(target, ()))
        # (b) what the last boundary delivered: sleepers hold it, a new
        # filter and re-joined ids take effect
        if sleepers:
            self._hold(sleepers)
        if self._flt is not self._drop_filter:
            self._rederive()
        if self._revive:
            self._revive_frozen()
        # (c) column patches: those arriving now in scheduling order, then
        # (settled unit delivery) this round's, which arrive at once
        if settled:
            if patched:
                flow_changed = True
                for patch in patched.values():
                    newly_dirty.update(patch[2])
        elif tel is None:
            self._feed_flow_changes(round_no, actors, patched, newly_dirty)
        else:
            _t1 = _perf()
            self._feed_flow_changes(round_no, actors, patched, newly_dirty)
            flow_s = _perf() - _t1
        if sleepers:
            self._gap(round_no, sleepers)
        for entry in self._patch_at.pop(round_no + 1, ()):
            self._patch(*entry)
        if settled:
            for sender, (_prev, _new, changed, _prev_by, new_by) in patched.items():
                for target in changed:
                    self._patch(target, 1, sender, new_by.get(target))
        # (d) one-shots: the matured ones, then this round's sends
        dropped_extra = self._mature(round_no) if self._future else 0
        sent_extra = 0
        flt = self._drop_filter
        delay = self._delivery.delay
        lane = self._lane
        for ctx in ctxs:
            once = ctx._once
            if not once:
                continue
            sent_extra += len(once)
            if tel_extra is not None:
                tel_extra.update(type(env.payload).__name__ for env in once)
            for env in once:
                target = env.target
                d = 1 if settled else delay(env)
                if d > 1:
                    self._future.setdefault(round_no + d, []).append(
                        (target, (-d, 0, env.sender), env)
                    )
                    self._one_shot(round_no, env, d)
                    continue
                flow_changed = True
                self._lane_flag = True  # consumed next round: that boundary differs too
                if target not in actors or (flt is not None and flt(env)):
                    dropped_extra += 1
                    continue
                box = lane.get(target)
                if box is None:  # a target's first box puts it in the mail set
                    box = lane[target] = []
                    self._lane_targets.add(target)
                box.append(env)

        # (e) boundary bookkeeping
        sent = self._flow_sent + sent_extra
        sleeping_types: Optional[Counter] = None
        if sleepers:
            sent -= sum(len(self._out[key]) for key in sleepers)
            if tel_types:
                sleeping_types = Counter(
                    type(env.payload).__name__ for key in sleepers for env in self._out[key]
                )
        self.dropped_last_round = self._flow_dropped + dropped_extra
        replayed = len(actors) - executed if active is None else 0
        if tel is not None:
            if settled:
                tel.add_time("kernel.materialize", materialize_s, len(work))
                tel.add_time("kernel.execute", execute_s, len(work))
                tel.add_time("kernel.patch", _perf() - _t0)
            else:
                # a round with anything beyond the next boundary in motion
                # reports its own phases
                tel.add_time("kernel.step", materialize_s + execute_s, executed + replayed)
                tel.add_time("kernel.flow_changes", flow_s)
                tel.add_time("kernel.deliver", _perf() - _t0 - flow_s)
            msg = tel.messages
            if tel_types:
                for name, count in tel_types.items():
                    count -= sleeping_types[name] if sleeping_types else 0
                    if count:
                        msg[name] += count
            if tel_extra:
                msg.update(tel_extra)
            tel.on_round(
                sent=sent, dropped=self.dropped_last_round, executed=executed, replayed=replayed,
            )
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
        if self._wake:
            newly_dirty.update(self._wake.pop(round_no + 1, ()))
        self._dirty = newly_dirty
        if active is not None:
            # the conservative tail (module docstring): the sleepers'
            # gaps arrive next round and their restored pieces the round
            # after — everyone executes in both
            for key in sleepers:
                self._settled[key] = round_no
            self.changed_last_round = True
            self._flow_flag = True  # sleepers' flow resumes later: boundary differs
            self._dirty = set(actors)
            self._dirty_carry = set(actors)
            if not settled:
                bound = self._delivery.delay_bound()
                if switched_from is not None:
                    bound = max(bound, switched_from.delay_bound())
                last = max(round_no + 1 + bound, max(self._future, default=0))
                self._wake_everyone(round_no + 2, last)
                self._flux_until = max(self._flux_until, last - 1)
        self._round += 1
