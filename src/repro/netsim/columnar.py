"""The columnar dirty-set kernel: O(dirty work) rounds at scale.

The activity-tracked kernel in :mod:`repro.netsim.scheduler` already
executes only dirty actors, but its *round loop* still costs O(n + E):
every round it sorts all actor keys, iterates every actor (replaying the
quiescent ones), clears every inbox, and re-appends every steady
envelope.  At n = 10k-100k peers that per-round floor — not rule
evaluation — dominates wall-clock time.

This subclass removes the floor by holding the steady state of the
network in *flow-indexed columns* instead of materialized per-round
inboxes:

* ``_flow_in[target][sender]`` — the delivered sub-flows of every
  sender's steady outbox, stored once and conceptually re-delivered
  every boundary (the parent rebuilds these lists physically each
  round).  Each is a :class:`~repro.netsim.messages.SubFlow`: an
  immutable value shared with the sender's outbox split, carrying its
  referenced owners, so all accounting below is per sub-flow and an
  unchanged one is recognized by identity;
* ``_ghost[target][sender]`` — one-shot remnants: the final emissions
  of a removed sender, consumed at the target's next materialization;
* the plain inbox buffer (``_inboxes``) — posts made since the last
  round, which sort after the flows at the next boundary (matching the
  parent's physical append order exactly);
* ``_lane[target]`` — the application lane: one-shot sends
  (``RoundContext.send_once``) delivered at the last boundary, held
  outside the flow columns; their targets and those of ``AppPayload``
  posts in the buffers make the parent's mail set ``_lane_targets``,
  which is *not* dirty;
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
dirty set and the lane's targets.  Rounds are atomic (nothing changes
the scheduler from inside a step), so every inbox is taken before any
step runs and the round goes to the stepper as one batch.  A dirty
actor *materializes* its inbox ``[flows + ghosts in sorted-sender
order][lane mail][buffer]``, steps (rules, then the application
handler), and has its outbox diffed against the steady cache.  A
lane-only actor — clean, but holding application mail — runs only its
``handle_app`` hook against its boundary state: the rule pipeline would
reproduce the cached step, so the round counts and settles as a replay,
and application messages never dirty the overlay (the parent's lane
rule).  Flow patches, revivals and the round's one-shot sends are
applied at the end-of-round delivery point, exactly where the parent
delivers, so
every boundary observable — fingerprints, pending multisets, change
flags, sent/dropped/executed counts, rule counters at observation
points — is bit-for-bit identical to the parent kernel (the
differential suite in ``tests/test_columnar.py`` asserts this
round-for-round).

The fast path is only sound under the parent's unit-delivery flow
induction, so the kernel drops back to the parent's tracked loop
(draining its columns into real inboxes) whenever latency models,
partial activation, or drop-filter changes appear, or a round is
**dense** (:meth:`ColumnarScheduler._dense`: flat inboxes beat
per-actor materialization when most actors execute), and re-enters one
round after the last out-of-band flow event.  Both loops obey one lane
rule, so application mail crosses either switch as it is: the exit
drains the lane into the real inboxes in the parent's order and leaves
its targets in the parent's mail set, the entry picks the mail back up
from the inboxes.  The full-scan kernel remains the executable
reference.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter as _perf
from typing import Callable, Dict, Hashable, List, Optional, Set

from repro.netsim.messages import AppPayload, Envelope, SubFlow, receivers_referencing
from repro.netsim.scheduler import RoundContext, SerialStepper, SynchronousScheduler, _inside_step
from repro.netsim.timemodel import TimeModel, make_delivery_model


#: sub-flow map: sender -> that sender's sub-flow to one target
SubFlows = Dict[Hashable, SubFlow]


class ColumnarScheduler(SynchronousScheduler):
    """Activity-tracked scheduler with a columnar steady-flow store."""

    #: a round with more than this share of the actors dirty is dense and
    #: runs the tracked loop: the crossover measured on cold starts
    #: (docs/ARCHITECTURE.md)
    DENSE_SHARE = 0.5

    activity_tracking = True

    def __init__(self, time_model: Optional[TimeModel] = None) -> None:
        super().__init__(time_model=time_model)
        #: whether the columnar fast path is currently driving rounds
        self._cols_active = False
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
        # ---- the application lane ----------------------------------------
        #: one-shot sends delivered at the last boundary, per live target,
        #: in sender order; the parent's mail set (``_lane_targets``)
        #: names their targets and those of AppPayload posts in the buffers
        self._lane: Dict[Hashable, List[Envelope]] = {}
        #: AppPayload posts accepted by the parent kernel since the last
        #: round; columnar entry tells them from last round's one-shot
        #: sends, which sit in the same real inboxes
        self._late_posts: List[Envelope] = []
        #: telemetry mirror of ``_flow_sent``, broken out by payload type
        #: name; maintained only while a recorder is attached (every
        #: ``_flow_sent`` adjustment has a matching typed adjustment, so
        #: the per-round envelope census equals the parent kernel's)
        self._tel_flow_types: Optional[Counter] = None

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
    def _enter_columnar(self, late_posts: List[Envelope]) -> None:
        """Derive the columns from the steady-emission cache.

        Only called at a boundary with no pending flow events
        (``_flow_flag`` clear), where the parent's inboxes provably equal
        the filtered steady deliveries plus application mail — so the
        steady part can be dropped and regenerated from ``_out`` on
        exit.  The application mail moves into the lane: last round's
        one-shot sends (already in sender order) into ``_lane``, the
        posts made since (``late_posts``) stay behind as the buffer.
        The derived columns must hold the parent's inboxes as a
        fingerprint multiset: checked at entry.
        """
        expected = self.config_hash()[1]
        round_no = self._round
        self._flow_in = {}
        self._ghost = {}
        self._dead_in = {}
        self._revive = set()
        self._drop_by = {}
        self._lane = {}
        self._lane_targets = set()
        self._flow_dropped = 0
        self._flow_sent = 0
        self._flow_pending = 0
        self._settled = {key: round_no - 1 for key in self._actors}
        self._tel_flow_types = None
        for key in self._actors:
            self._flow_sent += len(self._out.get(key, ()))
            drops = self._install_sender_flows(key)
            self._drop_by[key] = drops
            self._flow_dropped += drops
        if self._lane_flag:
            posted = {id(env) for env in late_posts}
            for target, box in self._inboxes.items():
                mail = [env for env in box if isinstance(env.payload, AppPayload)]
                if mail:
                    sends = [env for env in mail if id(env) not in posted]
                    if sends:
                        self._lane[target] = sends
                    self._lane_targets.add(target)
                    box[:] = [env for env in mail if id(env) in posted]
                else:
                    box.clear()
        else:
            for box in self._inboxes.values():
                box.clear()
        self._cols_active = True
        assert self.config_hash()[1] == expected, (
            "columnar entry: the derived columns diverge from the parent's "
            "inboxes — flow bookkeeping bug"
        )
        self._sync_tel_flow_types()

    def _boundary_inbox(self, target: Hashable) -> List[Envelope]:
        """The target's pending messages in the parent's inbox order:
        ``[per sender in key order: flows, ghosts, one-shot sends]
        [buffer]`` — a sender's one-shots follow its steady emissions,
        exactly where the parent's delivery loop puts them."""
        inbox: List[Envelope] = []
        flows = self._flow_in.get(target) or {}
        ghosts = self._ghost.get(target) or {}
        lane: SubFlows = {}
        for env in self._lane.get(target, ()):
            lane.setdefault(env.sender, []).append(env)
        for sender in sorted({*flows, *ghosts, *lane}):
            inbox.extend(flows.get(sender, ()))
            inbox.extend(ghosts.get(sender, ()))
            inbox.extend(lane.get(sender, ()))
        inbox.extend(self._inboxes.get(target, ()))
        return inbox

    def _exit_columnar(self) -> None:
        """Materialize every inbox and fall back to the parent kernel."""
        self.settle_replays()
        for target in self._actors:
            self._inboxes[target] = self._boundary_inbox(target)
        # the lane's targets stay behind as the tracked loop's mail set
        self._flow_in = {}
        self._ghost = {}
        self._dead_in = {}
        self._revive = set()
        self._drop_by = {}
        self._lane = {}
        self._flow_dropped = 0
        self._flow_sent = 0
        self._flow_pending = 0
        self._settled = {}
        self._tel_flow_types = None
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
        facade) and on every fall-back to the parent kernel; afterwards
        all counters equal what the parent's eager per-round replay
        would have produced.
        """
        if not self._cols_active:
            return
        upto = self._round - 1
        for key in self._actors:
            self._settle_actor(key, upto)

    # ------------------------------------------------------------------
    # the in-flight ref query, over the columns
    # ------------------------------------------------------------------
    def ref_receivers(self, owners: Set) -> Set[Hashable]:
        """The base query over ``_inboxes`` (the buffer while the columns
        are live), plus the columns, which are empty otherwise:
        O(live sub-flows + one-shots)."""
        receivers = super().ref_receivers(owners)
        disjoint = owners.isdisjoint
        for column in (self._flow_in, self._ghost):
            for target, subs in column.items():
                for sub in subs.values():
                    if not disjoint(sub.owners()):
                        receivers.add(target)
                        break
        return receivers | receivers_referencing(owners, self._lane)

    # ------------------------------------------------------------------
    # membership / posts / faults under columnar mode
    # ------------------------------------------------------------------
    def add_actor(self, key: Hashable, actor) -> None:
        super().add_actor(key, actor)
        if not self._cols_active:
            return
        # counters owe nothing before the first scheduled execution
        self._settled[key] = self._round - 1
        if key in self._dead_in:
            # a re-joining id: the steady flows still addressed to it
            # resume at the next delivery point, like the parent's
            # delivery loop would
            self._revive.add(key)

    def remove_actor(self, key: Hashable):
        if self._in_round:
            raise _inside_step("remove_actor")
        if self._cols_active:
            self._remove_columnar(key)
        return super().remove_actor(key)

    def _remove_columnar(self, key: Hashable) -> None:
        # -- settle its counters to what the parent would have applied --
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

    def post(self, envelope: Envelope) -> bool:
        # the parent's delivery checks and bookkeeping: application mail
        # joins the mail set, anything else dirties its target; under
        # the columns the post waits in the buffer
        if not super().post(envelope):
            return False
        if not self._cols_active and isinstance(envelope.payload, AppPayload):
            self._late_posts.append(envelope)
        return True

    def set_drop_filter(self, drop: Optional[Callable[[Envelope], bool]]) -> None:
        if self._in_round:
            raise _inside_step("set_drop_filter")
        if self._cols_active and not (drop is None and self._drop_filter is None):
            # filter changes redefine every steady delivery; fall back to
            # the parent kernel (which marks everyone dirty) and re-enter
            # once the flow flag clears
            self._exit_columnar()
        super().set_drop_filter(drop)

    def set_delivery_model(self, model) -> None:
        if self._in_round:
            raise _inside_step("set_delivery_model")
        if self._cols_active:
            new = make_delivery_model(model)
            old = self._delivery
            if not (new.is_unit and old.is_unit) and new.to_dict() != old.to_dict():
                self._exit_columnar()
        super().set_delivery_model(model)

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

    # ------------------------------------------------------------------
    # pending-set observers
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        if not self._cols_active:
            return super().pending_messages()
        count = self._flow_pending
        for boxes in (self._lane, self._inboxes):
            for box in boxes.values():
                count += len(box)
        return count

    def all_pending(self) -> List[Envelope]:
        if not self._cols_active:
            return super().all_pending()
        out: List[Envelope] = []
        for target in sorted(self._inboxes):
            out.extend(self._boundary_inbox(target))
        return out

    # ------------------------------------------------------------------
    # round dispatch
    # ------------------------------------------------------------------
    def _run_round(self, active: Optional[set]) -> None:
        """One round through the columnar loop, or through the inherited
        tracked loop under partial activation, non-unit delivery, a dense
        round (:meth:`_dense`) or out-of-band flow events not yet absorbed."""
        late_posts = self._late_posts
        if late_posts:
            self._late_posts = []
        if active is None and self._daemon.is_full and self._unit_settled() and not self._dense():
            if not self._cols_active and not self._flow_flag:
                self._enter_columnar(late_posts)
            if self._cols_active:
                self.active_last_round = None
                self._run_round_columnar()
                return
            # out-of-band flow events since the last boundary: let the
            # parent kernel absorb them, enter once the flag clears
        elif self._cols_active:
            self._exit_columnar()
        super()._run_round(active)

    def _dense(self) -> bool:
        """Whether more than ``DENSE_SHARE`` of the actors must execute
        next round."""
        return self.dirty_count() > self.DENSE_SHARE * len(self._actors)

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
            for env in once:
                if tel_extra is not None:
                    tel_extra[type(env.payload).__name__] += 1
                target = env.target
                if target not in self._actors or (flt is not None and flt(env)):
                    dropped_extra += 1
                    continue
                lane.setdefault(target, []).append(env)
                self._lane_targets.add(target)

        # (d) boundary bookkeeping — identical observables to the parent
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
