"""The synchronous round scheduler.

Semantics (paper Section 2.1):

* all actors conceptually step **in parallel** each round — an actor may
  only read its own state and the messages delivered to it at the previous
  round boundary;
* messages sent during round ``i`` are buffered and delivered together at
  the end of round ``i``;
* the global state at each round boundary is therefore well defined.

The scheduler iterates actors in sorted-key order for determinism, but
because actors cannot read each other's state the iteration order is
unobservable to a correct protocol (a property the test suite checks).

Rounds are atomic
-----------------

The configuration changes only at round boundaries: joins, leaves,
crashes, posts and time-model changes act on a configuration (paper
Section 4), never on a round in progress.  While a round runs, every
call that changes the scheduler — :meth:`~SynchronousScheduler.add_actor`,
``remove_actor``, ``post``/``post_batch``, ``mark_dirty``,
``set_drop_filter``, ``set_delivery_model``, ``set_daemon`` — raises
``RuntimeError`` naming itself, in every loop; however the round
ends, the next boundary takes changes again.  So every inbox of a
round is fixed before any step runs, and each loop hands the round's
steps to one stepper (:meth:`~SynchronousScheduler.set_batch_stepper`).

Activity tracking (the tracked loop)
------------------------------------

``SynchronousScheduler`` itself runs the spec loop: ``activity_tracking``
is ``False`` and every (awake) actor steps every round.  The columnar
kernel (:class:`~repro.netsim.columnar.ColumnarScheduler`) sets it and
exploits the locality of self-stabilization (paper Theorems 4.1/4.2:
post-churn recovery only touches a neighborhood): instead of stepping
every actor every round, it maintains a **dirty set** and only executes
actors that can possibly behave differently from their last executed
step.  Its dense and non-unit rounds run the inherited tracked loop
described here.  An actor is dirty when

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
the same loop's work list — only awake actors step, and all of them
execute — and the round conservatively marks every actor dirty and
reports ``True``.

The time model (latency + activation daemons)
---------------------------------------------

The scheduler's notion of time is pluggable
(:mod:`repro.netsim.timemodel`): a :class:`DeliveryModel` assigns every
send a delivery delay in rounds and an :class:`ActivationDaemon` picks
the active set when ``run_round`` is called without an explicit one.
Delays beyond one round park the envelope in a **delivery-round-keyed
queue** (``_future``); it matures — drop filter applied, inbox appended
— at the end of the round before its consumption round.  Exactness
rules under non-unit delivery:

* **matured steady mail dirties nobody.**  ``DeliveryModel.delay`` is a
  pure function of envelope content, so a clean sender's replayed outbox
  lands in the same inboxes with the same delays every round (the
  tracked loop delivers it a sub-flow at a time, from each sub-flow's
  cached delay buckets, without asking the model again): a
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
* scheduled envelopes are part of the configuration: they enter
  :meth:`config_hash` and the network fingerprint keyed by their
  *remaining* delay;
* :attr:`changed_last_round` stays exact and O(changed): the flow flags
  are extended by a **flux horizon**.  An emission change of envelope
  ``E`` (delay ``d``) effective from round ``q`` — started, stopped, or,
  at a model switch, "the old-delay flow stops and the new-delay flow
  starts" for every cached envelope whose delay differs — keeps the flag
  raised for the boundaries of rounds ``q .. q+d-2`` (the front travels
  through remaining ``d-1 .. 1``) and for ``q+d-1`` iff ``E`` is
  deliverable when it lands (live target, not filtered: a delivery
  dropped at maturity never reaches remaining 0).  A one-shot is a start
  at ``q`` and a stop at ``q + 1``, which also flags the boundary of the
  round that consumes it.  The unit model keeps the O(active-work) fast
  path bit for bit, and takes over again once wheel, horizon and queue
  are empty (:meth:`_unit_settled`).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Set, Tuple,
)

from repro.netsim.messages import (
    HASH_MASK as _MASK,
    AppPayload,
    Envelope,
    SubFlow,
    envelope_fingerprint as _envelope_hash,
    future_fingerprint as _future_hash,
    group_by_target as _group_by_target,
    receivers_referencing,
)
from repro.netsim.timemodel import DeliveryModel, TimeModel, make_daemon, make_delivery_model
from time import perf_counter as _perf


#: envelope intern-cache ceiling per scheduler; on overflow the cache is
#: simply cleared (it is a pure performance cache — correctness never
#: depends on interning, only outbox-compare speed does)
_ENV_CACHE_MAX = 4_000_000


def _inside_step(call: str) -> RuntimeError:
    """The error of a scheduler change attempted while a round runs."""
    return RuntimeError(
        f"{call}() called from inside a step: rounds are atomic, the "
        "scheduler changes only between rounds"
    )


class Actor(Protocol):
    """Protocol for scheduler participants.

    ``step`` is invoked once per round with the actor's fresh inbox and a
    :class:`RoundContext` used to emit messages.

    Actors may additionally implement the optional activity-tracking
    probes ``state_version() -> int`` (cheap monotonic possibly-changed
    counter), ``state_token() -> Hashable`` (exact canonical state,
    queried only when the version moved) and ``replay_step() -> None``
    (re-apply cached side effects of the last executed step).  Actors
    without the probes are treated as always-dirty and never replayed.
    An actor that also implements ``handle_app(mail, ctx)`` is replayed
    and runs just that — not ``step`` — on rounds where it is clean but
    holds application mail (its lane step); one without the hook
    executes on such rounds.
    """

    def step(self, inbox: Sequence[Envelope], ctx: "RoundContext") -> None:
        """Execute one synchronous round."""
        ...  # pragma: no cover - protocol declaration


class RoundContext:
    """Per-actor view of the current round, used to send messages."""

    __slots__ = ("round_no", "self_key", "_outbox", "_once", "_scheduler")

    def __init__(self, round_no: int, self_key: Hashable, scheduler: "SynchronousScheduler") -> None:
        self.round_no = round_no
        self.self_key = self_key
        self._outbox: List[Envelope] = []
        #: one-shot sends of this step (see :meth:`send_once`)
        self._once: List[Envelope] = []
        self._scheduler = scheduler

    def send(self, target: Hashable, payload: Any) -> None:
        """Queue a message for delivery at the end of this round.

        Envelopes are interned per scheduler: a steady flow re-emits the
        same ``(sender, target, payload)`` value every round, and handing
        back the *same object* lets the round-boundary outbox comparisons
        (steady-emission caches, columnar flow diffs) short-circuit on
        identity instead of deep-comparing payloads, and lets the
        memoized envelope fingerprint survive across rounds.  Unhashable
        payloads (generic unit-test actors) skip the cache.
        """
        try:
            env = self._scheduler._env_cache.get((self.self_key, target, payload))
        except TypeError:
            env = Envelope(self.self_key, target, payload)
        else:
            if env is None:
                cache = self._scheduler._env_cache
                if len(cache) >= _ENV_CACHE_MAX:
                    cache.clear()  # plain perf cache: dropping it only costs speed
                env = cache[(self.self_key, target, payload)] = Envelope(
                    self.self_key, target, payload
                )
        self._outbox.append(env)

    def actor_exists(self, key: Hashable) -> bool:
        """Liveness oracle: whether ``key`` is currently registered.

        Models the connection-layer knowledge that a remote endpoint is
        gone (failed keep-alive); protocols use it to purge dead references
        (DESIGN.md [D7]).  It reveals no topology information.
        """
        return self._scheduler.has_actor(key)

    def send_once(self, target: Hashable, payload: AppPayload) -> None:
        """Queue a *one-shot* application message for this round's delivery.

        The path application handlers emit through (the traffic plane's
        forwarded requests and replies): delivered, drop-filtered,
        delayed, fingerprinted and counted exactly like a :meth:`send`
        from this actor issued right after its steady emissions, but
        never part of the steady-emission cache — a step that sends
        one-shots stays a valid replay template, because a replay
        re-sends only the steady outbox.  The envelope is not interned:
        a one-shot is never re-emitted, so a cache entry could never
        hit.
        """
        self._once.append(Envelope(self.self_key, target, payload))


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


class SynchronousScheduler:
    """Drives a set of actors through synchronous rounds."""

    #: whether the dirty-set/replay engine drives rounds: the spec loop
    #: here, the tracked loop in the columnar kernel
    activity_tracking = False

    def __init__(self, time_model: Optional[TimeModel] = None) -> None:
        self._actors: Dict[Hashable, Actor] = {}
        self._inboxes: Dict[Hashable, List[Envelope]] = {}
        self._round = 0
        #: (sender, target, payload) -> interned Envelope (see RoundContext.send)
        self._env_cache: Dict[tuple, Envelope] = {}
        #: optional TelemetryRecorder (None = disabled, the default);
        #: every instrumented path is guarded by one ``is None`` check
        #: per round, and nothing it records ever gates behavior
        self._telemetry = None
        #: the pluggable notion of time (delivery latency + activation)
        self.time_model = time_model if time_model is not None else TimeModel.unit()
        self._delivery = self.time_model.delivery
        self._daemon = self.time_model.daemon
        #: delivery-round-keyed queue of delayed sends: consumption
        #: round -> envelopes, drained at the end of the preceding round
        self._future: Dict[int, List[Envelope]] = {}
        #: the wake wheel: round -> actors that must execute in it.  Fed
        #: when a change is made, for the round the change *arrives* in
        #: (see "The time model" above); ``_dirty`` / ``_dirty_carry``
        #: are its next-round and round-after slots, so unit delivery
        #: never touches it
        self._wake: Dict[int, Set[Hashable]] = {}
        #: the flux horizon: ``changed_last_round`` stays raised for the
        #: boundaries of all rounds <= this (change fronts in flight)
        self._flux_until = -1
        #: change fronts by landing point: consumption round -> envelopes
        #: whose emission started or stopped; the boundary before that
        #: round differs iff one of them is deliverable when it lands
        self._landing: Dict[int, List[Envelope]] = {}
        #: the delivery model the last round's sends were scheduled with,
        #: while it differs from the installed one (None otherwise)
        self._switched_from: Optional[DeliveryModel] = None
        #: the active set the last round ran with (None = full)
        self.active_last_round: Optional[frozenset] = None
        #: messages addressed to unregistered actors in the last round
        self.dropped_last_round = 0
        #: optional fault filter: ``filter(env) -> True`` silently drops
        #: the envelope at delivery time (network partitions; see
        #: :meth:`set_drop_filter`).  Applied identically by every kernel
        #: and to replayed and executed emissions alike, so the two
        #: engines stay round-for-round equivalent under faults.
        self._drop_filter: Optional[Callable[[Envelope], bool]] = None
        # ---- activity-tracking state -------------------------------------
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
        #: set while a round runs: every scheduler change is refused
        #: (rounds are atomic, see the module docstring)
        self._in_round = False
        #: whether the last full round changed the global configuration
        self.changed_last_round = True
        #: actors whose exact state token changed during the last round
        self.state_changed_keys: Set[Hashable] = set()
        #: execution/replay split of the last round (instrumentation)
        self.executed_last_round = 0
        self.replayed_last_round = 0
        #: optional batched rule pipeline (see repro.core.rules_batched):
        #: the tracked and columnar loops hand it every round
        #: (:meth:`set_batch_stepper`); None steps through SerialStepper
        self._batch_stepper = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_actor(self, key: Hashable, actor: Actor) -> None:
        """Register a new actor; it first steps next round."""
        if self._in_round:
            raise _inside_step("add_actor")
        if key in self._actors:
            raise KeyError(f"actor {key!r} already registered")
        self._actors[key] = actor
        self._inboxes[key] = []
        if self.activity_tracking:
            self._dirty.add(key)
            ver_fn = getattr(actor, "state_version", None)
            tok_fn = getattr(actor, "state_token", None)
            replay_fn = getattr(actor, "replay_step", None)
            self._probes[key] = (ver_fn, tok_fn, replay_fn)
            if ver_fn is not None and tok_fn is not None:
                # baseline the probes now so a no-op first round is
                # recognized as such (exactness of changed_last_round)
                self._ver[key] = ver_fn()
                tok = tok_fn()
                self._tok[key] = tok
                h = hash(tok) & _MASK
                self._tok_hash[key] = h
                self._state_hash = (self._state_hash + h) & _MASK
            self._out[key] = []
            self._out_by[key] = {}
            if not self._unit_settled():
                # flows already addressed to a (re-)joining id — scheduled
                # ones included — all start landing for its second step
                self._wake_at(self._round + 1, key)

    def remove_actor(self, key: Hashable) -> Actor:
        """Remove an actor; undelivered messages to it will be dropped."""
        if self._in_round:
            raise _inside_step("remove_actor")
        actor = self._actors.pop(key)
        self._inboxes.pop(key, None)
        if self.activity_tracking:
            # its steady flow vanishes: a former receiver must re-run in
            # the round its last emission is missing from the inbox — the
            # round after next under unit delivery (carry; next round is
            # defensive), ``delay`` rounds after its last send in general
            out = self._out.pop(key, [])
            self._out_by.pop(key, None)
            if out:
                self._flow_flag = True  # its contribution leaves the pending set
            settled = self._unit_settled()
            delay = (self._switched_from or self._delivery).delay
            q = self._round
            for env in out:
                if env.target == key:
                    continue
                d = 1 if settled else delay(env)
                if d == 1:
                    self._dirty.add(env.target)
                    self._dirty_carry.add(env.target)
                else:
                    self._wake_at(q + d, env.target)
                if not settled:
                    self._front(q, env, d)
            self._dirty_carry.discard(key)
            h = self._tok_hash.pop(key, None)
            if h is not None:
                self._state_hash = (self._state_hash - h) & _MASK
            self._probes.pop(key, None)
            self._ver.pop(key, None)
            self._tok.pop(key, None)
            self._dirty.discard(key)
        return actor

    def has_actor(self, key: Hashable) -> bool:
        """Whether ``key`` is registered."""
        return key in self._actors

    def actor(self, key: Hashable) -> Actor:
        """Look up an actor by key."""
        return self._actors[key]

    def actor_keys(self) -> List[Hashable]:
        """Sorted list of registered actor keys."""
        return sorted(self._actors)

    def __len__(self) -> int:
        return len(self._actors)

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

    def noted_version(self, key: Hashable) -> Optional[int]:
        """The actor's ``state_version`` at its last boundary sync.

        The network layer compares this against the live version to
        detect out-of-band state mutations between rounds.
        """
        return self._ver.get(key)

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
        ver_fn, tok_fn, _ = probes
        self._ver[key] = ver_fn()
        tok = tok_fn()
        if tok != self._tok.get(key):
            self._tok[key] = tok
            old_h = self._tok_hash.get(key, 0)
            h = hash(tok) & _MASK
            self._tok_hash[key] = h
            self._state_hash = (self._state_hash - old_h + h) & _MASK

    def set_drop_filter(self, drop: Optional[Callable[[Envelope], bool]]) -> None:
        """Install (or clear, with ``None``) a delivery-time fault filter.

        While installed, every envelope for which ``drop(env)`` is true
        is silently discarded at delivery — the model of a network
        partition: senders keep emitting, the link eats the message, and
        neither endpoint's *state* is touched.  The filter must be a
        pure function of the envelope (typically of ``env.sender`` /
        ``env.target``) and must stay constant between calls to this
        method, or the steady-emission replay's inbox-repetition
        induction breaks.

        Installing or clearing a filter is a flow event for the
        activity-tracked kernel: every actor's next inbox may differ
        from its cached baseline, so all actors are marked dirty (with
        the one-round carry, since the changed delivery lands one round
        later) and the boundary is flagged as changed.  The legacy
        full-scan kernel needs no bookkeeping — it re-executes everyone
        anyway — which keeps the two engines equivalent under faults.
        """
        if self._in_round:
            raise _inside_step("set_drop_filter")
        if drop is None and self._drop_filter is None:
            return
        self._drop_filter = drop
        if self.activity_tracking:
            for key in self._actors:
                self._dirty.add(key)
                self._dirty_carry.add(key)
            self._flow_flag = True

    def has_drop_filter(self) -> bool:
        """Whether a delivery-time fault filter is currently installed."""
        return self._drop_filter is not None

    def set_telemetry(self, recorder) -> None:
        """Attach (or detach, with ``None``) a telemetry recorder.

        Purely observational: the recorder receives per-round counter
        updates, an envelope census by payload type, and wall-clock
        phase spans.  It never influences scheduling, delivery, or the
        stability decision, so runs with and without telemetry are
        bit-for-bit identical.
        """
        self._telemetry = recorder

    def set_batch_stepper(self, stepper) -> None:
        """Install (or clear, with ``None``) the batched rule pipeline of
        the activity-tracked round loops.

        ``stepper`` provides ``run_batch(items, lane)``, ``items`` being
        a round's ``[(key, actor, parts, ctx), ...]`` in key order, where
        ``parts`` lists the envelope lists whose concatenation is the
        actor's inbox (the tracked loop passes the whole inbox as one
        part; the columnar loop passes its persistent :class:`SubFlow`
        objects and the one-shot mail around them).  ``run_batch`` must
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
        round is taken before any step runs and both tracked loops hand
        every round to ``self._batch_stepper or SerialStepper``; the
        serial stepper runs the same items one actor at a time.
        """
        self._batch_stepper = stepper

    # ------------------------------------------------------------------
    # time model (repro.netsim.timemodel)
    # ------------------------------------------------------------------
    def set_delivery_model(self, model) -> None:
        """Install a delivery model (instance, kind name, or spec dict).

        Effective for every send from the next round on; envelopes
        already scheduled keep their assigned delivery rounds.  A model
        change is a flow event for the activity-tracked kernel: per
        cached envelope whose delay differs, the old-delay flow stops
        and the new-delay flow starts, so every actor is woken for each
        round one of the two fronts can still arrive in (``bound + 1``
        rounds, the larger bound of the two models).  Installing a model
        that is observably unit (``is_unit``) over another unit model is
        a no-op, keeping the fast path and the exact change flag intact.
        The sub-flows' cached delays (:meth:`SubFlow.delay_buckets`) are
        keyed on the model object, so the switch invalidates them
        without a sweep.
        """
        if self._in_round:
            raise _inside_step("set_delivery_model")
        model = make_delivery_model(model)
        old = self._delivery
        if (model.is_unit and old.is_unit) or model.to_dict() == old.to_dict():
            return
        self._delivery = model
        self.time_model = TimeModel(model, self._daemon)
        if self.activity_tracking:
            if self._switched_from is None:
                self._switched_from = old
            for key in self._actors:
                self._dirty.add(key)
                self._dirty_carry.add(key)
            first = self._round + 2
            self._wake_everyone(first, first - 2 + max(old.delay_bound(), model.delay_bound()))
            self._flow_flag = True

    def set_daemon(self, daemon) -> None:
        """Install an activation daemon (instance, kind name, or spec
        dict); consulted by :meth:`run_round` when no explicit active
        set is passed.  Partial rounds are conservative for the
        activity-tracked kernel (every actor re-baselines), so no extra
        bookkeeping is needed here.
        """
        if self._in_round:
            raise _inside_step("set_daemon")
        self._daemon = make_daemon(daemon)
        self.time_model = TimeModel(self._delivery, self._daemon)

    def delay_bound(self) -> int:
        """The largest delay the current delivery model can assign."""
        return self._delivery.delay_bound()

    def future_pending(self) -> List[Tuple[int, Envelope]]:
        """Scheduled (not yet matured) deliveries as ``(remaining, env)``.

        ``remaining`` counts rounds until consumption relative to the
        current boundary (inbox envelopes would be 0; scheduled ones are
        >= 1).  Part of the configuration: the network fingerprint
        appends these entries, so two configurations differing only in
        message maturity compare different.
        """
        out: List[Tuple[int, Envelope]] = []
        for t in sorted(self._future):
            for env in self._future[t]:
                out.append((t - self._round, env))
        return out

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
        for t, batch in self._future.items():
            remaining = t - self._round
            pending += sum(_future_hash(env, remaining) for env in batch)
        return (self._state_hash, pending & _MASK)

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
        remaining 0: that boundary does not differ)."""
        fronts = self._landing.pop(round_no + 1, None)
        if not fronts:
            return False
        inboxes = self._inboxes
        flt = self._drop_filter
        return any(
            env.target in inboxes and not (flt is not None and flt(env)) for env in fronts
        )

    def _drain_matured(self, round_no: int) -> int:
        """Deliver envelopes scheduled for consumption in ``round_no + 1``.

        The delivery point of a delayed send: the drop filter applies
        here (a partition installed mid-flight eats the message).
        Maturing dirties nobody: a steady sub-flow lands identically
        every round, and whatever made this delivery differ from the
        receiver's replay baseline woke the receiver for exactly this
        round when it happened (the wake wheel).  Returns how many were
        dropped.
        """
        dropped = 0
        flt = self._drop_filter
        for env in self._future.pop(round_no + 1, ()):
            box = self._inboxes.get(env.target)
            if box is None or (flt is not None and flt(env)):
                dropped += 1
            else:
                box.append(env)
        return dropped

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def round_no(self) -> int:
        """Number of completed rounds."""
        return self._round

    def pending_messages(self) -> int:
        """Messages in flight: next round's inboxes plus scheduled
        (not yet matured) delayed deliveries."""
        count = sum(len(box) for box in self._inboxes.values())
        if self._future:
            count += sum(len(batch) for batch in self._future.values())
        return count

    def all_pending(self) -> List[Envelope]:
        """All messages waiting for the next round (snapshot copy).

        Needed by protocols whose stable state is a constant *flow*: the
        global fingerprint must include in-flight messages.
        """
        out: List[Envelope] = []
        for key in sorted(self._inboxes):
            out.extend(self._inboxes[key])
        return out

    def ref_receivers(self, owners: Set) -> Set[Hashable]:
        """The actors whose next-round inbox holds a message referencing
        any owner in ``owners`` — whom a liveness flip of those owners
        reaches in flight (the network's ``_wake_flow_refs``).

        O(pending); every payload must enumerate its refs.
        """
        return receivers_referencing(owners, self._inboxes)

    def post(self, envelope: Envelope) -> bool:
        """Inject a message from outside the round loop.

        Used for out-of-band events such as a departing peer's farewell
        introductions (Section 4.2).  Returns ``False`` (dropping the
        message) if the target is not registered.
        """
        if self._in_round:
            raise _inside_step("post")
        target = envelope.target
        box = self._inboxes.get(target)
        if box is None:
            return False
        app = isinstance(envelope.payload, AppPayload)
        delay = 1 if self._delivery.is_unit else self._delivery.delay(envelope)
        if delay > 1:
            # a delayed injection behaves like a send from the previous
            # round: it matures (drop filter applied there) for
            # consumption `delay` steps from the target's next step
            t = self._round + delay - 1
            self._future.setdefault(t, []).append(envelope)
            if self.activity_tracking:
                # a one-shot — unless it is application mail (the rules
                # never see that), the target also executes the round
                # after consuming it, when it is missing again
                self._one_shot(t - delay, envelope, delay)
                if not app:
                    self._wake_at(t + 1, target)
            return True
        if self._drop_filter is not None and self._drop_filter(envelope):
            return False
        box.append(envelope)
        if self.activity_tracking:
            if app:
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

    def post_batch(self, envelopes: Sequence[Envelope]) -> List[bool]:
        """Bulk :meth:`post`: inject a round's worth of messages.

        Exactly ``[self.post(env) for env in envelopes]`` — same
        per-envelope accept/reject results, same dirty-set and flow
        bookkeeping — so batched traffic injection cannot be
        distinguished from the one-at-a-time loop by any kernel, and a
        kernel that overrides :meth:`post` covers batches too.
        """
        if self._in_round:
            raise _inside_step("post_batch")
        return [self.post(env) for env in envelopes]

    def run_round(self, active: Optional[set] = None) -> None:
        """Execute one synchronous round.

        ``active`` restricts which actors step this round (fair partial
        activation — the standard bridge from the synchronous model
        toward asynchrony: a sleeping actor keeps its state and inbox
        untouched).  ``None`` consults the activation daemon of the
        time model, which defaults to everyone — the paper's model.
        """
        # the guard's window: however the round ends, the next boundary
        # accepts changes again
        self._in_round = True
        try:
            self._run_round(active)
        finally:
            self._in_round = False

    def _run_round(self, active: Optional[set]) -> None:
        """Dispatch one round to the spec loop or the tracked loop."""
        if active is None and not self._daemon.is_full:
            active = self._daemon.select(self._round, sorted(self._actors))
        self.active_last_round = frozenset(active) if active is not None else None
        if self.activity_tracking:
            self._run_round_tracked(self.active_last_round)
        else:
            self._run_round_full(active)

    # -- the spec loop (activity_tracking off) -------------------------
    def _run_round_full(self, active: Optional[set]) -> None:
        """The executable spec: every (active) actor steps, one by one in
        key order, through its own ``step`` — never a batch stepper."""
        round_no = self._round
        _t0 = _perf() if self._telemetry is not None else 0.0
        # an actor's one-shot sends are delivered right after its steady
        # emissions — the inbox order every other kernel reproduces
        outboxes: List[List[Envelope]] = []
        executed = 0
        actors, inboxes = self._actors, self._inboxes
        for key in sorted(actors):
            if active is not None and key not in active:
                continue
            inbox = inboxes[key]
            inboxes[key] = []
            ctx = RoundContext(round_no, key, self)
            actors[key].step(inbox, ctx)
            executed += 1
            outboxes.append(ctx._outbox)
            if ctx._once:
                outboxes.append(ctx._once)
        # the full-scan kernel executes every stepped actor
        self._deliver_round(round_no, outboxes, executed, 0, _t0)
        self._round += 1

    def _deliver_round(
        self,
        round_no: int,
        outboxes: List[List[Envelope]],
        executed: int,
        replayed: int,
        step_t0: float,
    ) -> None:
        """The delivery point of every round loop of this kernel.

        Matured delayed sends land first, then the round's ``outboxes``
        in order: each envelope is scheduled (delay beyond one round),
        dropped (dead target or drop filter) or appended to its target's
        inbox.  Under non-unit delivery an outbox may also be a sender's
        ``target -> SubFlow`` split, delivered a sub-flow at a time from
        its cached delay buckets: per-target order is that of the flat
        outbox, and only the drop filter and dead targets look at single
        envelopes.  Closes the ``kernel.step`` span opened at
        ``step_t0`` and records the round with the telemetry plane
        (envelope census by payload type included).
        """
        tel = self._telemetry
        if tel is not None:
            tel.add_time("kernel.step", _perf() - step_t0, executed + replayed)
            step_t0 = _perf()
        sent = 0
        dropped = self._drain_matured(round_no)
        inboxes = self._inboxes
        flt = self._drop_filter
        delivery = self._delivery
        unit = delivery.is_unit
        future = self._future
        for outbox in outboxes:
            if outbox.__class__ is dict:
                for target, sub in outbox.items():
                    sent += len(sub)
                    box = inboxes.get(target)
                    for d, envs in sub.delay_buckets(delivery):
                        if d > 1:
                            later = future.get(round_no + d)
                            if later is None:
                                future[round_no + d] = list(envs)
                            else:
                                later.extend(envs)
                        elif box is None:
                            dropped += len(envs)
                        elif flt is None:
                            box.extend(envs)
                        else:
                            for env in envs:
                                if flt(env):
                                    dropped += 1
                                else:
                                    box.append(env)
                continue
            for env in outbox:
                sent += 1
                if not unit:
                    d = delivery.delay(env)
                    if d > 1:
                        future.setdefault(round_no + d, []).append(env)
                        continue
                box = inboxes.get(env.target)
                if box is None or (flt is not None and flt(env)):
                    dropped += 1
                    continue
                box.append(env)
        self.dropped_last_round = dropped
        if tel is not None:
            tel.add_time("kernel.deliver", _perf() - step_t0)
            msg = tel.messages
            for outbox in outboxes:
                for sub in outbox.values() if outbox.__class__ is dict else (outbox,):
                    for env in sub:
                        msg[type(env.payload).__name__] += 1
            tel.on_round(sent=sent, dropped=dropped, executed=executed, replayed=replayed)

    def _probe_refresh(self, key: Hashable, probes: tuple) -> bool:
        """Refresh an executed actor's probe baselines after its step.

        Returns whether the exact state token changed: the cheap version
        counter says *possibly*, the token confirms, and only then do
        the version/token caches and the rolling state hash move.
        """
        version = probes[0]()
        if version != self._ver.get(key):
            self._ver[key] = version
            tok = probes[1]()
            if tok != self._tok.get(key):
                self._tok[key] = tok
                old_h = self._tok_hash.get(key, 0)
                h = hash(tok) & _MASK
                self._tok_hash[key] = h
                self._state_hash = (self._state_hash - old_h + h) & _MASK
                return True
        return False

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
        in one ``run_batch(items, lane)``.
        """
        actors, inboxes = self._actors, self._inboxes
        probes = self._probes
        items: List[tuple] = []
        lane: List[tuple] = []
        plan: List[tuple] = []
        for key in keys:
            actor = actors[key]
            app = None
            run = key in dirty
            if not run and key in mail:
                app = [env for env in inboxes[key] if isinstance(env.payload, AppPayload)]
                run = bool(app) and not hasattr(actor, "handle_app")
            if run:
                ctx = RoundContext(round_no, key, self)
                # this loop keeps whole inboxes: one uncached part
                items.append((key, actor, [inboxes[key]], ctx))
                inboxes[key] = []
            else:
                ctx = None
                if inboxes[key]:
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

    # -- the tracked loop ------------------------------------------------
    def _run_round_tracked(self, active: Optional[frozenset] = None) -> None:
        """One round of the activity-tracked kernel.

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
        # under non-unit delivery a sender contributes its sub-flows,
        # delivered from their cached delay buckets (see _deliver_round)
        by_flow = not self._delivery.is_unit
        contributions: List[Any] = []
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
            contributions.append(self._out_by[key] if by_flow else self._out[key])
            if ctx is not None and ctx._once:
                # one-shot sends go out right after the steady outbox; they
                # never enter ``_out``, so sender and target both stay valid
                # replay templates
                contributions.append(ctx._once)
                onces.append(ctx._once)

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
            else:
                self._feed_flow_changes(round_no, keys, patches, newly_dirty)
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
        self._deliver_round(round_no, contributions, executed, replayed, _t0)
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

    def _feed_flow_changes(
        self,
        q: int,
        keys: List[Hashable],
        patches: Dict[Hashable, tuple],
        newly_dirty: Set[Hashable],
    ) -> None:
        """Feed wake wheel and flux horizon with round ``q``'s emission
        changes, at its delivery point (the delivery model is final).

        A changed sub-flow wakes its target for round ``q + d`` for every
        delay ``d`` at which the old and the new sub-flow differ, and
        every envelope whose multiplicity changed is a front.  In the
        first round after a model switch every cached envelope whose
        delay differs is two fronts, whether its sender executed or not:
        the old-delay flow stops, the new-delay flow starts (the switch
        itself woke everyone for as long as either front can arrive).
        Otherwise the delays are those of the sub-flows' cached delay
        buckets, which the delivery point reuses.
        """
        model = self._delivery
        old_model = self._switched_from
        if old_model is not None:
            self._switched_from = None
            delay, old_delay = model.delay, old_model.delay
            for key in keys:
                out = self._out[key]
                patch = patches.get(key)
                self._fronts(
                    q,
                    [(env, old_delay(env)) for env in (patch[0] or () if patch else out)],
                    [(env, delay(env)) for env in out],
                )
            return
        for _prev_out, _out, changed, prev_by, new_by in patches.values():
            for target in changed:
                old = prev_by.get(target)
                new = new_by.get(target)
                old_buckets = dict(old.delay_buckets(model)) if old is not None else {}
                new_buckets = dict(new.delay_buckets(model)) if new is not None else {}
                # a target's inbox is grouped by delay (older sends land
                # first), so the sub-flow changes class by class
                for d in old_buckets.keys() | new_buckets.keys():
                    if old_buckets.get(d) == new_buckets.get(d):
                        continue
                    if d == 1:
                        newly_dirty.add(target)
                    else:
                        self._wake_at(q + d, target)
                self._fronts(
                    q,
                    [(env, d) for d, envs in old_buckets.items() for env in envs],
                    [(env, d) for d, envs in new_buckets.items() for env in envs],
                )

    def _fronts(self, q: int, stopped: List[tuple], started: List[tuple]) -> None:
        """Every ``(envelope, delay)`` whose multiplicity differs between
        the emissions of round ``q - 1`` and of round ``q`` is a front.

        A linear multiset difference: the started pairs are bucketed by
        (memoized envelope fingerprint, delay) and equality decides
        within a bucket — never ``Envelope.__hash__``, which re-hashes
        payloads deeply."""
        unmatched: Dict[tuple, List[Envelope]] = {}
        for env, d in started:
            unmatched.setdefault((_envelope_hash(env), d), []).append(env)
        for env, d in stopped:
            bucket = unmatched.get((_envelope_hash(env), d))
            if bucket and env in bucket:
                bucket.remove(env)
            else:
                self._front(q, env, d)
        for (_, d), envs in unmatched.items():
            for env in envs:
                self._front(q, env, d)

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` consecutive rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()

    def run_until(self, predicate: Callable[[], bool], max_rounds: int) -> int:
        """Run until ``predicate()`` holds at a round boundary.

        Returns the number of rounds executed.  Raises ``RuntimeError`` if
        the predicate is still false after ``max_rounds`` rounds, so that
        non-converging protocols fail loudly in tests and experiments.
        """
        if predicate():
            return 0
        for executed in range(1, max_rounds + 1):
            self.run_round()
            if predicate():
                return executed
        raise RuntimeError(f"predicate not reached within {max_rounds} rounds")
