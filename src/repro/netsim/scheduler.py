"""The synchronous round scheduler: the executable spec.

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
``remove_actor``, ``post``/``post_batch``, ``set_drop_filter``,
``set_delivery_model``, ``set_daemon``, and the columnar kernel's own
tracking calls — raises ``RuntimeError`` naming itself, in either kernel;
however the round ends, the next boundary takes changes again.
So every inbox of a round is fixed before any step runs.

This class runs only the spec loop: every (awake) actor steps every
round through its own ``step``.  The fast kernel — dirty sets,
steady-emission replay, the application lane, exactness under latency —
is :class:`~repro.netsim.columnar.ColumnarScheduler`, checked round for
round against this loop.

The time model (latency + activation daemons)
---------------------------------------------

The scheduler's notion of time is pluggable
(:mod:`repro.netsim.timemodel`): a :class:`DeliveryModel` assigns every
send a delivery delay in rounds and an :class:`ActivationDaemon` picks
the active set when ``run_round`` is called without an explicit one.
Delays beyond one round park the envelope in a **delivery-round-keyed
queue** (``_future``) of ``(target, envelopes)`` parts, each part
addressed to one target (the columnar kernel queues only one-shots
there, each with its inbox slot, and derives its steady pieces in flight
from its columns); it matures — drop filter applied, inbox appended — at
the end of the round before its consumption round.  Scheduled
envelopes are part of the configuration: the network fingerprint
appends them keyed by their *remaining* delay (:meth:`future_pending`).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Set, Tuple,
)

from repro.netsim.messages import AppPayload, Envelope
from repro.netsim.timemodel import TimeModel, make_daemon, make_delivery_model
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


def _steady(sender: Hashable, target: Hashable, payload: Any) -> Envelope:
    """A new steady envelope; application mail is refused (the lane
    contract: it is one-shot, see :class:`AppPayload`)."""
    assert not isinstance(payload, AppPayload), (
        "application mail sent with send(): AppPayloads travel by "
        "post() / send_once(), never send() (the lane contract)"
    )
    return Envelope(sender, target, payload)


class Actor(Protocol):
    """Protocol for scheduler participants.

    ``step`` is invoked once per round with the actor's fresh inbox and a
    :class:`RoundContext` used to emit messages.

    Actors may additionally implement the optional activity-tracking
    probes of the columnar kernel (:mod:`repro.netsim.columnar`):
    ``state_version() -> int`` (cheap monotonic possibly-changed
    counter), ``state_token() -> Hashable`` (exact canonical state,
    queried only when the version moved), ``replay_step() -> None``
    (re-apply cached side effects of the last executed step) and
    ``handle_app(mail, ctx)`` (its lane step).  The spec loop ignores
    them.
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
        payloads (generic unit-test actors) skip the cache.  A new
        envelope holding application mail fails the lane contract.
        """
        try:
            env = self._scheduler._env_cache.get((self.self_key, target, payload))
        except TypeError:
            env = _steady(self.self_key, target, payload)
        else:
            if env is None:
                cache = self._scheduler._env_cache
                if len(cache) >= _ENV_CACHE_MAX:
                    cache.clear()  # plain perf cache: dropping it only costs speed
                env = cache[(self.self_key, target, payload)] = _steady(
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
        hit.  Only application mail is one-shot: any other payload fails
        the lane contract (the rules see it, and the kernels would land
        it at different inbox positions).
        """
        assert isinstance(payload, AppPayload), (
            "overlay mail sent with send_once(): only AppPayloads are "
            "one-shot, everything else travels by send() (the lane contract)"
        )
        self._once.append(Envelope(self.self_key, target, payload))


class SynchronousScheduler:
    """Drives a set of actors through synchronous rounds."""

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
        #: round -> ``(target, envelopes)`` parts in scheduling order,
        #: drained at the end of the preceding round
        self._future: Dict[int, List[Tuple[Hashable, Sequence[Envelope]]]] = {}
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
        #: set while a round runs: every scheduler change is refused
        #: (rounds are atomic, see the module docstring)
        self._in_round = False
        #: the columnar kernel's report of the last round (the spec loop
        #: leaves it as built): whether the last full round changed the
        #: global configuration
        self.changed_last_round = True
        #: actors whose exact state token changed during the last round
        self.state_changed_keys: Set[Hashable] = set()
        #: execution/replay split of the last round (instrumentation)
        self.executed_last_round = 0
        self.replayed_last_round = 0

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

    def remove_actor(self, key: Hashable) -> Actor:
        """Remove an actor; undelivered messages to it will be dropped."""
        if self._in_round:
            raise _inside_step("remove_actor")
        actor = self._actors.pop(key)
        self._inboxes.pop(key, None)
        return actor

    def has_actor(self, key: Hashable) -> bool:
        """Whether ``key`` is registered."""
        return key in self._actors

    # ------------------------------------------------------------------
    # faults and observation
    # ------------------------------------------------------------------
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
        """
        if self._in_round:
            raise _inside_step("set_drop_filter")
        self._drop_filter = drop

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

    # ------------------------------------------------------------------
    # time model (repro.netsim.timemodel)
    # ------------------------------------------------------------------
    def set_delivery_model(self, model) -> None:
        """Install a delivery model (instance, kind name, or spec dict).

        Effective for every send from the next round on; envelopes
        already scheduled keep their assigned delivery rounds.
        Installing a model that is observably unit (``is_unit``) over
        another unit model is a no-op.
        """
        if self._in_round:
            raise _inside_step("set_delivery_model")
        model = make_delivery_model(model)
        old = self._delivery
        if (model.is_unit and old.is_unit) or model.to_dict() == old.to_dict():
            return
        self._delivery = model
        self.time_model = TimeModel(model, self._daemon)

    def set_daemon(self, daemon) -> None:
        """Install an activation daemon (instance, kind name, or spec
        dict); consulted by :meth:`run_round` when no explicit active
        set is passed."""
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
            remaining = t - self._round
            for _target, part in self._future[t]:
                out.extend((remaining, env) for env in part)
        return out

    def _drain_matured(self, round_no: int) -> int:
        """Deliver envelopes scheduled for consumption in ``round_no + 1``.

        The delivery point of a delayed send: the drop filter applies
        here (a partition installed mid-flight eats the message).
        Returns how many were dropped.
        """
        dropped = 0
        flt = self._drop_filter
        for target, part in self._future.pop(round_no + 1, ()):
            box = self._inboxes.get(target)
            if box is None:
                dropped += len(part)
                continue
            for env in part:
                if flt is not None and flt(env):
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
        for batch in self._future.values():
            count += sum(len(part) for _target, part in batch)
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

    def post(self, envelope: Envelope) -> bool:
        """Inject a message from outside the round loop.

        Used for out-of-band events such as a departing peer's farewell
        introductions (Section 4.2).  Returns ``False`` (dropping the
        message) if the target is not registered.
        """
        if self._in_round:
            raise _inside_step("post")
        return self._inject(envelope) > 0

    def _inject(self, envelope: Envelope) -> int:
        """Deliver or schedule a posted envelope; returns its delay in
        rounds, 0 when it was dropped (unregistered target, or the drop
        filter of a next-round delivery)."""
        box = self._inboxes.get(envelope.target)
        if box is None:
            return 0
        delay = 1 if self._delivery.is_unit else self._delivery.delay(envelope)
        if delay > 1:
            # a delayed injection behaves like a send from the previous
            # round, made after every sender of it: it matures (drop
            # filter applied there) for consumption `delay` steps from
            # the target's next step
            self._park_post(envelope, delay)
        elif self._drop_filter is not None and self._drop_filter(envelope):
            return 0
        else:
            box.append(envelope)
        return delay

    def _park_post(self, envelope: Envelope, delay: int) -> None:
        """Queue a delayed post for its consumption round."""
        self._future.setdefault(self._round + delay - 1, []).append(
            (envelope.target, (envelope,))
        )

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
            if active is None and self._daemon.window != 1:
                active = self._daemon.select(self._round, sorted(self._actors))
            self.active_last_round = frozenset(active) if active is not None else None
            self._run_round(self.active_last_round)
        finally:
            self._in_round = False

    def _run_round(self, active: Optional[frozenset]) -> None:
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
        """The delivery point of the spec loop.

        Matured delayed sends land first, then the round's ``outboxes``
        in order: each envelope is scheduled (delay beyond one round),
        dropped (dead target or drop filter) or appended to its target's
        inbox.  Closes the ``kernel.step`` span opened at ``step_t0``
        and records the round with the telemetry plane (envelope census
        by payload type included).
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
            for env in outbox:
                sent += 1
                if not unit:
                    d = delivery.delay(env)
                    if d > 1:
                        future.setdefault(round_no + d, []).append((env.target, (env,)))
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
                for env in outbox:
                    msg[type(env.payload).__name__] += 1
            tel.on_round(sent=sent, dropped=dropped, executed=executed, replayed=replayed)

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` consecutive rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()
