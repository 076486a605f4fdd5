"""The traffic plane: live lookup/KV operations routed *through* the
simulated overlay, concurrent with self-stabilization.

The snapshot router (:mod:`repro.dht.lookup`) answers "could this
network route?" on a frozen view; this subsystem answers the question
the paper actually poses — the overlay self-stabilizes *while being
used*.  Operations are injected as :class:`LookupRequest` messages at
their origin peer, travel the :mod:`repro.netsim` scheduler alongside
stabilization traffic (one hop per synchronous round), and every peer
forwards them greedily using its **current** — possibly degraded —
Re-Chord view: the real-peer endpoints of its unmarked, ring and wrap
edges, exactly the per-peer slice of ``rechord_projection()``.

Kernel integration (the exactness contract the engine-equivalence suite
enforces):

* traffic payloads ride ordinary envelopes, so in-flight requests are
  part of the configuration fingerprint — no side channel;
* traffic is one-shot, not a steady flow: requests enter through
  ``post()`` and handlers emit through
  :meth:`RoundContext.send_once`, so the steady-emission cache never
  contains a traffic message and a traffic-touched step stays a valid
  replay template;
* handlers read only ``(peer state, message, store)`` — never the
  liveness oracle — and never mutate overlay state, so application
  mail does not dirty the overlay: both round loops of the dirty-set
  kernel run only :meth:`TrafficPlane.handle` for a clean receiver
  (the rule pipeline replays), and ``refs()`` of traffic payloads is
  empty;
* handler side effects (completions, store writes) happen in ascending
  peer-key order within a round on every kernel, so the collector's
  order-sensitive reservoir agrees bit for bit.

Forwarding semantics (mirrors :func:`repro.chord.routing.route_greedy`,
but with purely local termination): a peer answers a request itself when
the key lies in ``(pred, self]`` for its *believed* predecessor (its
closest-real-left pointer, falling back to the wrap pointer at the ring
seam); otherwise it forwards to the known neighbor making the most
clockwise progress without overshooting, falling back to its closest
clockwise neighbor.  Degraded views can therefore misroute (answered by
a peer that is not the true successor), loop (caught by the request's
seen-set) or dead-end — all surfaced as distinct outcomes by the
:class:`repro.traffic.slo.SLOCollector`.

The per-hop path is what a traffic campaign pays per message: a hop
reads one cached **route entry** per peer (:meth:`TrafficPlane.route_entry`
— believed predecessor, answer span and sorted view, reused while the
peer's ``state.version`` is unchanged), decides with two modular
comparisons and one bisect, and emits one envelope; replies complete
inline in :meth:`TrafficPlane.handle`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.tracing import TraceContext

from repro.idspace.keys import key_id
from repro.netsim.messages import Envelope
from repro.netsim.scheduler import RoundContext
from repro.netsim.timemodel import stable_u64
from repro.traffic.messages import (
    OP_GET,
    OP_LOOKUP,
    OP_PUT,
    ST_DEAD_END,
    ST_LOOP,
    ST_NOTFOUND,
    ST_OK,
    ST_TTL,
    LookupReply,
    LookupRequest,
)
from repro.traffic.slo import IssuedOp, SLOCollector

_tuple_new = tuple.__new__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.network import ReChordNetwork
    from repro.core.protocol import ReChordPeer
    from repro.dht.storage import KeyValueStore


def check_budget(name: str, value: Optional[int]) -> None:
    """A hop (``ttl``) or round (``deadline``) budget is >= 1 or unset:
    a zero or negative one would fail ops that are still routing."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_resilience(
    max_attempts: int, retry_backoff: int, hedge_after: Optional[int],
    route_redundancy: int,
) -> None:
    """The resilient request plane's bounds (see :class:`TrafficPlane`)."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if retry_backoff < 1:
        raise ValueError("retry_backoff must be >= 1")
    if hedge_after is not None and hedge_after < 1:
        raise ValueError("hedge_after must be >= 1 (or None)")
    if route_redundancy < 1:
        raise ValueError("route_redundancy must be >= 1")


class TrafficPlane:
    """Owns injection, per-peer forwarding, and completion accounting.

    Construction attaches the plane to the network (every current and
    future peer dispatches traffic payloads here).  ``store`` backs the
    in-band ``put``/``get`` operations with per-peer buckets
    (:meth:`KeyValueStore.local_put` / :meth:`~KeyValueStore.local_get`)
    and is required only when KV traffic is issued.

    One lookup routed hop-by-hop through a live overlay:

    >>> from repro.experiments.scaling import build_ideal_network
    >>> from repro.traffic.plane import TrafficPlane
    >>> net = build_ideal_network(16, 1)
    >>> plane = TrafficPlane(net)
    >>> op_id = plane.lookup("alice", origin=net.peer_ids[0])
    >>> rounds = plane.drain()          # run until the ledger is empty
    >>> done = plane.collector.completed[0]
    >>> done.op_id == op_id and done.outcome
    'ok'

    Attach a :class:`repro.traffic.generator.WorkloadGenerator` for a
    sustained arrival process instead of manual injection.

    The plane's :class:`SLOCollector` keeps O(1) memory per op: exact
    running aggregates, and a seeded reservoir of at most
    ``reservoir_size`` completions in ``collector.completed``.
    ``collector_mode`` exists only for callers written against the
    retired two-mode collector: ``"streaming"`` is accepted and ignored,
    any other value is a ``ValueError``.
    """

    def __init__(
        self, net: "ReChordNetwork", store: Optional["KeyValueStore"] = None,
        default_ttl: Optional[int] = None, default_deadline: int = 48,
        collector_mode: Optional[str] = None, sketch_quantiles: Optional[Sequence[float]] = None,
        reservoir_size: int = 1024, max_attempts: int = 1, retry_backoff: int = 4,
        hedge_after: Optional[int] = None, route_redundancy: int = 1, retry_seed: int = 0,
    ) -> None:
        check_resilience(max_attempts, retry_backoff, hedge_after, route_redundancy)
        check_budget("default_ttl", default_ttl)
        check_budget("default_deadline", default_deadline)
        if collector_mode not in (None, "streaming"):
            raise ValueError(
                f"collector_mode={collector_mode!r}: the SLO collector has one "
                "mode (bounded memory, exact aggregates); omit the argument"
            )
        self.net = net
        self.store = store
        self.collector = SLOCollector(
            self.true_owner,
            sketch_quantiles=sketch_quantiles,
            reservoir_size=reservoir_size,
        )
        #: optional workload generator driven by run_round()
        self.generator = None
        self.default_deadline = default_deadline
        self._default_ttl = default_ttl
        self._next_op_id = 0
        # -- resilient request plane (see "Resilience" in ARCHITECTURE) --
        #: attempts budget per op (1 = retries off, today's behavior)
        self.max_attempts = max_attempts
        #: base backoff in rounds: attempt k relaunches after a delay in
        #: [base*2^(k-1), base*2^k) with seeded jitter (stable_u64)
        self.retry_backoff = retry_backoff
        #: rounds before a still-outstanding attempt launches a hedged
        #: duplicate probe (None = hedging off)
        self.hedge_after = hedge_after
        #: r best circular successors considered per forwarding decision
        #: (1 = today's single memoized-bisect choice, bit-for-bit)
        self.route_redundancy = route_redundancy
        #: seeds the per-(op, attempt) jitter stream
        self.retry_seed = retry_seed
        self.resilience_enabled = (
            max_attempts > 1 or hedge_after is not None or route_redundancy > 1
        )
        #: opt-in schedule log for tests: set to a list to record every
        #: ("retry"|"hedge", op_id, attempt, round) decision in order
        self.attempt_log: Optional[List[Tuple[str, int, int, int]]] = None
        self._track_requests = max_attempts > 1 or hedge_after is not None
        #: untraced request template per outstanding op (relaunch source)
        self._op_request: Dict[int, LookupRequest] = {}
        # launch wheels (mirror the collector's deadline wheel shape):
        # launch_round -> [(op_id, attempt)] plus a heap of rounds
        self._retry_wheel: Dict[int, List[Tuple[int, int]]] = {}
        self._retry_rounds: List[int] = []
        self._hedge_wheel: Dict[int, List[Tuple[int, int]]] = {}
        self._hedge_rounds: List[int] = []
        #: rounds a suspicion stays in force unless re-armed: long
        #: enough to demote a dead hop for a whole retry cycle, short
        #: enough that a stale suspicion of the *responsible* successor
        #: (acquired during an outage, never refuted because no traffic
        #: lands on a demoted peer) cannot divert lookups forever after
        #: the overlay heals
        self.suspect_lease = 2 * default_deadline
        #: suspicion ledger (route_redundancy > 1 only): peer id ->
        #: lease expiry round; armed on every deadline expiry through
        #: that first hop, refuted early by any delivery at the peer,
        #: lapsing on its own otherwise (suspicion is a lease, not a
        #: verdict)
        self._suspects: Dict[int, int] = {}
        #: op_id -> first forwarding hop taken at the origin (suspicion)
        self._first_hop: Dict[int, int] = {}
        if self.resilience_enabled:
            self.collector.resilience_enabled = True
            self.collector.completion_observer = self._on_complete
            if max_attempts > 1:
                self.collector.retry_handler = self._maybe_retry
            if route_redundancy > 1:
                self.collector.timeout_observer = self._on_expiry
        #: sorted live ids cached per membership version (one completion
        #: classification per op must not pay an O(n log n) sort)
        self._live_cache: tuple = (-1, [])
        #: peer id -> its route entry (see :meth:`route_entry`), reused
        #: while the peer's ``state.version`` equals the entry's
        self._routes: Dict[int, tuple] = {}
        self._size = net.space.size
        #: the collector's flat ``op_id -> truth`` notes, written inline per
        #: answer; None with resilience on (notes keyed per probe)
        self._truth = None if self.resilience_enabled else self.collector._answer_truth
        net.attach_traffic(self)

    def detach(self) -> None:
        """Unhook from the network (outstanding ops will time out).

        An attached generator is paused too — injecting into a detached
        plane would only manufacture phantom timeouts.  A new plane can
        attach once the rounds run since have drained this one's mail.
        """
        if self.generator is not None:
            self.generator.active = False
        self.net.detach_traffic()

    # ------------------------------------------------------------------
    # oracle helpers (accounting only — never consulted by forwarding)
    # ------------------------------------------------------------------
    def live_ids(self) -> list:
        """Sorted live peer ids, cached per membership version.

        Shared by completion classification and the workload generator
        so quiescent traffic rounds never pay an O(n log n) re-sort.
        """
        version = self.net.membership_version
        if self._live_cache[0] != version:
            self._live_cache = (version, self.net.peer_ids)  # already sorted
        return self._live_cache[1]

    def true_owner(self, kid: int) -> Optional[int]:
        """The peer responsible for ``kid`` under current membership.

        Equivalent to :func:`chord_successor` (first peer at-or-after
        ``kid``, wrapping), but O(log n) per call: one bisect over the
        cached sorted id list — completions are classified once per op
        and must not pay a linear scan each.
        """
        ids = self.live_ids()
        if not ids:
            return None
        i = bisect_left(ids, kid)
        return ids[i] if i < len(ids) else ids[0]

    def ttl_for(self) -> int:
        """Default TTL: generous multiple of the O(log n) path bound.

        TTL counts *hops*, not rounds, so wire delay does not consume
        it — only the deadline (rounds) scales with the delivery model.
        """
        if self._default_ttl is not None:
            return self._default_ttl
        n = max(2, len(self.net.peers))
        return 4 * n.bit_length() + 16

    def deadline_for(self) -> int:
        """Default deadline in rounds, scaled by the wire-delay bound.

        Under unit delivery this is exactly ``default_deadline``; under
        a latency model every hop may cost up to ``delay_bound()``
        rounds on the wire, so the same hop budget needs proportionally
        more rounds before it counts as a timeout.
        """
        return self.default_deadline * max(1, self.net.scheduler.delay_bound())

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def issue(
        self, op: str, key: "str | bytes | int", origin: int, value: Any = None,
        ttl: Optional[int] = None, deadline: Optional[int] = None,
    ) -> int:
        """Inject one operation at ``origin``; returns the op id.

        ``key`` is a name (consistent-hashed) or a raw position on the
        circle.  The request is posted into the origin's own inbox — the
        op "arrives" at the peer like any other message and is forwarded
        from there, so a dead origin fails the op immediately
        (``origin_dead``) and a crashed origin later strands the reply
        (``timeout``).  ``ttl`` (hops) and ``deadline`` (rounds) override
        the plane's defaults and must be >= 1.
        """
        kid = key if isinstance(key, int) else key_id(key, self.net.space)
        return self._inject(((op, kid, origin, value),), ttl, deadline)[0]

    def issue_batch(
        self, ops: Sequence[Tuple[str, int, int, Any]],
        ttl: Optional[int] = None, deadline: Optional[int] = None,
    ) -> List[int]:
        """Bulk :meth:`issue`: one pass for a whole round of arrivals.

        ``ops`` is a sequence of ``(op, kid, origin, value)`` tuples with
        the key already resolved to a circle position (the workload
        generator pre-hashes its key universe once, so batch injection
        skips the per-op ``key_id`` digest entirely).  All ops in the
        batch share one ``ttl``/``deadline`` resolution and one
        registration/post sweep; per-op semantics — op-id assignment
        order, trace sampling, dead-origin failure, the ``ttl`` /
        ``deadline`` checks — are identical to issuing them one by one.
        Returns the op ids in batch order.
        """
        op_ids = self._inject(ops, ttl, deadline)
        tel = self.net.telemetry
        if tel is not None:
            tel.counters["traffic.batch_calls"] += 1
            tel.counters["traffic.batch_ops"] += len(ops)
        return op_ids

    def _inject(
        self, ops: Sequence[Tuple[str, int, int, Any]], ttl: Optional[int], deadline: Optional[int]
    ) -> List[int]:
        """The one injection body: validate, build each op's
        :class:`IssuedOp` and request, sample traces, post, then register
        (or fail as ``origin_dead``) and arm hedges."""
        check_budget("ttl", ttl)
        check_budget("deadline", deadline)
        if not ops:
            return []
        bad = {op for op, _, _, _ in ops} - {OP_LOOKUP, OP_GET, OP_PUT}
        if bad:
            raise ValueError(f"unknown traffic op {sorted(bad)[0]!r}")
        if self.store is None and any(op != OP_LOOKUP for op, _, _, _ in ops):
            raise RuntimeError("KV traffic needs a store: TrafficPlane(net, store=...)")
        space = self.net.space
        size = space.size
        issue_round = self.net.round_no
        span = deadline if deadline is not None else self.deadline_for()
        deadline_round = issue_round + span
        ttl_val = ttl if ttl is not None else self.ttl_for()
        tel = self.net.telemetry
        first = op_id = self._next_op_id
        issued_ops: List[IssuedOp] = []
        envelopes: List[Envelope] = []
        for op, kid, origin, value in ops:
            if kid.__class__ is not int or not 0 <= kid < size:
                space.check_id(kid)  # raises
            issued_ops.append(_tuple_new(
                IssuedOp, (op_id, op, origin, kid, issue_round, deadline_round, 1, span)
            ))
            request = _tuple_new(
                LookupRequest, (op, op_id, origin, kid, ttl_val, 0, (origin,), value, 1, False, None)
            )
            # causal tracing: sampled ops carry a TraceContext on the request
            # (outside payload equality — see messages.LookupRequest.trace)
            if tel is not None and tel.sampled(op_id):
                request = request._replace(
                    trace=TraceContext(op_id=op_id, hops=((origin, issue_round, "issue"),))
                )
            envelopes.append(Envelope(origin, origin, request))
            op_id += 1
        self._next_op_id = op_id
        posted = self.net.scheduler.post_batch(envelopes)
        if self._track_requests or not all(posted):
            registered: List[IssuedOp] = []
            for issued, env, ok in zip(issued_ops, envelopes, posted):
                if not ok:
                    self.collector.fail_unissued(issued, issue_round)
                    continue
                registered.append(issued)
                if self._track_requests:
                    # the untraced request is the relaunch template
                    self._op_request[issued.op_id] = env.payload._replace(trace=None)
                    if self.hedge_after is not None:
                        self._push_launch(self._hedge_wheel, self._hedge_rounds,
                                          issue_round + self.hedge_after, issued.op_id, 1)
            issued_ops = registered
        self.collector.register_batch(issued_ops)
        return list(range(first, op_id))

    def lookup(self, key: "str | bytes | int", origin: int, **kw: Any) -> int:
        """Inject a lookup for ``key`` at ``origin``."""
        return self.issue(OP_LOOKUP, key, origin, **kw)

    def put(self, key: "str | bytes | int", value: Any, origin: int, **kw: Any) -> int:
        """Inject an in-band put at ``origin``."""
        return self.issue(OP_PUT, key, origin, value=value, **kw)

    def get(self, key: "str | bytes | int", origin: int, **kw: Any) -> int:
        """Inject an in-band get at ``origin``."""
        return self.issue(OP_GET, key, origin, **kw)

    # ------------------------------------------------------------------
    # resilient request plane: retries, hedges, suspicion
    # ------------------------------------------------------------------
    @staticmethod
    def _push_launch(
        wheel: Dict[int, List[Tuple[int, int]]], rounds: List[int], launch_round: int,
        op_id: int, attempt: int,
    ) -> None:
        bucket = wheel.get(launch_round)
        if bucket is None:
            wheel[launch_round] = [(op_id, attempt)]
            heapq.heappush(rounds, launch_round)
        else:
            bucket.append((op_id, attempt))

    def backoff_delay(self, op_id: int, attempt: int) -> int:
        """Rounds attempt ``attempt + 1`` waits after attempt ``attempt``
        failed: exponential base with seeded jitter.

        The delay lies in ``[base * 2^(attempt-1), base * 2^attempt)``;
        the jitter is drawn from the :func:`stable_u64` stream keyed on
        ``(retry_seed, op_id, attempt)``, so identical seeds reproduce
        identical schedules bit-for-bit on every platform, yet no two
        ops thunder in lockstep.
        """
        base = self.retry_backoff * (1 << (attempt - 1))
        return base + stable_u64("retry", self.retry_seed, op_id, attempt) % base

    def _maybe_retry(self, issued: IssuedOp, round_no: int) -> Optional[IssuedOp]:
        """Collector retry hook: re-register a failed op or decline.

        Called on deadline expiry and on current-attempt failure
        replies.  Returns the replacement :class:`IssuedOp` (fresh
        deadline measured from the relaunch round) or None when the
        attempts budget is spent.
        """
        if issued.attempt >= self.max_attempts:
            return None
        nxt = issued.attempt + 1
        launch = round_no + self.backoff_delay(issued.op_id, issued.attempt)
        span = issued.deadline_span if issued.deadline_span > 0 else self.deadline_for()
        self._push_launch(self._retry_wheel, self._retry_rounds, launch, issued.op_id, nxt)
        self.collector.retries += 1
        if self.attempt_log is not None:
            self.attempt_log.append(("retry", issued.op_id, nxt, launch))
        return issued._replace(attempt=nxt, deadline=launch + span)

    def launches_due(self) -> bool:
        """Whether the next :meth:`run_round` has retry/hedge relaunches
        to consider before it executes the round (a due entry may still
        turn out stale and post nothing)."""
        round_no = self.net.round_no
        return any(
            rounds and rounds[0] <= round_no
            for rounds in (self._retry_rounds, self._hedge_rounds)
        )

    def _launch_due(self) -> None:
        """Post every retry/hedge probe whose launch round has arrived.

        Runs at the top of each traffic round, before generator
        injections (older ops relaunch ahead of new arrivals).  Stale
        launches — the op completed or was superseded during its backoff
        — are skipped by checking the ledger's current attempt.
        """
        round_no = self.net.round_no
        if self._suspects:
            # lapse suspicion leases that were never re-armed: only live
            # timeout evidence keeps a hop demoted
            for pid in [p for p, exp in self._suspects.items() if exp <= round_no]:
                del self._suspects[pid]
        for op_id, attempt, template in self._due(self._retry_wheel, self._retry_rounds):
            probe = template._replace(attempt=attempt)
            if self.net.scheduler.post(Envelope(probe.origin, probe.origin, probe)):
                if self.hedge_after is not None:
                    self._push_launch(self._hedge_wheel, self._hedge_rounds,
                                      round_no + self.hedge_after, op_id, attempt)
            else:
                # the origin no longer exists: no probe can ever be
                # answered (replies address the origin), so spending
                # the remaining attempts would only defer the truth
                self.collector.force_timeout(op_id, round_no)
        for op_id, attempt, template in self._due(self._hedge_wheel, self._hedge_rounds):
            probe = template._replace(attempt=attempt, hedge=True)
            if self.net.scheduler.post(Envelope(probe.origin, probe.origin, probe)):
                self.collector.hedges_issued += 1
                if self.attempt_log is not None:
                    self.attempt_log.append(("hedge", op_id, attempt, round_no))

    def _due(self, wheel: Dict[int, List[Tuple[int, int]]], rounds: List[int]) -> Iterator:
        """``(op_id, attempt, template)`` of each launch on ``wheel`` due
        by this round whose attempt is still the op's current one — an
        op completed or superseded meanwhile (a retry during a hedge's
        delay, an answer during a backoff) is skipped."""
        round_no = self.net.round_no
        outstanding = self.collector.outstanding
        while rounds and rounds[0] <= round_no:
            for op_id, attempt in wheel.pop(heapq.heappop(rounds), ()):
                issued = outstanding.get(op_id)
                if issued is None or issued.attempt != attempt:
                    continue
                template = self._op_request.get(op_id)
                if template is not None:  # a tracked op always has one
                    yield op_id, attempt, template

    def _on_expiry(self, issued: IssuedOp, round_no: int) -> None:
        """Timeout observer: suspect the first hop the op routed through
        (a lease, re-armed by every further expiry through the hop)."""
        hop = self._first_hop.get(issued.op_id)
        if hop is not None:
            self._suspects[hop] = round_no + self.suspect_lease

    def _on_complete(self, record) -> None:
        """Completion observer: release per-op state, refute suspicion."""
        self._op_request.pop(record.op_id, None)
        hop = self._first_hop.pop(record.op_id, None)
        if hop is not None and record.routed:
            # a delivered answer through this hop is positive evidence
            self._suspects.pop(hop, None)

    # ------------------------------------------------------------------
    # per-peer handler (called from ReChordPeer.step)
    # ------------------------------------------------------------------
    def handle(self, peer: "ReChordPeer", payloads: Sequence[Any], ctx: RoundContext) -> None:
        """Process the traffic payloads delivered to one peer this round.

        The per-hop path: a reply completes at once; a request reads the
        peer's cached route entry (:meth:`route_entry`) and is answered
        here, failed in-band or forwarded with one :meth:`send_once`.
        """
        state = peer.state
        me = state.peer_id
        if self._suspects:
            # any delivery the peer processes refutes its suspicion: a
            # black-holed peer never consumes traffic, a slow one does
            self._suspects.pop(me, None)
        route = None
        size = self._size
        send = ctx.send_once
        redundant = self.route_redundancy > 1
        for req in payloads:
            cls = req.__class__
            if cls is LookupReply:
                if req.origin != me:  # pragma: no cover - misrouted
                    raise LookupError(f"reply for {req.origin} delivered to {me}")
                self.collector.on_reply(req, ctx.round_no)
                continue
            if cls is not LookupRequest:  # pragma: no cover - protocol violation
                raise TypeError(f"unknown traffic payload {req!r}")
            if route is None:
                # the overlay state cannot change mid-step after the
                # rules ran: one route entry serves every request
                route = self._routes.get(me)
                if route is None or route[0] != state.version:
                    route = self._new_route(state)
                _, pred, span, view = route
            op, op_id, origin, kid, ttl, hops, path, value, attempt, hedge, trace = req
            # answer here iff kid lies in (pred, me]: the span turns
            # IdSpace.between_open_closed into one modular comparison
            if (kid - pred - 1) % size < span:
                self._terminal(me, req, ctx)
                continue
            if not view:
                self._reply(req, ST_DEAD_END, me, ctx)
                continue
            # the best-progress neighbor (argmin of distance_cw(cand, kid)
            # over the arc (me, kid]) is kid's circular predecessor in the
            # sorted view if that lies in the arc at all — walking ccw
            # from kid, every id met before leaving the arc is inside it.
            # kid != me (me is in its own answer span) and best != me
            # (never in view), so the arc test compares two offsets
            best = view[bisect_right(view, kid) - 1]  # view[-1] wraps
            rule = "greedy"
            if (best - me) % size > (kid - me) % size:
                # the key lies between us and every known neighbor: hand it
                # to the believed successor, the first view entry after me
                best = view[bisect_right(view, me) % len(view)]
                rule = "fallback"
            if redundant:
                best = self._redundant_choice(me, req, view, rule, self.net.space)
                if best is None:
                    # every redundant candidate already held the request
                    self._reply(req, ST_LOOP, me, ctx)
                    continue
            elif best in path:
                self._reply(req, ST_LOOP, me, ctx)
                continue
            if hops >= ttl:
                self._reply(req, ST_TTL, me, ctx)
                continue
            if redundant and hops == 0 and me == origin:
                # remember the first hop each attempt routes through so
                # a later expiry can suspect it (and a delivery refute it)
                self._first_hop[op_id] = best
            if trace is not None:
                # a traced request records the forwarding decision this
                # hop took (the trace rides outside payload equality)
                trace = trace.extended(me, ctx.round_no, rule)
            # the request forwarded to best: the hop stamped, the path moved on
            send(best, _tuple_new(LookupRequest, (
                op, op_id, origin, kid, ttl, hops + 1, path + (best,), value, attempt, hedge, trace,
            )))

    def _redundant_choice(
        self, me: int, req: LookupRequest, view: Sequence[int], rule: str, space
    ) -> Optional[int]:
        """Pick among the r best candidates, demoting suspected hops.

        Candidate order is best-progress first: under the greedy rule
        the r circular predecessors of ``kid`` that still lie in the
        progress arc ``(me, kid]``; under the seam fallback the r
        closest clockwise neighbors (the believed successor chain).
        Candidates already on the request path are skipped (the same
        loop discipline as the r=1 plane), then the best *unsuspected*
        candidate wins; if every fresh candidate is suspected, the best
        one is used anyway — last resort beats black-holing.  With an
        empty suspicion ledger and a path-free primary candidate this
        returns exactly the r=1 decision.
        """
        n = len(view)
        cands: List[int] = []
        if rule == "greedy":
            i = bisect_right(view, req.kid) - 1
            for j in range(min(self.route_redundancy, n)):
                cand = view[(i - j) % n]
                if not space.between_open_closed(me, cand, req.kid):
                    break  # walking ccw from kid left the progress arc
                cands.append(cand)
        else:
            i = bisect_right(view, me)
            for j in range(min(self.route_redundancy, n)):
                cands.append(view[(i + j) % n])
        fresh = [c for c in cands if c not in req.path]
        if not fresh:
            return None
        for cand in fresh:
            if cand not in self._suspects:
                return cand
        return fresh[0]

    def _terminal(self, me: int, req: LookupRequest, ctx: RoundContext) -> None:
        """Execute the operation at the self-believed responsible peer."""
        op, op_id, _, kid, _, _, _, value, attempt, hedge, _ = req
        # classification accounting (external to the simulation — not
        # part of the message, so handler emissions stay a pure function
        # of peer state + payload): sample who is really responsible NOW,
        # while the answer is produced; churn during the reply's transit
        # round must not reclassify a correct answer as a misroute.  The
        # truth is true_owner(kid), one bisect over the cached live ids
        ids = self.live_ids()
        i = bisect_left(ids, kid)
        truth = ids[i] if i < len(ids) else ids[0]  # the answering peer is live
        if self._truth is not None:
            self._truth[op_id] = truth
        else:
            self.collector.note_answer_truth(op_id, truth, attempt, hedge)
        status = ST_OK
        if op == OP_LOOKUP:
            value = None
        elif self.store is None:  # pragma: no cover - guarded at issue
            raise RuntimeError(f"{op} arrived with no store attached")
        elif op == OP_PUT:
            self.store.local_put(me, kid, value)
            value = None
        else:
            found, value = self.store.local_get(me, kid)
            if not found:
                status = ST_NOTFOUND
        self._reply(req, status, me, ctx, value)

    def _reply(
        self, req: LookupRequest, status: str, owner: int, ctx: RoundContext, value: Any = None
    ) -> None:
        op, op_id, origin, kid, _, hops, _, _, attempt, hedge, trace = req
        if trace is not None:
            # the terminal hop closes the causal trace with its status
            trace = trace.extended(owner, ctx.round_no, status)
        reply = _tuple_new(LookupReply, (
            op, op_id, origin, kid, status, owner, hops, value, attempt, hedge, trace,
        ))
        if origin == owner:
            # terminated at the origin itself: complete without a message
            self.collector.on_reply(reply, ctx.round_no)
        else:
            ctx.send_once(origin, reply)

    def _new_route(self, state) -> tuple:
        """Derive and cache the peer's :meth:`route_entry`; the cache is
        pruned of departed peers when it outgrows the live set."""
        routes = self._routes
        if len(routes) >= 2 * len(self.net.peers) + 64:
            live = self.net.peers
            for pid in [p for p in routes if p not in live]:
                del routes[pid]
        route = routes[state.peer_id] = self.route_entry(state)
        return route

    @staticmethod
    def route_entry(state) -> tuple:
        """``(version, pred, span, view)``: all a hop reads of the peer's
        state.  ``pred`` is the believed predecessor (the closest real
        neighbor to the left, the wrap pointer at the ring seam [D6]) and
        the peer answers ``kid`` iff ``(kid - pred - 1) % size < span``
        (no predecessor: ``pred`` is the peer, ``span`` the circle);
        ``view`` is the sorted real-peer endpoints of its unmarked, ring
        and wrap edges (its slice of ``rechord_projection()``).  A cached
        entry is reused while ``state.version`` equals the entry's: every
        effective mutation bumps the version (the ``PeerState`` contract).
        """
        me = state.peer_id
        size = state.space.size
        node0 = state.nodes[0]
        pred = node0.rl if node0.rl is not None else node0.wrap_rl
        if pred is None or pred.owner == me:
            p, span = me, size  # answer here
        else:
            p = pred.owner
            span = (me - p) % size
        view = {
            ref.owner
            for node in state.nodes.values()
            for refs in (node.nu, node.nr, node.wrap_refs())
            for ref in refs
            if ref.level == 0  # ref.is_real
        }
        view.discard(me)
        return (state.version, p, span, sorted(view))

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """One round of the traffic-carrying network.

        Launches due retry/hedge probes (resilient plane only), injects
        the generator's arrivals for this round (if a generator is
        attached), executes one synchronous round, then sweeps deadline
        expirations.
        """
        if self.resilience_enabled:
            self._launch_due()
        if self.generator is not None:
            self.generator.inject()
        self.net.run_round()
        self.collector.expire(self.net.round_no)

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` traffic-carrying rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()

    def drain(self, max_rounds: int = 512) -> int:
        """Run without new injections until no op is outstanding.

        Pending retry/hedge relaunches still fire (an op in backoff is
        outstanding work, not a new injection).  Deadlines bound this
        loop; raises a diagnostic error listing the stuck ops if any are
        still outstanding after ``max_rounds`` (a stuck ledger is a bug,
        not a timeout).
        """
        executed = 0
        while self.collector.outstanding:
            if executed >= max_rounds:
                raise RuntimeError(self._drain_diagnostic(executed))
            if self.resilience_enabled:
                self._launch_due()
            self.net.run_round()
            self.collector.expire(self.net.round_no)
            executed += 1
        return executed

    def _drain_diagnostic(self, executed: int, limit: int = 16) -> str:
        """Describe the stuck ledger: op ids, statuses, deadlines.

        A drain that exhausts its round budget used to die with a bare
        count; debugging one meant re-running under a debugger.  The
        diagnostic lists each stuck op's identity, current attempt, and
        whether it is awaiting a reply (with its deadline round) or
        sitting in a retry backoff (with its relaunch round).
        """
        outstanding = self.collector.outstanding
        relaunch: Dict[int, int] = {}
        for wheel in (self._retry_wheel, self._hedge_wheel):
            for launch_round, entries in wheel.items():
                for op_id, _attempt in entries:
                    if op_id in outstanding:
                        prior = relaunch.get(op_id)
                        if prior is None or launch_round < prior:
                            relaunch[op_id] = launch_round
        lines = []
        for op_id in sorted(outstanding)[:limit]:
            issued = outstanding[op_id]
            if op_id in relaunch:
                status = (
                    f"in backoff, relaunch at r{relaunch[op_id]}, "
                    f"deadline r{issued.deadline}"
                )
            else:
                status = f"awaiting reply, deadline r{issued.deadline}"
            lines.append(
                f"op {op_id} ({issued.op} kid={issued.kid} origin={issued.origin} "
                f"attempt={issued.attempt}, issued r{issued.issue_round}): {status}"
            )
        extra = len(outstanding) - min(len(outstanding), limit)
        tail = f" (+{extra} more)" if extra else ""
        return (
            f"{len(outstanding)} ops still outstanding after {executed} rounds "
            f"(now r{self.net.round_no}):\n  " + "\n  ".join(lines) + tail
        )
