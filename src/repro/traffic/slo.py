"""SLO accounting for the in-band traffic plane.

The collector owns the ledger of issued operations: it matches replies
to registrations, classifies outcomes, sweeps deadline expirations, and
maintains the derived service-level metrics the experiments report —
latency-in-rounds histograms, success/timeout/misroute rates, and
**monotonic-searchability violations** (Scheideler/Setzer/Strothmann):
a request for ``(origin, kid)`` failing after an earlier identical
request succeeded.  Under churn a violation can be legitimate (the
responsible peer crashed); the counter measures how often the overlay
breaks the guarantee, which is exactly what the churn experiment plots.

Outcome taxonomy (one per completed op):

* ``ok`` / ``notfound`` — the request terminated at the peer that really
  is responsible for the key (``notfound``: a get whose key had no local
  value there);
* ``misroute`` — a peer *believed* it was responsible and answered, but
  the true successor (current membership) is someone else;
* ``loop`` / ``ttl`` / ``dead_end`` — in-band routing failures stamped
  by the forwarding peer;
* ``timeout`` — no reply before the op's deadline round (includes
  messages dropped at crashed peers);
* ``origin_dead`` — the op was issued at a peer that no longer exists.

One collector, bounded memory
----------------------------

The collector never retains every record.  :meth:`SLOCollector.summary`
is computed from exact running aggregates, so a 10^6-op campaign and a
ten-op test read their metrics the same way:

* an exact count per routed latency (:attr:`SLOCollector.latency_counts`).
  Latencies are small integers, a handful of distinct values per run,
  and ``latency_p95`` is the nearest rank walked over these counts
  (:func:`nearest_rank`) — the same value :func:`percentile` gives over
  the full list;
* exact per-issue-round tallies — completed, routed, routed-latency sum
  and max — from which callers build recovery profiles and per-window
  survival (:meth:`SLOCollector.tallies_by`);
* :attr:`SLOCollector.completed`, a **seeded reservoir** (Vitter's
  algorithm R, at most ``reservoir_size`` records): every record, in
  completion order, while they fit, and a uniform sample after that.

Two ledger structures are bounded too, with explicit overflow policies:

* the succeeded-once index behind the violation counter holds at most
  ``max_tracked_searches`` distinct ``(origin, kid)`` keys; on overflow
  *new* keys are no longer admitted (existing keys keep detecting
  violations exactly) and each dropped admission is counted in
  :attr:`SLOCollector.tracked_search_overflow` — the violation counter
  can then only undercount, never overcount;
* violation *records* kept for offline analysis are capped at
  ``max_violation_records`` (first-K retained);
  :attr:`SLOCollector.violations_count` stays exact.

Deadline wheel
--------------

Deadline expiry is O(due) per sweep, not O(outstanding): registrations
are bucketed by deadline round (``deadline_round -> [op_ids]`` plus a
heap of bucket rounds), :meth:`SLOCollector.expire` pops every due
bucket, and completions unlink lazily — a bucketed op that was already
answered is simply skipped when its bucket drains.  Buckets drain in
deadline order (ties in registration order), deterministically.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.traffic.messages import (
    OUT_MISROUTE,
    OUT_ORIGIN_DEAD,
    OUT_TIMEOUT,
    ST_NOTFOUND,
    ST_OK,
    LookupReply,
    TrafficRecord,
)

#: outcomes that count as a successful search (reached the true owner)
ROUTED_OUTCOMES = (ST_OK, ST_NOTFOUND)

#: "no truth was noted for this op" (a noted truth may be None)
_UNNOTED = object()


_IssuedFields = namedtuple(
    "_IssuedFields",
    "op_id op origin kid issue_round deadline attempt deadline_span",
    defaults=(1, 0),
)


class IssuedOp(TrafficRecord, _IssuedFields):
    """Registration of one in-flight operation (a slotted named tuple,
    see :class:`~repro.traffic.messages.TrafficRecord`; every field
    takes part in equality and hash).

    ``attempt`` is the 1-based attempt currently in flight (bumped by
    the resilient plane on every retry relaunch) and ``deadline_span``
    the per-attempt deadline budget in rounds, kept so a retry can
    re-register the op with a fresh deadline measured from its own
    launch round.  Both stay at their defaults when resilience is off.
    """

    __slots__ = ()
    _compared = slice(None)


def wire_delay(latency: int, hops: Optional[int]) -> int:
    """The wire-delay component of a latency, in rounds.

    Under unit delivery a forwarded request costs exactly one round per
    hop plus one for the reply transit (a self-answered op costs zero),
    so this is 0; under a latency model every extra round a slow link
    held the message accumulates here.
    """
    return max(0, latency - (hops + 1 if hops else 0))


@dataclass(frozen=True, slots=True)
class CompletedOp:
    """Terminal record of one operation (kept for offline analysis);
    slotted, as the reservoir keeps thousands of them."""

    op_id: int
    op: str
    origin: int
    kid: int
    issue_round: int
    complete_round: int
    outcome: str
    hops: Optional[int]
    value: object = None
    #: which attempt produced the terminal verdict (1 without retries)
    attempt: int = 1
    #: True when the winning reply came from a hedged duplicate probe
    hedged: bool = False
    #: causal hop trace of a telemetry-sampled op (None otherwise);
    #: compare=False keeps record equality independent of tracing
    trace: object = field(compare=False, default=None)

    @property
    def latency(self) -> int:
        """Rounds from issue to completion (deadline span for timeouts)."""
        return self.complete_round - self.issue_round

    @property
    def routed(self) -> bool:
        """Whether the request reached the true responsible peer."""
        return self.outcome in ROUTED_OUTCOMES

    @property
    def wire_delay(self) -> int:
        """The wire-delay component of the latency (:func:`wire_delay`)."""
        return wire_delay(self.latency, self.hops)


def percentile(
    values: Sequence[float], q: float, default: Optional[float] = None
) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sample.

    ``q = 0`` selects the minimum, ``q = 100`` the maximum, and a single
    sample is returned for every ``q``.  The rank is computed as
    ``ceil(q * n / 100)`` — multiplying *before* dividing keeps the
    product integer-exact for integer ``q``, where the historical
    ``q / 100 * n`` form accumulated float error (e.g. ``0.95 * 20 =
    19.000000000000004`` rounds the rank up and over-selects) — then
    clamped into ``[1, n]`` so the edges stay in range.

    An empty sample returns ``default`` when one is given and raises
    ``ValueError`` otherwise (so callers cannot silently average air).
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        if default is not None:
            return default
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(max(math.ceil(q * n / 100), 1), n)
    return float(ordered[rank - 1])


def nearest_rank(
    counts: Mapping[int, int], q: float, default: Optional[float] = None
) -> float:
    """:func:`percentile` of the sample holding ``counts[v]`` copies of
    each value ``v``, walked over the distinct values in ascending order
    — same rank rule, same edges, same empty-sample contract."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    n = sum(counts.values())
    if not n:
        if default is not None:
            return default
        raise ValueError("no values")
    rank = min(max(math.ceil(q * n / 100), 1), n)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    raise AssertionError("unreachable: the ranks sum to n")


def check_quantiles(quantiles: Sequence[float]) -> None:
    """Reject any extra latency quantile outside (0, 1)."""
    for q in quantiles:
        if not 0 < q < 1:
            raise ValueError(f"quantile must be in (0, 1), got {q}")


def latency_histogram(
    counts: Mapping[int, int],
    bounds: Optional[Sequence[int]] = None,
) -> List[Tuple[str, int]]:
    """Bucketed latency counts, ``bounds`` are inclusive upper edges.

    ``counts`` maps a latency to how often it occurred (the collector's
    :attr:`SLOCollector.latency_counts`, or a ``Counter`` of a sample).
    Defaults to power-of-two edges up to 256 rounds plus an overflow
    bucket, the shape used by every traffic report in this repo.  Each
    value is placed with one ``bisect_left`` over the edges, preserving
    the inclusive-upper-edge semantics: a value *equal* to an edge lands
    in that edge's bucket (``bisect_left`` returns the edge's own index
    for an exact hit, because the first edge >= v is the bucket for v).
    """
    if bounds is None:
        bounds = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    if not bounds:
        # a defined value instead of the historical IndexError on the
        # overflow label: everything lands in one catch-all bucket
        return [("all", sum(counts.values()))]
    buckets = [0] * (len(bounds) + 1)
    edges = list(bounds)
    for v, count in counts.items():
        buckets[bisect_left(edges, v)] += count
    labels = [f"<={edge}" for edge in bounds] + [f">{bounds[-1]}"]
    return list(zip(labels, buckets))


class SLOCollector:
    """Ledger + metrics for the traffic plane.

    ``true_owner`` maps a key id to the currently responsible peer (the
    plane supplies ``chord_successor`` over live membership); it is
    consulted once per completion, so classification always reflects the
    membership at completion time.

    Memory per completed op is O(1) (see the module docstring): every
    :meth:`summary` key comes from exact running aggregates, and
    :attr:`completed` is a seeded reservoir of at most
    ``reservoir_size`` records (all of them, in completion order, while
    they fit).

    Standalone (no network), the ledger mechanics look like this:

    >>> from repro.traffic.slo import IssuedOp, SLOCollector
    >>> coll = SLOCollector(lambda kid: 42)
    >>> coll.register_batch((IssuedOp(op_id=0, op="lookup", origin=7, kid=9,
    ...                                issue_round=0, deadline=8),))
    >>> coll.expire(round_no=10)        # past the deadline: timed out
    1
    >>> coll.summary()["outcomes"]
    {'timeout': 1}
    """

    def __init__(
        self, true_owner: Callable[[int], Optional[int]],
        sketch_quantiles: Optional[Sequence[float]] = None, reservoir_size: int = 1024,
        reservoir_seed: int = 2011, max_tracked_searches: int = 1 << 20,
        max_violation_records: int = 4096,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self._true_owner = true_owner
        #: opt-in extra latency quantiles in (0, 1), each the exact
        #: nearest rank over ``latency_counts``; ``summary()`` keys are
        #: unchanged by default — these land under separate
        #: ``latency_p*_sketch`` keys
        self.sketch_quantiles: Tuple[float, ...] = tuple(sketch_quantiles or ())
        check_quantiles(self.sketch_quantiles)
        self._reservoir_rng = random.Random(reservoir_seed)
        self.reservoir_size = reservoir_size
        self.outstanding: Dict[int, IssuedOp] = {}
        #: seeded reservoir of completions: every one, in completion
        #: order, while they fit ``reservoir_size``; a uniform sample (NOT
        #: chronological) after that — counts come from completed_count
        self.completed: List[CompletedOp] = []
        self.outcomes: Dict[str, int] = {}
        #: exact completion counters
        self.completed_count = 0
        self.routed_count = 0
        #: routed latency (rounds) -> how many routed ops took it
        self.latency_counts: Dict[int, int] = {}
        #: issue round -> [completed, routed, routed-latency sum, max]
        self._issue_tallies: Dict[int, List[int]] = {}
        #: replies that arrived after their op already timed out
        self.late_replies = 0
        #: (origin, kid) pairs with at least one successful search,
        #: bounded by ``max_tracked_searches`` (overflow: new keys are
        #: dropped and counted — violations can then only undercount)
        self._succeeded_once: Set[tuple] = set()
        self.max_tracked_searches = max_tracked_searches
        #: successful searches whose key could not be admitted to the
        #: (full) succeeded-once index — the explicit overflow policy
        self.tracked_search_overflow = 0
        #: recorded monotonic-searchability violations; capped at
        #: ``max_violation_records`` (first-K kept)
        self.violations: List[CompletedOp] = []
        #: exact violation counter
        self.violations_count = 0
        self.max_violation_records = max_violation_records
        #: truth sampled when the terminal peer *answered* (the plane
        #: records it per op); replies transit for a round, and churn in
        #: that round must not turn a correct answer into a "misroute".
        #: With resilience enabled the values are small per-attempt maps
        #: ``{(attempt, hedged): truth}`` (several probes of one op can
        #: answer at different rounds with different truths); without it
        #: the historical flat ``op_id -> truth`` layout is kept so the
        #: default path allocates nothing extra
        self._answer_truth: Dict[int, object] = {}
        # -- resilient request plane (all inert until the plane opts in) --
        #: set by TrafficPlane when retries/hedges/redundant routing are
        #: configured; gates the extra summary keys and per-attempt state
        self.resilience_enabled = False
        #: plane-installed hook: ``(issued, round_no) -> IssuedOp | None``
        #: — return a re-registered replacement to retry instead of
        #: completing the op as a failure, or None to let it complete
        self.retry_handler: Optional[Callable[[IssuedOp, int], Optional[IssuedOp]]] = None
        #: plane-installed observer called on every deadline expiry
        #: (before any retry decision) — feeds the suspicion ledger
        self.timeout_observer: Optional[Callable[[IssuedOp, int], None]] = None
        #: plane-installed observer called once per terminal completion
        #: — releases per-op plane state (request templates, first hops)
        self.completion_observer: Optional[Callable[[CompletedOp], None]] = None
        #: retry relaunches scheduled (incremented by the plane)
        self.retries = 0
        #: duplicate hedge probes actually launched (plane-incremented)
        self.hedges_issued = 0
        #: routed completions whose winning reply came from a hedge probe
        self.hedge_wins = 0
        #: failure replies from a superseded attempt, suppressed instead
        #: of double-counting a retried op
        self.stale_replies = 0
        #: completion count per winning attempt number
        self.attempts_histogram: Dict[int, int] = {}
        #: routed completions won by the first attempt vs. by a retry
        self.first_attempt_success = 0
        self.eventual_success = 0
        # -- deadline wheel: deadline_round -> [op_id] + heap of rounds --
        self._wheel: Dict[int, List[int]] = {}
        self._wheel_rounds: List[int] = []
        # -- running wire-delay/hop aggregates (exact) -------------------
        self._wire_sum = 0
        self._wire_max = 0
        self._hops_sum = 0
        self._hops_count = 0
        self._hops_max = 0

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def register_batch(self, batch: Sequence[IssuedOp]) -> None:
        """Track newly injected operations (bucketed on the wheel): one
        ledger/wheel pass for a whole round of arrivals (they typically
        share one deadline bucket)."""
        outstanding = self.outstanding
        for issued in batch:
            if issued.op_id in outstanding:
                raise ValueError(f"duplicate op id {issued.op_id}")
            self.rebucket(issued)

    def outstanding_count(self) -> int:
        """Operations in flight (closed-loop generators throttle on this)."""
        return len(self.outstanding)

    def note_answer_truth(
        self, op_id: int, truth: Optional[int], attempt: int = 1, hedged: bool = False
    ) -> None:
        """Record who was *really* responsible when the op was answered.

        With resilience enabled the note is keyed per probe — several
        attempts of one op can terminate at different peers in different
        rounds, and each reply must be classified against the membership
        sampled when *its* answer was produced.
        """
        if self.resilience_enabled:
            slot = self._answer_truth.get(op_id)
            if slot is None:
                slot = self._answer_truth[op_id] = {}
            slot[(attempt, hedged)] = truth
        else:
            self._answer_truth[op_id] = truth

    def on_reply(self, reply: LookupReply, round_no: int) -> None:
        """Record a reply consumed by its origin peer during ``round_no``.

        The wheel entry is *not* touched: the op unlinks lazily when its
        deadline bucket drains (the popped id is no longer outstanding).

        Resilient dedup rules (inert without a retry handler):

        * a **successful** reply always wins and completes the op, even
          when it belongs to a superseded attempt (the late original of
          a retried op, or the losing probe of a hedge race);
        * a **failure** reply from a superseded attempt is suppressed
          (``stale_replies``) — the newer attempt is still racing, and
          completing here would double-count the op;
        * a failure reply from the *current* attempt consults the
          plane's retry handler before completing, so in-band failures
          (loop/ttl/dead_end/misroute) are retried exactly like
          deadline expiries.
        """
        _, op_id, _, kid, status, owner, hops, value, attempt, hedge, trace = reply
        issued = self.outstanding.get(op_id)
        if issued is None:
            self.late_replies += 1
            self._answer_truth.pop(op_id, None)
            return
        if status in ROUTED_OUTCOMES:
            truth = self._answer_truth.get(op_id, _UNNOTED)
            if self.resilience_enabled and truth is not _UNNOTED:
                truth = truth.get((attempt, hedge), _UNNOTED)
            if truth is _UNNOTED:
                truth = self._true_owner(kid)
            if owner != truth:
                status = OUT_MISROUTE
        if status not in ROUTED_OUTCOMES:
            if self.resilience_enabled and attempt < issued.attempt:
                self.stale_replies += 1
                return
            if self.retry_handler is not None:
                replacement = self.retry_handler(issued, round_no)
                if replacement is not None:
                    self.rebucket(replacement)
                    return
        del self.outstanding[op_id]
        self._complete(issued, round_no, status, hops, value, trace, attempt, hedge)

    def fail_unissued(self, issued: IssuedOp, round_no: int) -> None:
        """The op could not even be injected (origin not registered)."""
        self._complete(issued, round_no, OUT_ORIGIN_DEAD, None)

    def force_timeout(self, op_id: int, round_no: int) -> bool:
        """Complete an outstanding op as ``timeout`` immediately.

        Used by the resilient plane when a retry relaunch finds the
        origin gone: no probe can ever be answered (replies address the
        origin), so the op's verdict is already known.  Returns False if
        the op was not outstanding.
        """
        issued = self.outstanding.pop(op_id, None)
        if issued is None:
            return False
        self._complete(issued, round_no, OUT_TIMEOUT, None, attempt=issued.attempt)
        return True

    def rebucket(self, replacement: IssuedOp) -> None:
        """Replace an outstanding op's registration (retry relaunch), or
        make a new one (:meth:`register_batch`).

        A superseded wheel entry is left in place: the expiry sweep
        skips any bucketed op whose *current* deadline lies in the
        future, exactly like a lazily-unlinked completion.
        """
        self.outstanding[replacement.op_id] = replacement
        bucket = self._wheel.get(replacement.deadline)
        if bucket is None:
            self._wheel[replacement.deadline] = [replacement.op_id]
            heapq.heappush(self._wheel_rounds, replacement.deadline)
        else:
            bucket.append(replacement.op_id)

    def expire(self, round_no: int) -> int:
        """Time out every outstanding op whose deadline has passed.

        Pops the due deadline buckets — O(due) per sweep, never a scan
        of all outstanding ops.  Ops already completed (reply consumed,
        possibly in this very round) were unlinked lazily and are
        skipped, as are ops a retry re-registered under a later deadline
        (their stale bucket entry outlived the re-registration); an
        empty or fully-unlinked bucket costs one pop.  Returns the
        number of ops that actually timed out (retried ops excluded).
        """
        expired = 0
        rounds = self._wheel_rounds
        while rounds and rounds[0] <= round_no:
            due_round = heapq.heappop(rounds)
            for op_id in self._wheel.pop(due_round, ()):
                issued = self.outstanding.get(op_id)
                if issued is None or issued.deadline > round_no:
                    continue  # answered, or re-registered by a retry
                if self.timeout_observer is not None:
                    self.timeout_observer(issued, round_no)
                if self.retry_handler is not None:
                    replacement = self.retry_handler(issued, round_no)
                    if replacement is not None:
                        self.rebucket(replacement)
                        continue
                del self.outstanding[op_id]
                self._complete(
                    issued, round_no, OUT_TIMEOUT, None, attempt=issued.attempt
                )
                expired += 1
        return expired

    def _complete(
        self, issued: IssuedOp, round_no: int, outcome: str, hops: Optional[int],
        value: object = None, trace: object = None, attempt: int = 1, hedged: bool = False,
    ) -> None:
        """Fold one terminal verdict into the aggregates; the
        :class:`CompletedOp` record is built only when the reservoir,
        the violation list or the completion observer keeps it."""
        op_id, op, origin, kid, issue_round = issued[:5]
        self._answer_truth.pop(op_id, None)
        routed = outcome in ROUTED_OUTCOMES
        self.completed_count += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        tally = self._issue_tallies.get(issue_round)
        if tally is None:
            tally = self._issue_tallies[issue_round] = [0, 0, 0, 0]
        tally[0] += 1
        if self.resilience_enabled:
            self.attempts_histogram[attempt] = (
                self.attempts_histogram.get(attempt, 0) + 1
            )
            if routed:
                if hedged:
                    self.hedge_wins += 1
                if attempt == 1:
                    self.first_attempt_success += 1
                else:
                    self.eventual_success += 1
        if routed:
            latency = round_no - issue_round
            self.routed_count += 1
            counts = self.latency_counts
            counts[latency] = counts.get(latency, 0) + 1
            tally[1] += 1
            tally[2] += latency
            if latency > tally[3]:
                tally[3] = latency
            wire = latency - hops - 1 if hops else latency  # wire_delay(), inlined
            if wire > 0:
                self._wire_sum += wire
                if wire > self._wire_max:
                    self._wire_max = wire
        if hops is not None:
            self._hops_sum += hops
            self._hops_count += 1
            if hops > self._hops_max:
                self._hops_max = hops
        # seeded reservoir (algorithm R): every completion has a
        # k/count chance of being retained, independent of order
        k = self.reservoir_size
        completed = self.completed
        slot = len(completed)
        if slot >= k:
            slot = self._reservoir_rng.randrange(self.completed_count)
        recorded = False
        key = (origin, kid)
        if routed:
            if key not in self._succeeded_once:
                if len(self._succeeded_once) < self.max_tracked_searches:
                    self._succeeded_once.add(key)
                else:
                    self.tracked_search_overflow += 1
        elif key in self._succeeded_once:
            self.violations_count += 1
            recorded = len(self.violations) < self.max_violation_records
        observer = self.completion_observer
        if slot >= k and not recorded and observer is None:
            return
        record = CompletedOp(
            op_id, op, origin, kid, issue_round, round_no, outcome, hops, value,
            attempt, hedged, trace,
        )
        if slot < len(completed):
            completed[slot] = record
        elif slot < k:
            completed.append(record)
        if recorded:
            self.violations.append(record)
        if observer is not None:
            observer(record)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def tallies_by(
        self, group: Callable[[int], Hashable]
    ) -> Dict[Hashable, Tuple[int, int, int, int]]:
        """Per-issue-round tallies merged by ``group(issue_round)``.

        Each group maps to ``(completed, routed, routed-latency sum,
        routed-latency max)`` over the ops issued in its rounds — a
        retried op counts in the round it was first issued — and groups
        appear in the order of their earliest issue round.  Exact for
        every completion, resident in the reservoir or not.
        """
        out: Dict[Hashable, Tuple[int, int, int, int]] = {}
        for issue_round, (done, routed, lat_sum, lat_max) in sorted(
            self._issue_tallies.items()
        ):
            key = group(issue_round)
            acc = out.get(key)
            if acc is not None:
                done += acc[0]
                routed += acc[1]
                lat_sum += acc[2]
                lat_max = max(lat_max, acc[3])
            out[key] = (done, routed, lat_sum, lat_max)
        return out

    def success_rate(self) -> float:
        """Fraction of completed ops that reached the true owner."""
        if not self.completed_count:
            return 1.0
        return self.routed_count / self.completed_count

    def traced(self) -> List[CompletedOp]:
        """Resident completions carrying a causal hop trace (sampled ops):
        those still in the reservoir."""
        return [c for c in self.completed if c.trace is not None]

    def summary(self) -> dict:
        """Flat metrics dict (stable keys, used by tests and benches).

        Every key is exact — ``latency_p95`` and the opt-in
        ``latency_p*_sketch`` keys are nearest ranks over the
        routed-latency counts.
        """
        out = {
            "issued": self.completed_count + len(self.outstanding),
            "completed": self.completed_count,
            "outstanding": len(self.outstanding),
            "success_rate": round(self.success_rate(), 4),
            "violations": self.violations_count,
            "late_replies": self.late_replies,
            "outcomes": dict(sorted(self.outcomes.items())),
        }
        if self.routed_count:
            counts = self.latency_counts
            lat_sum = sum(lat * count for lat, count in counts.items())
            out["latency_mean"] = round(lat_sum / self.routed_count, 2)
            out["latency_p95"] = nearest_rank(counts, 95)
            out["latency_max"] = max(counts)
            # wire-delay component: rounds spent on slow links beyond
            # the one-round-per-hop baseline (0 under unit delivery)
            out["wire_delay_mean"] = round(self._wire_sum / self.routed_count, 2)
            out["wire_delay_max"] = self._wire_max
        if self._hops_count:
            out["hops_mean"] = round(self._hops_sum / self._hops_count, 2)
            out["hops_max"] = self._hops_max
        if self.routed_count:
            # opt-in quantiles, keyed separately so default summaries
            # (and every baseline built on them) are unchanged; the rank
            # is taken at q * 100 rounded to 9 places, since 0.07 * 100
            # is 7.000000000000001 and would round the rank up
            for q in sorted(self.sketch_quantiles):
                out[f"latency_p{round(q * 100)}_sketch"] = nearest_rank(
                    self.latency_counts, round(q * 100, 9)
                )
        if self.resilience_enabled:
            # resilient-plane census; gated so default summaries (and
            # every baseline built on them) keep their historical keys.
            # All of these are exact running counters.
            out["retries"] = self.retries
            out["stale_replies"] = self.stale_replies
            out["hedges_issued"] = self.hedges_issued
            out["hedge_wins"] = self.hedge_wins
            out["first_attempt_success"] = self.first_attempt_success
            out["eventual_success"] = self.eventual_success
            out["attempts"] = {
                str(k): v for k, v in sorted(self.attempts_histogram.items())
            }
        return out
