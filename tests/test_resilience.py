"""The resilient request plane: seeded retries, hedged probes,
r-redundant routing, and their determinism contracts.

Four contract families, mirroring the architecture notes:

* **off-equivalence** — a plane constructed with every resilience knob
  at its default is bit-for-bit the pre-resilience plane: lockstep
  fingerprints and identical summaries against a knob-free twin;
* **retry-edge races** — late replies from superseded attempts, replies
  racing a backoff re-registration on the deadline wheel, budgets
  exhausting, and retries scheduled beyond a drain's round budget must
  all resolve without double-counting an op;
* **determinism** — identical seeds produce identical attempt
  schedules, hedge decisions, and collector censuses on every
  simulation kernel (full / columnar, both legs of the columnar one), under a crash wave
  (Hypothesis-driven).

The resilience keys of ``summary()`` are checked against every
completion record in ``tests/test_traffic_streaming.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.keys import key_id
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import (
    OP_LOOKUP,
    OUT_TIMEOUT,
    ST_DEAD_END,
    ST_LOOP,
    ST_OK,
    LookupReply,
)
from repro.traffic.slo import IssuedOp, SLOCollector
from repro.workloads.initial import build_random_network
from tests.conftest import ENGINES, build

TRUTH = 42


def collector(**kw) -> SLOCollector:
    return SLOCollector(lambda kid: TRUTH, **kw)


def issued(op_id, deadline, attempt=1, origin=1, kid=9, issue_round=0, span=0):
    return IssuedOp(
        op_id=op_id, op=OP_LOOKUP, origin=origin, kid=kid,
        issue_round=issue_round, deadline=deadline,
        attempt=attempt, deadline_span=span,
    )


def reply(op_id, status=ST_OK, attempt=1, hedge=False, owner=TRUTH, kid=9, hops=3):
    return LookupReply(
        op=OP_LOOKUP, op_id=op_id, origin=1, kid=kid,
        status=status, owner=owner, hops=hops, attempt=attempt, hedge=hedge,
    )


def stable_plane(n=12, seed=7, **plane_kw):
    """A stabilized random network with an attached (resilient) plane."""
    net = build_random_network(n=n, seed=seed)
    net.run_until_stable(max_rounds=5000)
    return net, TrafficPlane(net, **plane_kw)


# ----------------------------------------------------------------------
# off-equivalence: knobs at defaults == the pre-resilience plane
# ----------------------------------------------------------------------
class TestOffEquivalence:
    def _campaign(self, plane_kw):
        """One seeded churny campaign; returns (fingerprints, summary)."""
        net = build_random_network(n=12, seed=31)
        net.run_until_stable(max_rounds=5000)
        plane = TrafficPlane(net, **plane_kw)
        WorkloadGenerator(
            plane, rate=4.0, op_mix=((OP_LOOKUP, 1.0),), seed=5, deadline=16
        )
        prints = []
        for r in range(20):
            if r == 6:
                net.crash(net.peer_ids[3])
            plane.run_round()
            prints.append(net.fingerprint())
        plane.generator.active = False
        plane.drain()
        prints.append(net.fingerprint())
        return prints, plane.collector.summary()

    def test_max_attempts_1_is_bitforbit_todays_plane(self):
        """Every knob passed at its default (plus a non-zero retry seed)
        must reproduce the knob-free plane exactly: same per-round
        configuration fingerprints, same summary — the contract that
        keeps every historical baseline valid unregenerated."""
        base_prints, base_summary = self._campaign({})
        knob_prints, knob_summary = self._campaign(
            dict(
                max_attempts=1,
                retry_backoff=9,
                hedge_after=None,
                route_redundancy=1,
                retry_seed=12345,
            )
        )
        assert base_prints == knob_prints
        assert base_summary == knob_summary

    def test_disabled_plane_has_no_resilience_keys(self):
        _, summary = self._campaign({})
        for key in ("retries", "hedges_issued", "attempts"):
            assert key not in summary

    def test_enabled_plane_reports_resilience_keys(self):
        _, summary = self._campaign(dict(max_attempts=2))
        for key in (
            "retries", "stale_replies", "hedges_issued", "hedge_wins",
            "first_attempt_success", "eventual_success", "attempts",
        ):
            assert key in summary


# ----------------------------------------------------------------------
# retry-edge races (collector-level, adversarial ledgers)
# ----------------------------------------------------------------------
class TestRetryEdgeRaces:
    def _retrying(self, max_attempts=3, backoff=5):
        """A collector wired to a minimal deterministic retry handler."""
        coll = collector()
        coll.resilience_enabled = True

        def retry(op, round_no):
            if op.attempt >= max_attempts:
                return None
            coll.retries += 1
            return op._replace(attempt=op.attempt + 1, deadline=round_no + backoff)

        coll.retry_handler = retry
        return coll

    def test_stale_failure_reply_after_retry_is_suppressed(self):
        """The late original's loop reply must not complete (or retry)
        the op while attempt 2 is still racing."""
        coll = self._retrying()
        coll.register(issued(1, deadline=10))
        coll.expire(10)  # attempt 1 times out -> attempt 2 outstanding
        assert coll.outstanding[1].attempt == 2
        coll.on_reply(reply(1, status=ST_LOOP, attempt=1), 12)
        assert coll.stale_replies == 1
        assert 1 in coll.outstanding  # attempt 2 still racing
        assert coll.completed_count == 0
        coll.on_reply(reply(1, status=ST_OK, attempt=2), 14)
        assert coll.completed_count == 1
        assert coll.completed[0].outcome == "ok"
        assert coll.completed[0].attempt == 2

    def test_stale_success_reply_always_wins(self):
        """A successful answer is a successful answer, even from the
        superseded original: the op completes once, with attempt 1."""
        coll = self._retrying()
        coll.register(issued(1, deadline=10))
        coll.expire(10)
        coll.on_reply(reply(1, status=ST_OK, attempt=1), 11)
        assert coll.completed_count == 1
        assert coll.completed[0].attempt == 1
        assert 1 not in coll.outstanding
        # the retried probe's own reply is now late, not a completion
        coll.on_reply(reply(1, status=ST_OK, attempt=2), 13)
        assert coll.completed_count == 1
        assert coll.late_replies == 1

    def test_reply_racing_rebucket_leaves_wheel_consistent(self):
        """An op retried at round 10 leaves a stale entry in the round-10
        bucket; after its attempt-2 reply completes it, draining the
        stale bucket must not resurrect or re-time-out the op."""
        coll = self._retrying(backoff=7)
        coll.register(issued(1, deadline=10))
        coll.register(issued(2, deadline=10))
        coll.expire(10)  # both rebucketed to deadline 17
        coll.on_reply(reply(1, status=ST_OK, attempt=2), 12)
        assert coll.completed_count == 1
        # draining the round-17 bucket skips completed op 1 entirely;
        # op 2 still has budget, so it retries (attempt 3) — no timeout
        assert coll.expire(17) == 0
        assert coll.outstanding[2].attempt == 3
        # the final deadline passes with no reply: exactly one timeout,
        # carrying the attempt the ledger holds
        assert coll.expire(24) == 1
        assert coll.completed_count == 2
        by_id = {c.op_id: c for c in coll.completed}
        assert by_id[2].outcome == OUT_TIMEOUT
        assert by_id[2].attempt == 3

    def test_rebucketed_op_skipped_by_stale_bucket_sweep(self):
        """The expiry sweep must skip ops whose *current* deadline lies
        beyond the due bucket (the lazily-unlinked retry entry)."""
        coll = self._retrying(max_attempts=2, backoff=20)
        coll.register(issued(1, deadline=5))
        coll.expire(5)  # retried: deadline now 25
        assert coll.outstanding[1].deadline == 25
        # sweeping rounds 6..24 touches nothing
        assert coll.expire(24) == 0
        assert coll.completed_count == 0

    def test_budget_exhaustion_times_out_with_final_attempt(self):
        coll = self._retrying(max_attempts=3, backoff=4)
        coll.register(issued(1, deadline=4))
        coll.expire(4)   # -> attempt 2, deadline 8
        coll.expire(8)   # -> attempt 3, deadline 12
        assert coll.expire(12) == 1  # budget spent: terminal timeout
        assert coll.completed[0].outcome == OUT_TIMEOUT
        assert coll.completed[0].attempt == 3
        assert coll.attempts_histogram == {3: 1}
        assert coll.retries == 2

    def test_inband_failure_reply_triggers_retry(self):
        """A dead_end reply from the current attempt consults the retry
        handler exactly like a deadline expiry."""
        coll = self._retrying()
        coll.register(issued(1, deadline=30))
        coll.on_reply(reply(1, status=ST_DEAD_END, attempt=1), 3)
        assert 1 in coll.outstanding
        assert coll.outstanding[1].attempt == 2
        assert coll.completed_count == 0
        assert coll.retries == 1


# ----------------------------------------------------------------------
# plane-level: drain diagnostics and retries beyond the budget
# ----------------------------------------------------------------------
class TestDrainDiagnostic:
    def test_retry_scheduled_past_drain_budget_raises_diagnostic(self):
        """A retry in a backoff longer than the drain budget is a stuck
        ledger: drain must raise the diagnostic naming the op, its
        attempt, and the relaunch round — not a bare count."""
        net, plane = stable_plane(
            n=12, seed=7, default_deadline=4, max_attempts=3, retry_backoff=400
        )
        # black-hole every inter-peer wire (self-deliveries exempt, so
        # the origin-to-origin injection still lands): the first attempt
        # can never be answered and must time out into its backoff
        net.scheduler.set_drop_filter(lambda env: env.sender != env.target)
        kid = key_id("stuck-key", net.space)
        owner = plane.true_owner(kid)
        origin = next(p for p in net.peer_ids if p != owner)
        op_id = plane.lookup("stuck-key", origin)
        with pytest.raises(RuntimeError) as err:
            plane.drain(max_rounds=12)
        message = str(err.value)
        assert f"op {op_id}" in message
        assert "in backoff" in message
        assert "relaunch at r" in message

    def test_drain_completes_when_backoff_fits_budget(self):
        net, plane = stable_plane(
            n=12, seed=7, default_deadline=6, max_attempts=2, retry_backoff=3
        )
        rng = random.Random(0)
        for i in range(10):
            plane.lookup(f"k{i}", rng.choice(net.peer_ids))
        plane.drain()
        assert not plane.collector.outstanding
        assert plane.collector.completed_count == 10


class TestHedges:
    def test_hedges_never_double_count(self):
        """With aggressive hedging every op still completes exactly once,
        and the hedge counters stay mutually consistent."""
        net, plane = stable_plane(n=16, seed=3, hedge_after=1, default_deadline=24)
        rng = random.Random(1)
        for i in range(40):
            plane.lookup(f"h{i}", rng.choice(net.peer_ids))
        plane.drain()
        coll = plane.collector
        assert coll.completed_count == 40
        assert not coll.outstanding
        assert coll.hedges_issued > 0  # multi-hop ops outlive a 1-round delay
        assert 0 <= coll.hedge_wins <= coll.hedges_issued
        summary = coll.summary()
        assert summary["hedges_issued"] == coll.hedges_issued
        assert summary["hedge_wins"] == coll.hedge_wins


# ----------------------------------------------------------------------
# determinism across kernels (Hypothesis)
# ----------------------------------------------------------------------
def _resilient_campaign(seed: int, engine: str):
    """A crash-wave campaign under the fully armed plane; returns the
    (attempt_log, summary, final fingerprint) triple that must be a
    pure function of the seed."""
    net = build(build_random_network, engine, n=10, seed=seed % 1000 + 1)
    net.run_until_stable(max_rounds=5000)
    plane = TrafficPlane(
        net,
        default_deadline=8,
        max_attempts=3,
        retry_backoff=3,
        hedge_after=4,
        route_redundancy=2,
        retry_seed=seed,
    )
    plane.attempt_log = []
    WorkloadGenerator(
        plane, rate=3.0, op_mix=((OP_LOOKUP, 1.0),), seed=seed, deadline=8
    )
    crash_rng = random.Random(seed + 77)
    for r in range(18):
        if r == 5:
            for victim in crash_rng.sample(net.peer_ids, 3):
                if len(net.peers) > 2:
                    net.crash(victim)
        plane.run_round()
    plane.generator.active = False
    plane.drain(max_rounds=2048)
    return plane.attempt_log, plane.collector.summary(), net.fingerprint()


class TestKernelDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_identical_seeds_identical_schedules_across_engines(self, seed):
        """One seed ⇒ one attempt schedule, one hedge decision stream,
        one census — on every kernel, under a crash wave."""
        spec, *legs = (_resilient_campaign(seed, engine) for engine in ENGINES)
        for leg in legs:
            assert leg == spec

    def test_same_seed_reruns_identical(self):
        a = _resilient_campaign(99, "columnar")
        b = _resilient_campaign(99, "columnar")
        assert a == b

