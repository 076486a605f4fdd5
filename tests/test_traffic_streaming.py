"""The traffic plane at scale: the bounded collector, the deadline wheel,
and batched injection.

Three contracts from the million-op campaign work, pinned here:

* **record reference**: every key of :meth:`SLOCollector.summary` and
  every per-issue-round tally equals the value computed from the
  campaign's every completion record, while the collector holds
  O(reservoir) completions instead of O(ops);
* **wheel**: deadline expiry via the bucket wheel must survive
  adversarial ledgers — replies racing their own deadline round, late
  replies after wheel expiry, registrations landing on already-drained
  bucket rounds, zero-round deadlines;
* **batch**: ``issue_batch``/``post_batch`` must be indistinguishable
  from the historical one-op-at-a-time loop (fingerprints, summaries,
  dead-origin failures, drop filters).
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import (
    OP_GET,
    OP_LOOKUP,
    OP_PUT,
    OUT_TIMEOUT,
    ST_OK,
    LookupReply,
)
from repro.scenarios import executor, make_scenario, run_scenario
from repro.traffic.slo import (
    IssuedOp,
    SLOCollector,
    latency_histogram,
    nearest_rank,
    percentile,
)
from repro.workloads.initial import build_random_network, random_peer_ids

TRUTH = 42


def collector(**kw) -> SLOCollector:
    return SLOCollector(lambda kid: TRUTH, **kw)


def issued(op_id, deadline, origin=1, kid=9, issue_round=0) -> IssuedOp:
    return IssuedOp(
        op_id=op_id, op=OP_LOOKUP, origin=origin, kid=kid,
        issue_round=issue_round, deadline=deadline,
    )


def reply(op_id, owner=TRUTH, status=ST_OK, kid=9, hops=3) -> LookupReply:
    return LookupReply(
        op=OP_LOOKUP, op_id=op_id, origin=1, kid=kid,
        status=status, owner=owner, hops=hops,
    )


# ----------------------------------------------------------------------
# the collector's aggregates against every completion record
# ----------------------------------------------------------------------
QUANTILES = (0.5, 0.99)
RESILIENT = dict(max_attempts=3, retry_backoff=3, hedge_after=4, route_redundancy=2)


def record_summary(records, coll, log=None) -> dict:
    """Every ``summary()`` key from the completion records, in completion
    order; ``outstanding``/``late_replies``/``stale_replies`` come from
    the ledger, ``retries``/``hedges_issued`` from the attempt log."""
    routed = [c for c in records if c.routed]
    lats, wires = [c.latency for c in routed], [c.wire_delay for c in routed]
    hops = [c.hops for c in records if c.hops is not None]
    succeeded, violations = set(), 0
    for c in records:
        violations += not c.routed and (c.origin, c.kid) in succeeded
        if c.routed:
            succeeded.add((c.origin, c.kid))
    out = {
        "issued": len(records) + len(coll.outstanding), "completed": len(records),
        "outstanding": len(coll.outstanding),
        "success_rate": round(len(routed) / len(records), 4),
        "violations": violations, "late_replies": coll.late_replies,
        "outcomes": dict(sorted(Counter(c.outcome for c in records).items())),
        "latency_mean": round(sum(lats) / len(lats), 2),
        "latency_p95": percentile(lats, 95), "latency_max": max(lats),
        "wire_delay_mean": round(sum(wires) / len(wires), 2), "wire_delay_max": max(wires),
        "hops_mean": round(sum(hops) / len(hops), 2), "hops_max": max(hops),
    }
    for q in QUANTILES:
        out[f"latency_p{round(q * 100)}_sketch"] = percentile(lats, q * 100)
    if log is not None:
        kinds = Counter(kind for kind, *_ in log)
        out.update(
            retries=kinds["retry"], hedges_issued=kinds["hedge"],
            stale_replies=coll.stale_replies,
            hedge_wins=sum(c.hedged for c in routed),
            first_attempt_success=sum(c.attempt == 1 for c in routed),
            eventual_success=sum(c.attempt > 1 for c in routed),
            attempts={str(k): v for k, v in sorted(Counter(c.attempt for c in records).items())},
        )
    return out


def record_tallies(records, group) -> dict:
    """:meth:`SLOCollector.tallies_by` computed from the records."""
    out = {}
    for c in records:
        done, ok, lat_sum, lat_max = out.get(group(c.issue_round), (0, 0, 0, 0))
        lat = c.latency if c.routed else 0
        out[group(c.issue_round)] = (done + 1, ok + c.routed, lat_sum + lat, max(lat_max, lat))
    return out


def recorded(plane) -> list:
    """Every completion of ``plane``, in order (the plane's own observer still runs)."""
    records, inner = [], plane.collector.completion_observer
    plane.collector.completion_observer = lambda c: (records.append(c), inner and inner(c))
    return records


class TestRecordReference:
    def _campaign(self, seed, reservoir=16, **knobs):
        """One seeded campaign, a crash at round 10 and a join at 18;
        returns the drained plane and its every completion record."""
        net = build_random_network(n=12, seed=seed)
        net.run_until_stable(max_rounds=5000)
        plane = TrafficPlane(
            net, store=KeyValueStore(ReChordRouter(net)), default_deadline=24,
            reservoir_size=reservoir, sketch_quantiles=QUANTILES, retry_seed=seed, **knobs,
        )
        plane.attempt_log = []
        records = recorded(plane)
        WorkloadGenerator(
            plane, rate=6.0,
            op_mix=((OP_LOOKUP, 0.6), (OP_PUT, 0.25), (OP_GET, 0.15)),
            seed=seed, deadline=24,
        )
        join_rng = random.Random(seed + 1000)
        for r in range(30):
            if r == 10:
                net.crash(net.peer_ids[4])
            if r == 18:
                new_id = random_peer_ids(1, join_rng, net.space)[0]
                while new_id in net.peers:
                    new_id = random_peer_ids(1, join_rng, net.space)[0]
                net.join(new_id, net.peer_ids[0])
            plane.run_round()
        plane.generator.active = False
        plane.drain()
        return plane, records

    @pytest.mark.parametrize("knobs", [{}, RESILIENT], ids=["plain", "resilient"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_summary_and_tallies_equal_the_records(self, seed, knobs):
        plane, records = self._campaign(seed, **knobs)
        coll = plane.collector
        assert len(records) > len(coll.completed) == 16  # outgrew the reservoir
        assert all(c in records for c in coll.completed)
        assert coll.summary() == record_summary(records, coll, plane.attempt_log if knobs else None)

        def window(issue_round):  # per-window survival: steady, crash, join
            return "steady" if issue_round < 10 else "crash" if issue_round < 18 else "join"

        assert coll.tallies_by(window) == record_tallies(records, window)

    def test_reservoir_keeps_every_record_while_they_fit_then_a_seeded_sample(self):
        plane, records = self._campaign(11, reservoir=1024)
        assert plane.collector.completed == records  # every record, in order
        a, b = self._campaign(11)[0].collector, self._campaign(11)[0].collector
        assert a.completed == b.completed != records[:16]

    def test_scenario_survival_equals_the_records(self, monkeypatch):
        """``run_scenario``'s per-window survival with a reservoir far
        smaller than the campaign, against the records grouped by the
        report's windows: "start", "r<round>:<kinds>", "recovery"."""
        recordings = []

        def small_reservoir_plane(net, **kw):
            plane = TrafficPlane(net, **dict(kw, reservoir_size=8))
            recordings.append(recorded(plane))
            return plane

        monkeypatch.setattr(executor, "TrafficPlane", small_reservoir_plane)
        report = run_scenario(make_scenario("mass-failure", n=48, seed=2011))
        (records,) = recordings
        labels = [w for w, _ in report.dropped_by_window]
        opens = [int(m.group(1)) if (m := re.match(r"r(\d+):", w))
                 else report.rounds_adversity if w == "recovery" else -1 for w in labels]
        tallies = record_tallies(records, lambda r: labels[bisect_right(opens, r) - 1])
        assert len(records) > 8
        assert report.survival_by_window == tuple(
            (w, *tallies[w][:2]) for w in labels if w in tallies
        )


class TestNearestRank:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
        q=st.floats(min_value=0, max_value=100),
    )
    def test_equals_percentile_over_the_expanded_list(self, values, q):
        assert nearest_rank(Counter(values), q) == percentile(values, q)

    @pytest.mark.parametrize("rank", [
        percentile, lambda values, q, **kw: nearest_rank(Counter(values), q, **kw),
    ], ids=["list", "counts"])
    def test_edges(self, rank):
        assert all(rank([7.5], q) == 7.5 for q in (0, 1, 50, 95, 100))  # one sample
        assert rank([], 95, default=0.0) == 0.0
        for values, q in (([], 95), ([1, 2, 3], -1), ([1, 2, 3], 100.5)):
            with pytest.raises(ValueError):
                rank(values, q)

    def test_no_routed_ops(self):
        col = collector()
        col.register(issued(0, deadline=5))
        col.expire(round_no=8)  # one timeout, nothing routed
        assert "latency_p95" not in col.summary() and col.latency_counts == {}


class TestCollectorMode:
    def test_collector_mode_other_than_streaming_is_rejected(self):
        net = build_random_network(n=6, seed=5)
        with pytest.raises(ValueError, match="one mode"):
            TrafficPlane(net, collector_mode="list")
        TrafficPlane(net, collector_mode="streaming")  # what older callers pass


# ----------------------------------------------------------------------
# the deadline wheel under adversarial ledgers
# ----------------------------------------------------------------------
class TestDeadlineWheel:
    def test_reply_racing_its_own_deadline_round(self):
        """A reply consumed in the very round the deadline expires wins:
        the op completed, and the wheel bucket skips it lazily."""
        col = collector()
        col.register(issued(0, deadline=5))
        col.on_reply(reply(0), round_no=5)
        assert col.expire(round_no=5) == 0
        assert col.outcomes == {"ok": 1}
        assert col.late_replies == 0
        assert col.outstanding_count() == 0

    def test_late_reply_after_wheel_expiry(self):
        col = collector()
        col.register(issued(0, deadline=5))
        assert col.expire(round_no=8) == 1
        assert col.outcomes == {OUT_TIMEOUT: 1}
        col.on_reply(reply(0), round_no=9)
        assert col.late_replies == 1
        assert col.completed_count == 1  # the late reply is not a completion

    def test_registration_on_already_drained_bucket_round(self):
        """Draining bucket round R must not retire R forever: a later op
        whose deadline lands on R again is still expired."""
        col = collector()
        col.register(issued(0, deadline=5))
        assert col.expire(round_no=5) == 1
        col.register(issued(1, deadline=5, issue_round=5))
        assert col.expire(round_no=5) == 1
        assert col.outcomes == {OUT_TIMEOUT: 2}

    def test_zero_round_deadline(self):
        """deadline == issue_round (a plane-level ``deadline=0``) times
        out at the first sweep at-or-after the issue round."""
        col = collector()
        col.register(issued(0, deadline=0, issue_round=0))
        assert col.expire(round_no=0) == 1
        rec = col.completed[0]
        assert rec.outcome == OUT_TIMEOUT and rec.latency == 0

    def test_one_sweep_pops_every_due_bucket_in_deadline_order(self):
        col = collector()
        col.register(issued(2, deadline=7))
        col.register(issued(0, deadline=3))
        col.register(issued(1, deadline=5))
        col.register(issued(3, deadline=11))
        assert col.expire(round_no=8) == 3
        assert [c.op_id for c in col.completed] == [0, 1, 2]
        assert col.outstanding_count() == 1

    def test_fully_unlinked_bucket_costs_nothing(self):
        col = collector()
        for i in range(4):
            col.register(issued(i, deadline=6))
        for i in range(4):
            col.on_reply(reply(i), round_no=2)
        assert col.expire(round_no=10) == 0
        assert col._wheel == {} and col._wheel_rounds == []

    def test_duplicate_registration_still_rejected(self):
        col = collector()
        col.register(issued(0, deadline=5))
        with pytest.raises(ValueError):
            col.register(issued(0, deadline=7))
        with pytest.raises(ValueError):
            col.register_batch([issued(1, deadline=5), issued(1, deadline=5)])


# ----------------------------------------------------------------------
# histogram bisect (satellite)
# ----------------------------------------------------------------------
class TestHistogramBisect:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        """Edges are inclusive upper bounds: v == edge belongs to edge."""
        hist = dict(latency_histogram(Counter([1, 2, 4, 4]), bounds=(1, 2, 4)))
        assert hist == {"<=1": 1, "<=2": 1, "<=4": 2, ">4": 0}

    def test_overflow_bucket(self):
        hist = dict(latency_histogram(Counter([5, 100]), bounds=(1, 2, 4)))
        assert hist[">4"] == 2

    def test_matches_linear_reference_on_random_values(self):
        rng = random.Random(7)
        bounds = (1, 2, 4, 8, 16, 32, 64, 128, 256)
        values = [rng.randrange(0, 400) for _ in range(500)]

        def linear(vals):
            buckets = [0] * (len(bounds) + 1)
            for v in vals:
                for i, edge in enumerate(bounds):
                    if v <= edge:
                        buckets[i] += 1
                        break
                else:
                    buckets[-1] += 1
            return buckets

        assert [c for _, c in latency_histogram(Counter(values))] == linear(values)

    def test_empty_bounds_is_one_catch_all(self):
        assert latency_histogram(Counter([3, 9]), bounds=()) == [("all", 2)]


# ----------------------------------------------------------------------
# bounded-structure overflow policies
# ----------------------------------------------------------------------
class TestOverflowPolicies:
    def _succeed_then_fail(self, col, op_id, origin):
        col.register(issued(op_id, deadline=50, origin=origin))
        col.on_reply(reply(op_id), round_no=2)  # owner == truth: success
        col.register(issued(op_id + 100, deadline=50, origin=origin))
        col.on_reply(reply(op_id + 100, owner=7), round_no=4)  # misroute

    def test_tracked_search_cap_undercounts_never_overcounts(self):
        col = collector(max_tracked_searches=2)
        for i, origin in enumerate((1, 2, 3)):
            self._succeed_then_fail(col, i, origin)
        # the third key was never admitted: its violation goes unseen
        assert col.violations_count == 2
        assert col.tracked_search_overflow == 1

    def test_violation_records_capped(self):
        col = collector(max_violation_records=1)
        for i, origin in enumerate((1, 2, 3)):
            self._succeed_then_fail(col, i, origin)
        assert col.violations_count == 3  # the counter stays exact
        assert [c.op_id for c in col.violations] == [100]  # first-K records retained


# ----------------------------------------------------------------------
# batched injection == the one-op-at-a-time loop
# ----------------------------------------------------------------------
class TestIssueBatch:
    def _net(self, seed=31):
        net = build_random_network(n=10, seed=seed)
        net.run_until_stable(max_rounds=5000)
        return net, TrafficPlane(net)

    def test_batch_equals_sequential_issue(self):
        a_net, a_plane = self._net()
        b_net, b_plane = self._net()
        kids = [(i * 97) % a_net.space.size for i in range(8)]
        origins = [a_net.peer_ids[i % len(a_net.peer_ids)] for i in range(8)]
        for kid, origin in zip(kids, origins):
            a_plane.issue(OP_LOOKUP, kid, origin)
        b_plane.issue_batch(
            [(OP_LOOKUP, kid, origin, None) for kid, origin in zip(kids, origins)]
        )
        assert a_net.fingerprint() == b_net.fingerprint()
        for r in range(16):
            a_plane.run_round()
            b_plane.run_round()
            assert a_net.fingerprint() == b_net.fingerprint(), f"round {r}"
        assert a_plane.collector.summary() == b_plane.collector.summary()

    def test_dead_origin_in_batch_fails_only_that_op(self):
        net, plane = self._net()
        live = net.peer_ids[0]
        rows = [
            (OP_LOOKUP, 5, live, None),
            (OP_LOOKUP, 6, 999_999_999 % net.space.size, None),  # no such peer
            (OP_LOOKUP, 7, live, None),
        ]
        plane.issue_batch(rows)
        assert plane.collector.outstanding_count() == 2
        assert plane.collector.outcomes == {"origin_dead": 1}
        plane.drain()
        assert plane.collector.completed_count == 3

    def test_batch_respects_drop_filter_via_fallback(self):
        net, plane = self._net()
        net.scheduler.set_drop_filter(lambda env: True)
        plane.issue_batch([(OP_LOOKUP, 5, net.peer_ids[0], None)])
        # dropped at injection: the op never entered the ledger
        assert plane.collector.outcomes == {"origin_dead": 1}
        assert plane.collector.outstanding_count() == 0

    def test_batch_rejects_unknown_ops_and_missing_store(self):
        net, plane = self._net()
        with pytest.raises(ValueError):
            plane.issue_batch([("frobnicate", 5, net.peer_ids[0], None)])
        with pytest.raises(RuntimeError):
            plane.issue_batch([(OP_PUT, 5, net.peer_ids[0], "v0")])

    def test_generator_vector_path_matches_scalar_fallback(self):
        """Above _VECTOR_MIN arrivals the numpy mapping must reproduce
        the pure-bisect mapping draw for draw."""
        from repro.traffic import generator as gen_mod

        net, plane = self._net(seed=47)
        gen = WorkloadGenerator(
            plane, rate=0,  # drive _draw_batch directly
            op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
            popularity="zipf", zipf_s=1.2, key_universe=96, seed=5,
        )
        ids = plane.live_ids()
        rows_vec = gen._draw_batch(200, ids)
        gen2 = WorkloadGenerator(
            plane, rate=0,
            op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
            popularity="zipf", zipf_s=1.2, key_universe=96, seed=5,
        )
        saved = gen_mod._np
        gen_mod._np = None  # force the pure fallback
        try:
            rows_pure = gen2._draw_batch(200, ids)
        finally:
            gen_mod._np = saved
        assert rows_vec == rows_pure
