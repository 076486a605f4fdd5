"""The streaming traffic plane: bounded collectors, the deadline wheel,
and batched injection.

Three contracts from the million-op campaign work, pinned here:

* **differential**: a streaming-mode :class:`SLOCollector` must agree
  with list mode *exactly* on every counter key of ``summary()`` on the
  same seeded campaign (only the p95 estimate is approximate), while
  holding O(reservoir) completions instead of O(ops);
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

import pytest

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
from repro.traffic.slo import (
    MODE_STREAMING,
    IssuedOp,
    SLOCollector,
    latency_histogram,
)
from repro.workloads.initial import build_random_network, random_peer_ids

TRUTH = 42


def collector(mode="list", **kw) -> SLOCollector:
    return SLOCollector(lambda kid: TRUTH, mode=mode, **kw)


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
# streaming vs list differential on seeded campaigns
# ----------------------------------------------------------------------
class TestStreamingDifferential:
    #: counter keys that must agree bit-for-bit across modes
    EXACT_KEYS = (
        "issued", "completed", "outstanding", "success_rate", "violations",
        "late_replies", "outcomes", "latency_mean", "latency_max",
        "wire_delay_mean", "wire_delay_max", "hops_mean", "hops_max",
    )

    def _campaign(self, mode, seed, reservoir_size=64, sketch_quantiles=None):
        """One seeded churny campaign; returns its plane (post-drain)."""
        net = build_random_network(n=12, seed=seed)
        net.run_until_stable(max_rounds=5000)
        kv = KeyValueStore(ReChordRouter(net))
        plane = TrafficPlane(
            net, store=kv, collector_mode=mode,
            reservoir_size=reservoir_size, sketch_quantiles=sketch_quantiles,
        )
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
        return plane

    @pytest.mark.parametrize("seed", [3, 11])
    def test_counter_keys_match_exactly(self, seed):
        a = self._campaign("list", seed).collector.summary()
        b = self._campaign("streaming", seed).collector.summary()
        assert set(a) == set(b)
        for key in self.EXACT_KEYS:
            if key in a:
                assert a[key] == b[key], f"{key}: {a[key]} != {b[key]}"

    def test_p95_within_sketch_tolerance(self):
        a = self._campaign("list", 3).collector.summary()
        b = self._campaign("streaming", 3).collector.summary()
        assert abs(a["latency_p95"] - b["latency_p95"]) <= max(
            2.0, 0.3 * a["latency_p95"]
        )

    def test_optin_sketch_keys_identical_across_modes(self):
        """The opt-in sketches see the same latency stream in both modes,
        so their keys agree exactly (and stay separate from the counter
        keys, as in list mode today)."""
        qs = (0.5, 0.99)
        a = self._campaign("list", 3, sketch_quantiles=qs).collector.summary()
        b = self._campaign("streaming", 3, sketch_quantiles=qs).collector.summary()
        for key in ("latency_p50_sketch", "latency_p99_sketch"):
            assert key in a and a[key] == b[key]

    def test_streaming_holds_only_the_reservoir(self):
        plane = self._campaign("streaming", 3, reservoir_size=16)
        coll = plane.collector
        assert coll.completed_count > 16  # the campaign outgrew the cap
        assert len(coll.completed) == 16
        # every resident record is a real completion of this campaign
        assert all(c.op_id < coll.completed_count + len(coll.outstanding) + 1
                   for c in coll.completed)

    def test_streaming_reservoir_is_seeded(self):
        a = self._campaign("streaming", 11, reservoir_size=16)
        b = self._campaign("streaming", 11, reservoir_size=16)
        assert a.collector.completed == b.collector.completed

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            collector(mode="ring-buffer")


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
        hist = dict(latency_histogram([1, 2, 4, 4], bounds=(1, 2, 4)))
        assert hist == {"<=1": 1, "<=2": 1, "<=4": 2, ">4": 0}

    def test_overflow_bucket(self):
        hist = dict(latency_histogram([5, 100], bounds=(1, 2, 4)))
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

        assert [c for _, c in latency_histogram(values)] == linear(values)

    def test_empty_bounds_is_one_catch_all(self):
        assert latency_histogram([3, 9], bounds=()) == [("all", 2)]


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

    def test_violation_records_capped_in_streaming_mode(self):
        col = collector(mode=MODE_STREAMING, max_violation_records=1)
        for i, origin in enumerate((1, 2, 3)):
            self._succeed_then_fail(col, i, origin)
        assert col.violations_count == 3  # the counter stays exact
        assert len(col.violations) == 1  # first-K records retained

    def test_violation_records_unbounded_in_list_mode(self):
        col = collector(max_violation_records=1)
        for i, origin in enumerate((1, 2, 3)):
            self._succeed_then_fail(col, i, origin)
        assert col.violations_count == 3
        assert len(col.violations) == 3


# ----------------------------------------------------------------------
# list-mode summary aggregate cache (satellite)
# ----------------------------------------------------------------------
class TestListModeSummaryCache:
    def test_repeated_summary_is_stable_and_invalidates_on_complete(self):
        col = collector()
        for i in range(20):
            col.register(issued(i, deadline=50, kid=9))
            col.on_reply(reply(i, hops=i % 5), round_no=3 + i % 7)
        first = col.summary()
        assert col.summary() == first  # served from the memo
        col.register(issued(99, deadline=120, issue_round=0))
        col.on_reply(reply(99, hops=3), round_no=90)  # new latency tail
        after = col.summary()
        assert after["latency_max"] == 90
        assert after["latency_mean"] > first["latency_mean"]
        assert after["completed"] == first["completed"] + 1


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
