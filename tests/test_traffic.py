"""The in-band traffic plane: live lookups/KV ops through the scheduler.

The critical property is **kernel equivalence with traffic enabled**:
the activity-tracked engine must stay round-for-round identical to the
full-scan engine while application messages ride the rounds — the same
exactness spec as ``tests/test_engine_equivalence.py``, extended to the
traffic plane (one-shot emissions must never enter the steady-emission
replay cache).
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.experiments.scaling import build_ideal_network
from repro.idspace.keys import key_id
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import (
    OP_GET,
    OP_LOOKUP,
    OP_PUT,
    OUT_TIMEOUT,
    ST_OK,
    LookupReply,
    LookupRequest,
)
from repro.traffic.slo import IssuedOp, SLOCollector, latency_histogram, percentile
from repro.workloads.initial import build_random_network, random_peer_ids
from repro.scenarios.events import EventContext, apply_event_spec
from tests.conftest import ENGINES, KERNELS, build, stabilized


def make_traffic_net(n: int, seed: int, store: bool = False):
    """A stabilized network with an attached plane (and optional store)."""
    net = build_random_network(n=n, seed=seed)
    net.run_until_stable(max_rounds=5000)
    kv = KeyValueStore(ReChordRouter(net)) if store else None
    return net, TrafficPlane(net, store=kv)


class TestLookupOnStableNetwork:
    def test_all_lookups_reach_true_owner(self):
        net, plane = make_traffic_net(16, seed=7)
        rng = random.Random(0)
        expected = {}
        for i in range(30):
            origin = rng.choice(net.peer_ids)
            op_id = plane.lookup(f"k{i}", origin)
            expected[op_id] = plane.true_owner(key_id(f"k{i}", net.space))
        plane.drain()
        assert plane.collector.outcomes == {"ok": 30}
        assert plane.collector.violations == []
        by_id = {c.op_id: c for c in plane.collector.completed}
        for op_id, owner in expected.items():
            assert by_id[op_id].outcome == "ok"

    def test_hops_logarithmic_in_band(self):
        net, plane = make_traffic_net(20, seed=100)
        rng = random.Random(1)
        for i in range(40):
            plane.lookup(f"hop{i}", rng.choice(net.peer_ids))
        plane.drain()
        hops = [c.hops for c in plane.collector.completed]
        import math

        assert max(hops) <= 3 * math.log2(len(net.peer_ids)) + 3

    def test_latency_counts_rounds_not_hops_alone(self):
        """A remote op takes hops rounds forward plus one reply round."""
        net, plane = make_traffic_net(12, seed=9)
        for i in range(20):
            plane.lookup(f"lat{i}", net.peer_ids[i % len(net.peer_ids)])
        plane.drain()
        for c in plane.collector.completed:
            if c.hops and c.hops > 0:
                assert c.latency == c.hops + 1
            else:  # resolved locally at the origin, same round
                assert c.latency == 0

    def test_network_returns_to_quiescence_after_drain(self):
        net, plane = make_traffic_net(16, seed=7)
        for pid in net.peer_ids:
            plane.lookup("shared-key", pid)
        plane.drain()
        for _ in range(4):
            net.run_round()
        executed, replayed = net.activity_stats()
        assert executed == 0
        assert replayed == len(net.peers)
        assert not net.scheduler.changed_last_round


class TestInBandKeyValue:
    def test_put_then_get_round_trip(self):
        net, plane = make_traffic_net(14, seed=23, store=True)
        rng = random.Random(2)
        for i in range(25):
            plane.put(f"kv{i}", f"value-{i}", rng.choice(net.peer_ids))
        plane.drain()
        for i in range(25):
            plane.get(f"kv{i}", rng.choice(net.peer_ids))
        plane.drain()
        gets = [c for c in plane.collector.completed if c.op == OP_GET]
        assert len(gets) == 25
        assert all(c.outcome == "ok" for c in gets)
        values = {c.value for c in gets}
        assert values == {f"value-{i}" for i in range(25)}

    def test_get_of_missing_key_is_notfound(self):
        net, plane = make_traffic_net(10, seed=31, store=True)
        plane.get("never-stored", net.peer_ids[0])
        plane.drain()
        assert plane.collector.outcomes == {"notfound": 1}

    def test_kv_requires_store(self):
        net, plane = make_traffic_net(6, seed=5)
        with pytest.raises(RuntimeError):
            plane.put("x", 1, net.peer_ids[0])

    def test_true_owner_matches_chord_successor(self):
        """The bisect fast path must agree with chord_successor exactly,
        including across membership changes (cache invalidation)."""
        from repro.core.ideal import chord_successor

        net, plane = make_traffic_net(12, seed=61)
        rng = random.Random(6)
        for _ in range(50):
            kid = rng.randrange(net.space.size)
            assert plane.true_owner(kid) == chord_successor(net.space, net.peer_ids, kid)
        net.crash(net.peer_ids[3])
        for _ in range(50):
            kid = rng.randrange(net.space.size)
            assert plane.true_owner(kid) == chord_successor(net.space, net.peer_ids, kid)

    def test_put_lands_in_owner_bucket(self):
        net, plane = make_traffic_net(12, seed=37, store=True)
        plane.put("landing", 7, net.peer_ids[0])
        plane.drain()
        kid = key_id("landing", net.space)
        owner = plane.true_owner(kid)
        assert kid in plane.store.keys_at(owner)


class TestTrafficUnderChurn:
    def test_origin_dead_at_injection(self):
        net, plane = make_traffic_net(10, seed=41)
        victim = net.peer_ids[3]
        net.crash(victim)
        plane.lookup("after-crash", victim)
        assert plane.collector.outcomes == {"origin_dead": 1}
        assert plane.collector.outstanding_count() == 0

    def test_crash_midflight_times_out_or_fails(self):
        """Crashing the request's next hops strands the op; the deadline
        sweep must complete it — no stuck ledger entries."""
        net, plane = make_traffic_net(12, seed=43)
        kid = key_id("doomed", net.space)
        owner = plane.true_owner(kid)
        origin = next(p for p in net.peer_ids if p != owner)
        plane.lookup("doomed", origin, deadline=20)
        net.crash(owner)
        rounds = plane.drain(max_rounds=64)
        assert rounds <= 24
        assert plane.collector.outstanding_count() == 0
        (completed,) = plane.collector.completed
        # after the crash the key has a *new* true owner: the op either
        # reroutes successfully or fails — never hangs
        assert completed.outcome in ("ok", "misroute", "timeout", "loop", "dead_end", "ttl")

    def test_detach_with_inflight_traffic_times_out_quietly(self):
        """detach() must not crash the simulation: in-flight requests
        are dropped and the outstanding ops expire at their deadline."""
        net, plane = make_traffic_net(10, seed=59)
        gen = WorkloadGenerator(plane, rate=5, seed=1)
        kid = key_id("mid-flight", net.space)
        origin = next(p for p in net.peer_ids if p != plane.true_owner(kid))
        plane.lookup("mid-flight", origin, deadline=8)
        plane.detach()
        assert gen.active is False  # no phantom injections after detach
        for _ in range(10):
            net.run_round()  # must not raise
        plane.collector.expire(net.round_no)
        assert plane.collector.outstanding_count() == 0
        assert plane.collector.outcomes == {OUT_TIMEOUT: 1}

    def test_a_new_plane_waits_for_the_old_planes_mail(self):
        """Op ids restart at 0 in every plane: a plane attached while the
        detached one's requests and replies are in flight would handle
        them and complete its own ops with them.  Attaching is refused
        until rounds have drained that mail; then the new plane reports
        exactly what the same lookups report on a fresh network."""

        def twenty_lookups(net, plane):
            for i in range(20):
                plane.lookup(f"key-{i}", origin=net.peer_ids[i % len(net.peer_ids)])
            plane.drain()
            return plane.collector.summary()

        net = build_ideal_network(16, 1)
        old = TrafficPlane(net)
        for i in range(20):
            old.lookup(f"key-{i}", origin=net.peer_ids[i % len(net.peer_ids)])
        net.run(2)
        old.detach()
        in_flight = sum(
            isinstance(env.payload, (LookupRequest, LookupReply))
            for env in net.scheduler.all_pending()
        )
        assert in_flight > 0
        with pytest.raises(ValueError, match=rf"^{in_flight} application .*detach\(\), run rounds"):
            TrafficPlane(net)
        net.run_round()  # the null handler drops what was in flight
        fresh = build_ideal_network(16, 1)
        assert twenty_lookups(net, TrafficPlane(net)) == twenty_lookups(fresh, TrafficPlane(fresh))

    def test_delayed_mail_also_blocks_a_new_plane(self):
        net = build_ideal_network(16, 1)
        net.set_delivery_model({"kind": "constant", "delay": 3})
        old = TrafficPlane(net)
        old.lookup("slow", origin=net.peer_ids[0])
        net.run_round()
        old.detach()
        # the request waits in the future queue alone
        sched = net.scheduler
        assert [e for _, e in sched.future_pending() if isinstance(e.payload, LookupRequest)]
        assert not [e for e in sched.all_pending() if isinstance(e.payload, LookupRequest)]
        with pytest.raises(ValueError, match="still in flight"):
            TrafficPlane(net)
        net.run(3)
        TrafficPlane(net)

    def test_lookups_concurrent_with_recovery_eventually_succeed(self):
        net, plane = make_traffic_net(16, seed=47)
        victim = net.peer_ids[5]
        net.crash(victim)
        # issue traffic every round while the overlay repairs itself
        results = []
        for r in range(12):
            plane.lookup(f"c{r}", net.peer_ids[0], deadline=32)
            plane.run_round()
        plane.drain()
        net.run_until_stable(max_rounds=5000)
        # post-recovery traffic must be perfect again
        for i in range(10):
            plane.lookup(f"post{i}", net.peer_ids[-1])
        plane.drain()
        post = [c for c in plane.collector.completed if c.op_id >= 12]
        assert all(c.outcome == "ok" for c in post)


class TestEngineEquivalenceWithTraffic:
    """tests/test_engine_equivalence.py extended to the traffic plane."""

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", [3, 7])
    def test_lockstep_fingerprints_with_traffic_and_churn(self, seed, engine):
        def make(kind):
            net = build(build_random_network, kind, n=12, seed=seed)
            net.run_until_stable(max_rounds=5000)
            kv = KeyValueStore(ReChordRouter(net))
            plane = TrafficPlane(net, store=kv)
            WorkloadGenerator(
                plane,
                rate=1.5,
                op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
                seed=seed,
                deadline=32,
            )
            return net, plane

        a_net, a_plane = make(engine)
        b_net, b_plane = make("full")
        assert a_net.fingerprint() == b_net.fingerprint()
        join_rng = random.Random(seed + 1000)
        for r in range(40):
            if r == 12:
                victim = a_net.peer_ids[4]
                a_net.crash(victim)
                b_net.crash(victim)
            if r == 20:
                new_id = random_peer_ids(1, join_rng, a_net.space)[0]
                while new_id in a_net.peers:
                    new_id = random_peer_ids(1, join_rng, a_net.space)[0]
                a_net.join(new_id, a_net.peer_ids[0])
                b_net.join(new_id, b_net.peer_ids[0])
            a_plane.run_round()
            b_plane.run_round()
            assert a_net.fingerprint() == b_net.fingerprint(), f"diverged at round {r}"
            assert a_net.counters().fires == b_net.counters().fires, f"counters at {r}"
        assert a_plane.collector.summary() == b_plane.collector.summary()

    def test_change_flag_matches_fingerprint_with_traffic(self):
        """The O(active) change flag stays exact while traffic flows."""
        net, plane = make_traffic_net(10, seed=4)
        gen = WorkloadGenerator(plane, rate=0.7, seed=4, deadline=24)
        prev = net.fingerprint()
        for _ in range(40):
            plane.run_round()
            cur = net.fingerprint()
            assert net.scheduler.changed_last_round == (cur != prev)
            prev = cur

    def test_traffic_emissions_never_replayed(self):
        """Replay caching must stay exact: total messages sent with
        traffic must match the full-scan engine (no duplicated one-shot
        emissions from the steady-emission cache)."""
        nets = []
        for engine in ("columnar", "full"):
            net = build_random_network(n=10, seed=13, engine=engine)
            net.enable_telemetry()
            net.run_until_stable(max_rounds=5000)
            plane = TrafficPlane(net)
            for i in range(6):
                plane.lookup(f"t{i}", net.peer_ids[i % len(net.peer_ids)])
            plane.run(12)
            nets.append(net)
        a, b = nets
        sent_a = [sent for sent, _, _, _ in a.telemetry.rounds[-12:]]
        sent_b = [sent for sent, _, _, _ in b.telemetry.rounds[-12:]]
        assert sent_a == sent_b


class TestOptionBounds:
    """A zero or negative hop/round budget would fail ops that are still
    routing (a deadline) or answer every forwarded op with ``ttl``: each
    is rejected by name, like ``max_attempts``."""

    @pytest.mark.parametrize("name", ["default_ttl", "default_deadline"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_plane_defaults(self, name, value):
        net = stabilized(6, seed=3)
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            TrafficPlane(net, **{name: value})

    @pytest.mark.parametrize("name", ["ttl", "deadline"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_per_op_budgets(self, name, value):
        net, plane = make_traffic_net(6, seed=3)
        origin = net.peer_ids[0]
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            plane.lookup("k", origin, **{name: value})
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            plane.issue_batch([(OP_LOOKUP, 5, origin, None)], **{name: value})
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            plane.issue_batch([], **{name: value})
        assert plane.collector.summary()["issued"] == 0

    def test_negative_rounds_rejected(self):
        net, plane = make_traffic_net(6, seed=3)
        with pytest.raises(ValueError, match=r"^rounds must be non-negative, got -1$"):
            plane.run(-1)
        start = net.round_no
        plane.run(0)
        assert net.round_no == start

    def test_budgets_of_one_are_accepted(self):
        net = stabilized(6, seed=3)
        plane = TrafficPlane(net, default_ttl=1, default_deadline=1)
        plane.lookup("k", net.peer_ids[0], ttl=1, deadline=1)
        plane.drain()
        assert plane.collector.completed_count == 1


class TestWorkloadGenerator:
    def test_closed_loop_respects_max_outstanding(self):
        net, plane = make_traffic_net(10, seed=17)
        gen = WorkloadGenerator(plane, rate=10, max_outstanding=3, seed=1, deadline=16)
        for _ in range(10):
            plane.run_round()
            assert plane.collector.outstanding_count() <= 3

    def test_fractional_rate_accumulates(self):
        net, plane = make_traffic_net(8, seed=19)
        gen = WorkloadGenerator(plane, rate=0.5, seed=2)
        injected = [gen.inject() for _ in range(8)]
        assert sum(injected) == 4  # one op every other round

    def test_zipf_popularity_skews_draws(self):
        net, plane = make_traffic_net(6, seed=29)
        gen = WorkloadGenerator(plane, popularity="zipf", zipf_s=1.3, key_universe=32, seed=3)
        draws = [gen.draw_key() for _ in range(600)]
        top = draws.count("key-0")
        tail = draws.count("key-31")
        assert top > 5 * max(1, tail)

    def test_same_seed_same_schedule(self):
        net, plane = make_traffic_net(8, seed=53)
        g1 = WorkloadGenerator(plane, rate=3, seed=9)
        seq1 = [(g1.draw_op(), g1.draw_key()) for _ in range(50)]
        g2 = WorkloadGenerator(plane, rate=3, seed=9)
        seq2 = [(g2.draw_op(), g2.draw_key()) for _ in range(50)]
        assert seq1 == seq2

    def test_bad_parameters_rejected(self):
        net, plane = make_traffic_net(6, seed=5)
        with pytest.raises(ValueError):
            WorkloadGenerator(plane, rate=-1)
        with pytest.raises(ValueError):
            WorkloadGenerator(plane, key_universe=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(plane, op_mix=(("frobnicate", 1.0),))
        with pytest.raises(ValueError):
            WorkloadGenerator(plane, popularity="pareto")


class TestWorkloadInput:
    """Bad arrival-process input fails when the generator is built,
    naming the field, instead of mid-run or never."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rate": float("nan")}, "rate must be finite, got nan"),
            ({"rate": float("inf")}, "rate must be finite, got inf"),
            ({"rate": True}, "rate must be a number, got True (bool)"),
            ({"rate": "2"}, "rate must be a number, got '2' (str)"),
            ({"op_mix": ((OP_LOOKUP, float("nan")),)}, "op weight of 'lookup' must be finite, got nan"),
            ({"op_mix": ((OP_GET, float("inf")),)}, "op weight of 'get' must be finite, got inf"),
            ({"op_mix": ((OP_LOOKUP, True),)}, "op weight of 'lookup' must be a number, got True (bool)"),
            ({"popularity": "zipf", "zipf_s": float("nan")}, "zipf_s must be finite, got nan"),
            ({"key_universe": 2.5}, "key_universe must be an integer, got 2.5 (float)"),
            ({"key_universe": True}, "key_universe must be an integer, got True (bool)"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        net, plane = make_traffic_net(6, seed=5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WorkloadGenerator(plane, **kwargs)
        assert plane.generator is None


class TestRouteEntryExactness:
    """The plane reuses a peer's cached route entry only while the
    peer's ``state.version`` equals the entry's: a current entry must
    equal a fresh derivation from ``state.nodes``, and every peer that
    routed a request in a round must have routed it by a current one,
    through joins, crashes and adversarial edits of routing state."""

    EVENTS = {
        3: ("flash_crowd", {"count": 2}),
        7: ("crash_wave", {"count": 2}),
        11: ("poison_fingers", {"fraction": 0.5}),
        15: ("phantom_refs", {"fraction": 0.5}),
        19: ("crash_wave", {"count": 1, "targeting": "extremes"}),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_current_entries_equal_a_fresh_derivation(self, engine):
        net = build(build_ideal_network, engine, 20, 4)
        plane = TrafficPlane(net)
        WorkloadGenerator(plane, rate=6, key_universe=128, seed=8)
        ctx = EventContext(net, plane)
        rng = random.Random(12)
        routed: set = set()
        handle = plane.handle

        def recording_handle(peer, payloads, round_ctx):
            if any(isinstance(p, LookupRequest) for p in payloads):
                routed.add(peer.state.peer_id)
            handle(peer, payloads, round_ctx)

        plane.handle = recording_handle
        exact = 0
        for round_no in range(36):
            if round_no in self.EVENTS:
                kind, params = self.EVENTS[round_no]
                apply_event_spec(ctx, rng, kind, params)
            routed.clear()
            plane.run_round()
            for pid in routed:
                assert plane._routes[pid][0] == net.peers[pid].state.version, (round_no, pid)
            for pid, entry in plane._routes.items():
                peer = net.peers.get(pid)
                if peer is not None and entry[0] == peer.state.version:
                    assert entry == TrafficPlane.route_entry(peer.state), (round_no, pid)
                    exact += 1
        assert sum(ctx.census.values()) >= 10  # every event kind applied
        assert set(ctx.census) >= {"join", "crash", "poison_edge", "virtual_level"}
        assert exact > 36 * 10


class TestSLOCollector:
    @staticmethod
    def _collector(truth: int = 42) -> SLOCollector:
        return SLOCollector(lambda kid: truth)

    @staticmethod
    def _issued(op_id: int, origin: int = 1, kid: int = 5) -> IssuedOp:
        return IssuedOp(op_id=op_id, op=OP_LOOKUP, origin=origin, kid=kid, issue_round=0, deadline=10)

    @staticmethod
    def _reply(op_id: int, owner: int, status: str = ST_OK, origin: int = 1, kid: int = 5) -> LookupReply:
        return LookupReply(op=OP_LOOKUP, op_id=op_id, origin=origin, kid=kid, status=status, owner=owner, hops=3)

    def test_misroute_classified_against_true_owner(self):
        col = self._collector(truth=42)
        col.register(self._issued(0))
        col.on_reply(self._reply(0, owner=99), round_no=4)
        assert col.outcomes == {"misroute": 1}

    def test_answer_time_truth_beats_completion_time_truth(self):
        """Churn during the reply's transit round must not reclassify a
        correct answer as a misroute: the truth sampled when the
        terminal peer answered wins over the completion-time truth."""
        col = SLOCollector(lambda kid: 99)  # completion-time truth moved on
        col.register(self._issued(0))
        col.note_answer_truth(0, 42)  # owner 42 was correct when it answered
        col.on_reply(self._reply(0, owner=42), round_no=4)
        assert col.outcomes == {ST_OK: 1}
        assert col._answer_truth == {}  # side table cleaned up

    def test_monotonic_violation_counted(self):
        col = self._collector()
        col.register(self._issued(0))
        col.on_reply(self._reply(0, owner=42), round_no=4)
        col.register(self._issued(1))
        assert col.expire(round_no=11) == 1
        assert col.outcomes == {ST_OK: 1, OUT_TIMEOUT: 1}
        assert len(col.violations) == 1
        assert col.violations[0].outcome == OUT_TIMEOUT

    def test_failure_before_any_success_is_not_a_violation(self):
        col = self._collector()
        col.register(self._issued(0))
        col.expire(round_no=11)
        assert col.violations == []

    def test_different_origin_is_a_different_search(self):
        col = self._collector()
        col.register(self._issued(0, origin=1))
        col.on_reply(self._reply(0, owner=42, origin=1), round_no=3)
        col.register(self._issued(1, origin=2))
        col.expire(round_no=11)
        assert col.violations == []  # origin 2 never succeeded before

    def test_late_reply_after_timeout_ignored(self):
        col = self._collector()
        col.register(self._issued(0))
        col.expire(round_no=11)
        col.on_reply(self._reply(0, owner=42), round_no=12)
        assert col.late_replies == 1
        assert col.outcomes == {OUT_TIMEOUT: 1}

    def test_duplicate_op_id_rejected(self):
        col = self._collector()
        col.register(self._issued(0))
        with pytest.raises(ValueError):
            col.register(self._issued(0))

    def test_latency_histogram_buckets(self):
        hist = latency_histogram(Counter([1, 2, 2, 5, 300]), bounds=(1, 2, 4, 8))
        assert hist == [("<=1", 1), ("<=2", 2), ("<=4", 0), ("<=8", 1), (">8", 1)]

    def test_latency_histogram_empty_inputs_defined(self):
        """Regression (ISSUE-6): empty samples and empty bounds must
        return defined values, not IndexError on the overflow label."""
        assert latency_histogram({}) == [
            (f"<={e}", 0) for e in (1, 2, 4, 8, 16, 32, 64, 128, 256)
        ] + [(">256", 0)]
        assert latency_histogram(Counter([3, 9]), bounds=()) == [("all", 2)]
        assert latency_histogram({}, bounds=()) == [("all", 0)]


class TestPercentile:
    """Nearest-rank percentile edges (ISSUE-6 regression)."""

    def test_exact_rank_boundaries(self):
        values = list(range(1, 21))  # 1..20
        # 95% of 20 = rank 19 exactly; the historical q/100*n form
        # computed 19.000000000000004 and over-selected rank 20
        assert percentile(values, 95) == 19.0
        assert percentile(values, 100) == 20.0
        assert percentile(values, 5) == 1.0
        assert percentile(values, 0) == 1.0  # q=0 is the minimum
        assert percentile(values, 50) == 10.0

    def test_single_sample_every_q(self):
        for q in (0, 1, 50, 95, 100):
            assert percentile([7.5], q) == 7.5

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            percentile([], 95)
        assert percentile([], 95, default=0.0) == 0.0

    def test_q_out_of_range_rejected(self):
        for q in (-1, 100.5):
            with pytest.raises(ValueError):
                percentile([1, 2, 3], q)


class TestPayloadSurface:
    def test_requests_are_fingerprintable_and_ref_free(self):
        from repro.netsim.messages import envelope_fingerprint, Envelope

        from repro.traffic.messages import LookupRequest

        req = LookupRequest(op=OP_LOOKUP, op_id=1, origin=2, kid=3, ttl=8, path=(2,))
        assert req.refs() == ()
        assert isinstance(hash(req.canonical()), int)
        assert isinstance(envelope_fingerprint(Envelope(2, 2, req)), int)
        fwd = req.forwarded(9)
        assert fwd.hops == 1 and fwd.path == (2, 9)
        assert fwd.canonical() != req.canonical()

    def test_traffic_without_plane_fails_loudly(self):
        from repro.netsim.messages import Envelope
        from repro.traffic.messages import LookupRequest

        net = stabilized(6, seed=3)
        req = LookupRequest(op=OP_LOOKUP, op_id=0, origin=net.peer_ids[0], kid=1, ttl=8)
        net.scheduler.post(Envelope(net.peer_ids[0], net.peer_ids[0], req))
        with pytest.raises(TypeError, match="no traffic plane"):
            net.run_round()
