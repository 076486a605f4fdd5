"""DHT layer: routing over the stable overlay, replicated storage."""

from __future__ import annotations

import math
import random

import pytest

from repro.chord.routing import RouteResult, RoutingError, route_greedy
from repro.core.ideal import chord_successor
from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyNotFound, KeyValueStore
from repro.idspace.keys import key_id
from repro.workloads.initial import random_peer_ids
from tests.conftest import stabilized


@pytest.fixture(scope="module")
def net20():
    return stabilized(20, seed=100)


@pytest.fixture()
def router(net20):
    return ReChordRouter(net20)


class TestRouter:
    def test_routes_reach_responsible_peer(self, router, net20):
        rng = random.Random(0)
        for _ in range(25):
            start = rng.choice(net20.peer_ids)
            key = rng.randrange(net20.space.size)
            res = router.route_id(start, key)
            assert res.owner == chord_successor(net20.space, net20.peer_ids, key)
            assert res.path[0] == start and res.path[-1] == res.owner

    def test_hops_logarithmic(self, router, net20):
        rng = random.Random(1)
        hops = [
            router.route_id(rng.choice(net20.peer_ids), rng.randrange(net20.space.size)).hops
            for _ in range(40)
        ]
        bound = 3 * math.log2(len(net20.peer_ids)) + 3
        assert max(hops) <= bound

    def test_path_makes_clockwise_progress(self, router, net20):
        rng = random.Random(2)
        space = net20.space
        for _ in range(10):
            start = rng.choice(net20.peer_ids)
            key = rng.randrange(space.size)
            res = router.route_id(start, key)
            distances = [space.distance_cw(p, key) for p in res.path]
            # every hop strictly decreases the clockwise distance, except
            # the terminal hop onto the owner (the successor *of* the key,
            # which sits just past it)
            for a, b in zip(distances[:-1], distances[1:-1]):
                assert b < a

    def test_route_key_by_name(self, router, net20):
        res = router.route_key(net20.peer_ids[0], "hello-world")
        kid = key_id("hello-world", net20.space)
        assert res.owner == chord_successor(net20.space, net20.peer_ids, kid)


class TestRouteGreedyEdgeCases:
    def test_zero_hops_when_start_owns(self, net20):
        space = net20.space
        start = net20.peer_ids[0]
        res = route_greedy(space, net20.peer_ids, lambda u: set(), start, start)
        assert res.owner == start and res.hops == 0

    def test_dead_end_raises(self, net20):
        space = net20.space
        start = net20.peer_ids[0]
        other = net20.peer_ids[1]
        key = (other + 1) % space.size
        owner = chord_successor(space, net20.peer_ids, key)
        if owner == start:
            key = (start + 1) % space.size
        with pytest.raises(RoutingError):
            route_greedy(space, net20.peer_ids, lambda u: set(), start, key)


class TestKeyValueStore:
    def test_put_get_round_trip(self, router, net20):
        store = KeyValueStore(router)
        rng = random.Random(3)
        for i in range(40):
            store.put(f"k{i}", i, via=rng.choice(net20.peer_ids))
        for i in range(40):
            assert store.get(f"k{i}", via=rng.choice(net20.peer_ids)) == i

    def test_get_missing_raises(self, router):
        store = KeyValueStore(router)
        with pytest.raises(KeyNotFound):
            store.get("never-stored")

    def test_replication_factor_bounds(self, router):
        with pytest.raises(ValueError):
            KeyValueStore(router, replication=0)

    def test_replicas_on_distinct_ring_successors(self, router, net20):
        store = KeyValueStore(router, replication=3)
        store.put("replicated", 42)
        kid = key_id("replicated", net20.space)
        replicas = store.replica_peers(kid)
        assert len(set(replicas)) == 3
        for pid in replicas:
            assert store.local_get(pid, kid)[0]

    def test_placements_count(self, router):
        store = KeyValueStore(router, replication=2)
        for i in range(10):
            store.put(f"p{i}", i)
        assert store.total_placements() == 20

    def test_stats_recorded(self, router, net20):
        store = KeyValueStore(router)
        store.put("a", 1, via=net20.peer_ids[0])
        store.get("a", via=net20.peer_ids[-1])
        assert store.stats.puts == 1 and store.stats.gets == 1
        assert len(store.stats.hop_samples) == 2

    def test_load_per_peer_sums_to_placements(self, router):
        store = KeyValueStore(router, replication=2)
        for i in range(15):
            store.put(f"q{i}", i)
        assert sum(store.load_per_peer().values()) == store.total_placements()


class TestRouteGreedyHardening:
    """Loop detection and machine-readable failure kinds."""

    @staticmethod
    def _ring_with_back_edge(net):
        """A corrupt view: everyone points only *backwards* except one
        forward edge, forming a cycle that never reaches most keys."""
        ids = sorted(net.peer_ids)
        views = {}
        for i, u in enumerate(ids):
            views[u] = {ids[(i + 1) % len(ids)], ids[(i - 1) % len(ids)]}
        return views

    def test_loop_detected_before_hop_limit(self, net20):
        """Two peers pointing only at each other loop; the seen-set must
        catch it in O(cycle) hops, not after max_hops."""
        space = net20.space
        ids = sorted(net20.peer_ids)
        a, b = ids[0], ids[1]
        views = {a: {b}, b: {a}}
        key = (ids[2] + 1) % space.size
        owner = chord_successor(space, net20.peer_ids, key)
        if owner in (a, b):
            key = (ids[3] + 1) % space.size
        res = route_greedy(
            space, net20.peer_ids, lambda u: views[u], a, key, max_hops=500, strict=False
        )
        assert res.status == "loop"
        assert res.hops < 10

    def test_loop_raises_in_strict_mode_with_kind(self, net20):
        space = net20.space
        ids = sorted(net20.peer_ids)
        a, b = ids[0], ids[1]
        views = {a: {b}, b: {a}}
        key = (ids[2] + 1) % space.size
        if chord_successor(space, net20.peer_ids, key) in (a, b):
            key = (ids[3] + 1) % space.size
        with pytest.raises(RoutingError) as exc:
            route_greedy(space, net20.peer_ids, lambda u: views[u], a, key)
        assert exc.value.kind == "loop"
        assert exc.value.result is not None
        assert exc.value.result.status == "loop"

    def test_dead_end_surfaced_nonstrict(self, net20):
        space = net20.space
        start = net20.peer_ids[0]
        key = (net20.peer_ids[1] + 1) % space.size
        if chord_successor(space, net20.peer_ids, key) == start:
            key = (start + 1) % space.size
        res = route_greedy(space, net20.peer_ids, lambda u: set(), start, key, strict=False)
        assert res.status == "dead_end"
        assert res.owner == start  # last peer reached
        assert res.path == (start,)

    def test_exact_max_hops_arrival_is_success(self):
        """Reaching the owner on the max_hops-th hop is a success, not a
        hop_limit failure (boundary regression)."""
        from repro.idspace.ring import IdSpace

        space = IdSpace(8)
        ids = [10, 20, 30, 40, 50]
        views = {10: {20}, 20: {30}, 30: {40}, 40: {50}, 50: {10}}
        res = route_greedy(space, ids, lambda u: views[u], 10, 45, max_hops=4, strict=False)
        assert res.status == "ok" and res.owner == 50 and res.hops == 4
        with pytest.raises(RoutingError) as exc:
            route_greedy(space, ids, lambda u: views[u], 10, 45, max_hops=3)
        assert exc.value.kind == "hop_limit"

    def test_ok_status_on_success(self, router, net20):
        res = router.route_id(net20.peer_ids[0], net20.peer_ids[-1])
        assert res.status == "ok"

    def test_default_route_result_is_ok(self):
        assert RouteResult(1, 0, (1,)).status == "ok"


class TestRouterStaleness:
    """The version-keyed view cache (staleness footgun fix)."""

    def test_auto_mode_survives_churn(self):
        net = stabilized(12, seed=103)
        router = ReChordRouter(net)
        victim = net.peer_ids[4]
        net.crash(victim)
        net.run_until_stable(max_rounds=5000)
        assert router.is_stale()
        rng = random.Random(7)
        for _ in range(20):
            res = router.route_id(rng.choice(net.peer_ids), rng.randrange(net.space.size))
            assert res.status == "ok"
            assert victim not in res.path  # never routed through the dead peer
        assert not router.is_stale()

    def test_rounds_bump_view_version(self):
        net = stabilized(6, seed=106)
        v0 = net.view_version()
        net.run_round()
        assert net.view_version() != v0


class TestChurnSurvival:
    def test_data_survives_crash_with_replication(self):
        net = stabilized(12, seed=101)
        router = ReChordRouter(net)
        store = KeyValueStore(router, replication=3)
        keys = [f"key-{i}" for i in range(30)]
        for i, k in enumerate(keys):
            store.put(k, i)
        # crash one replica holder of some key
        victim_kid = key_id(keys[0], net.space)
        victim = store.replica_peers(victim_kid)[0]
        net.crash(victim)
        net.run_until_stable(max_rounds=5000)
        store.drop_peer(victim)
        store.rebalance()
        for i, k in enumerate(keys):
            assert store.get(k, via=net.peer_ids[0]) == i

    def test_rebalance_after_join_moves_keys(self):
        net = stabilized(8, seed=102)
        router = ReChordRouter(net)
        store = KeyValueStore(router, replication=1)
        for i in range(50):
            store.put(f"k{i}", i)
        rng = random.Random(5)
        from repro.workloads.initial import random_peer_ids

        new_id = random_peer_ids(1, rng, net.space)[0]
        while new_id in net.peers:
            new_id = random_peer_ids(1, rng, net.space)[0]
        net.join(new_id, net.peer_ids[0])
        net.run_until_stable(max_rounds=5000)
        store.rebalance()
        # every key readable and placed at its current responsible peer
        for i in range(50):
            assert store.get(f"k{i}") == i
        for kid in list(store._data.get(new_id, ())):
            assert chord_successor(net.space, net.peer_ids, kid) == new_id


class TestRebalanceUnderCrashChurn:
    """KeyValueStore.rebalance against replica loss (satellite of the
    traffic-plane PR): data survives as long as one replica survives,
    KeyNotFound fires only when *all* replicas crashed, and the
    responsibility map is fully re-established afterwards."""

    @staticmethod
    def _build(n: int, seed: int, replication: int):
        net = stabilized(n, seed=seed)
        store = KeyValueStore(ReChordRouter(net), replication=replication)
        keys = [f"key-{i}" for i in range(40)]
        for i, k in enumerate(keys):
            store.put(k, i)
        return net, store, keys

    @staticmethod
    def _crash(net, store, victims):
        for v in victims:
            net.crash(v)
            store.drop_peer(v)
        net.run_until_stable(max_rounds=5000)

    def test_single_replica_survivor_is_enough(self):
        net, store, keys = self._build(14, seed=201, replication=3)
        kid = key_id(keys[0], net.space)
        victims = store.replica_peers(kid)[:2]  # kill 2 of 3 replicas
        self._crash(net, store, victims)
        store.rebalance()
        for i, k in enumerate(keys):
            assert store.get(k, via=net.peer_ids[0]) == i

    def test_key_not_found_only_when_all_replicas_crashed(self):
        net, store, keys = self._build(14, seed=202, replication=2)
        kid = key_id(keys[0], net.space)
        doomed = store.replica_peers(kid)
        # keys that shared no replica peer with the doomed set must survive
        survivors = [
            k for k in keys
            if not set(store.replica_peers(key_id(k, net.space))) & set(doomed)
        ]
        assert survivors, "seed produced no disjoint keys; pick another"
        self._crash(net, store, doomed)
        store.rebalance()
        with pytest.raises(KeyNotFound):
            store.get(keys[0])
        for k in survivors:
            assert store.get(k) is not None

    def test_rebalance_restores_full_replication(self):
        net, store, keys = self._build(16, seed=203, replication=3)
        kid = key_id(keys[3], net.space)
        self._crash(net, store, store.replica_peers(kid)[:1])
        store.rebalance()
        live = set(net.peer_ids)
        for k in keys:
            k_id = key_id(k, net.space)
            want = store.replica_peers(k_id)
            assert len(want) == min(3, len(live))
            for pid in want:
                assert store.local_get(pid, k_id)[0], f"{k} missing at replica {pid}"

    def test_responsibility_map_shifts_to_new_successors(self):
        net, store, keys = self._build(12, seed=204, replication=2)
        kid = key_id(keys[0], net.space)
        old_owner = store.replica_peers(kid)[0]
        self._crash(net, store, [old_owner])
        store.rebalance()
        new_owner = chord_successor(net.space, net.peer_ids, kid)
        assert new_owner != old_owner
        assert store.local_get(new_owner, kid)[0]
        # no placements remain on peers outside current membership
        live = set(net.peer_ids)
        for pid in store.load_per_peer():
            assert pid in live

    def test_repeated_crash_rebalance_cycles(self):
        """Sequential crash bursts: the store stays consistent as long
        as churn never outpaces replication."""
        net, store, keys = self._build(18, seed=205, replication=3)
        rng = random.Random(99)
        for _ in range(3):
            victim = rng.choice(net.peer_ids)
            self._crash(net, store, [victim])
            moved = store.rebalance()
            assert moved >= 0
            for i, k in enumerate(keys):
                assert store.get(k, via=net.peer_ids[0]) == i
