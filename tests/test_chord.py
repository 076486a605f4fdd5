"""Classic Chord baseline: maintenance, lookups, churn, non-self-stabilization."""

from __future__ import annotations

import random

import pytest

from repro.chord.network import ChordNetwork
from repro.chord.node import ChordPeer, FingerTable
from repro.core.ideal import chord_successor
from repro.idspace.ring import IdSpace
from repro.workloads.initial import random_peer_ids

SPACE = IdSpace(16)


def some_ids(n: int, seed: int = 0):
    return random_peer_ids(n, random.Random(seed), SPACE)


class TestFingerTable:
    def test_initially_empty(self):
        ft = FingerTable(SPACE)
        assert ft.known() == []
        assert ft.get(1) is None

    def test_set_get(self):
        ft = FingerTable(SPACE)
        ft.set(3, 99)
        assert ft.get(3) == 99
        assert ft.known() == [99]

    def test_out_of_range(self):
        ft = FingerTable(SPACE)
        with pytest.raises(IndexError):
            ft.set(0, 1)
        with pytest.raises(IndexError):
            ft.set(SPACE.bits + 1, 1)

    def test_drop_value(self):
        ft = FingerTable(SPACE)
        ft.set(1, 5)
        ft.set(2, 5)
        ft.set(3, 7)
        ft.drop_value(5)
        assert ft.known() == [7]


class TestPerfectRing:
    def test_ring_stays_correct(self):
        net = ChordNetwork.perfect_ring(some_ids(10), SPACE, fingers_per_round=2)
        net.run(50)
        assert net.ring_correct()
        assert net.ring_errors() == []

    def test_fingers_converge(self):
        net = ChordNetwork.perfect_ring(some_ids(8), SPACE, fingers_per_round=4)
        net.run(80)
        assert all(net.fingers_correct(u) for u in net.peer_ids)

    def test_predecessors_correct(self):
        ids = some_ids(6)
        net = ChordNetwork.perfect_ring(ids, SPACE)
        net.run(30)
        ordered = sorted(ids)
        for i, u in enumerate(ordered):
            assert net.peers[u].predecessor == ordered[(i - 1) % len(ordered)]

    def test_duplicate_peer_rejected(self):
        net = ChordNetwork(SPACE)
        net.add_peer(5)
        with pytest.raises(ValueError):
            net.add_peer(5)

    def test_negative_fingers_per_round_rejected(self):
        with pytest.raises(ValueError, match=r"^fingers_per_round must be non-negative, got -1$"):
            ChordPeer(some_ids(1)[0], SPACE, fingers_per_round=-1)
        with pytest.raises(ValueError, match="fingers_per_round"):
            ChordNetwork(SPACE, fingers_per_round=-1).add_peer(some_ids(1)[0])
        assert ChordPeer(some_ids(1)[0], SPACE, fingers_per_round=0).fingers_per_round == 0


class TestLookups:
    def test_lookup_finds_responsible_peer(self):
        ids = some_ids(10, seed=1)
        net = ChordNetwork.perfect_ring(ids, SPACE, fingers_per_round=4)
        net.run(80)
        rng = random.Random(2)
        for _ in range(10):
            key = rng.randrange(SPACE.size)
            owner, hops, rounds = net.lookup(rng.choice(ids), key)
            assert owner == chord_successor(SPACE, ids, key)
            assert rounds >= 1

    def test_lookup_hops_logarithmic(self):
        ids = some_ids(24, seed=3)
        net = ChordNetwork.perfect_ring(ids, SPACE, fingers_per_round=8)
        net.run(60)
        rng = random.Random(4)
        hops = [
            net.lookup(rng.choice(ids), rng.randrange(SPACE.size))[1]
            for _ in range(15)
        ]
        assert max(hops) <= 12  # ~2*log2(24) with slack

    def test_lookup_from_singleton(self):
        net = ChordNetwork.perfect_ring([1000], SPACE)
        owner, hops, _ = net.lookup(1000, 5)
        assert owner == 1000 and hops == 0


class TestChurn:
    def test_join_integrates(self):
        ids = some_ids(8, seed=5)
        net = ChordNetwork.perfect_ring(ids, SPACE, fingers_per_round=4)
        net.run(20)
        new_id = next(i for i in range(SPACE.size) if i not in net.peers)
        net.join(new_id, ids[0])
        net.run(60)
        assert net.ring_correct()

    def test_join_requires_gateway(self):
        net = ChordNetwork.perfect_ring(some_ids(4), SPACE)
        with pytest.raises(KeyError):
            net.join(1, gateway_id=999999)

    def test_graceful_leave(self):
        ids = some_ids(8, seed=6)
        net = ChordNetwork.perfect_ring(ids, SPACE, fingers_per_round=4)
        net.run(20)
        net.leave(ids[3])
        net.run(40)
        assert net.ring_correct()

    def test_crash_recovery_via_successor_lists(self):
        ids = some_ids(10, seed=7)
        net = ChordNetwork.perfect_ring(ids, SPACE, fingers_per_round=4)
        net.run(30)  # successor lists populated
        net.crash(ids[4])
        net.run(60)
        assert net.ring_correct()

    def test_crash_unknown_raises(self):
        net = ChordNetwork.perfect_ring(some_ids(4), SPACE)
        with pytest.raises(KeyError):
            net.crash(999999)


class TestNotSelfStabilizing:
    """The paper's motivation (Section 1): classic Chord cannot recover
    from arbitrary states."""

    def test_two_rings_is_a_fixed_point(self):
        ids = some_ids(12, seed=8)
        net = ChordNetwork.two_rings(ids, SPACE, fingers_per_round=2)
        net.run(300)
        assert not net.ring_correct()
        # both parity rings are still separate: successors stay in-ring
        ordered = sorted(ids)
        evens = set(ordered[0::2])
        for u in evens:
            assert net.peers[u].successor in evens

    def test_two_rings_needs_four_peers(self):
        with pytest.raises(ValueError):
            ChordNetwork.two_rings(some_ids(3), SPACE)

    def test_from_successor_map_validates(self):
        with pytest.raises(ValueError):
            ChordNetwork.from_successor_map({1: 2}, SPACE)

    def test_rechord_recovers_the_same_split(self):
        """Contrast: Re-Chord stabilizes from the interleaved split."""
        from repro.workloads.initial import build_two_rings_network as _rechord_two_rings

        ids = some_ids(12, seed=8)
        net = _rechord_two_rings(ids, SPACE)
        net.run_until_stable(max_rounds=5000)
        assert net.matches_ideal()


class TestSuccessorListHelpers:
    """The shared maintenance pattern (`chord/routing.py`) the baseline
    node delegates to: dedup-and-truncate merge + dead-entry pruning."""

    def test_merge_prepends_successor_and_truncates(self):
        from repro.chord.routing import merge_successor_list

        assert merge_successor_list(20, (30, 40, 50, 60), me=10, length=3) == [20, 30, 40]

    def test_merge_drops_duplicates_keeping_first_occurrence(self):
        from repro.chord.routing import merge_successor_list

        # 20 advertised again, 30 advertised twice: first position wins
        assert merge_successor_list(20, (20, 30, 30, 40, 30), me=10, length=8) == [20, 30, 40]

    def test_merge_never_includes_self(self):
        from repro.chord.routing import merge_successor_list

        assert merge_successor_list(20, (10, 30, 10, 40), me=10, length=8) == [20, 30, 40]

    def test_merge_empty_advertisement_keeps_successor(self):
        from repro.chord.routing import merge_successor_list

        assert merge_successor_list(20, (), me=10, length=4) == [20]

    def test_prune_drops_dead_entries_preserving_order(self):
        from repro.chord.routing import prune_successor_list

        alive = {20, 40, 50}
        assert prune_successor_list([20, 30, 40, 50], alive.__contains__) == [20, 40, 50]

    def test_prune_all_dead_yields_empty(self):
        from repro.chord.routing import prune_successor_list

        assert prune_successor_list([30, 60], lambda _p: False) == []

    def test_node_successor_list_survives_duplicates_and_deaths(self):
        """End to end: the baseline ring converges to pruned, deduped,
        truncated successor lists even after a crash."""
        ids = some_ids(10, seed=3)
        net = ChordNetwork.perfect_ring(ids, SPACE)
        net.run(30)
        victim = sorted(ids)[1]
        net.crash(victim)
        net.run(30)
        for pid, peer in net.peers.items():
            lst = peer.successor_list
            assert victim not in lst
            assert pid not in lst
            assert len(lst) == len(set(lst)) <= peer.successor_list_len
