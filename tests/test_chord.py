"""Classic Chord baseline: maintenance and non-self-stabilization."""

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


def perfect_ring(ids, **kw) -> ChordNetwork:
    """A correct ring: every successor pointer is the true one."""
    ordered = sorted(set(ids))
    succ = {u: ordered[(i + 1) % len(ordered)] for i, u in enumerate(ordered)}
    return ChordNetwork.from_successor_map(succ, SPACE, **kw)


def fingers_correct(net: ChordNetwork, u: int) -> bool:
    """Whether peer ``u``'s filled finger entries are all correct."""
    for i, have in net.peers[u].fingers.entries.items():
        if have is not None and have != chord_successor(
            SPACE, net.peer_ids, SPACE.finger_target(u, i)
        ):
            return False
    return True


class TestFingerTable:
    def test_initially_empty(self):
        ft = FingerTable(SPACE)
        assert ft.known() == []
        assert ft.entries[1] is None

    def test_set_get(self):
        ft = FingerTable(SPACE)
        ft.set(3, 99)
        assert ft.entries[3] == 99
        assert ft.known() == [99]

    def test_out_of_range(self):
        ft = FingerTable(SPACE)
        with pytest.raises(IndexError):
            ft.set(0, 1)
        with pytest.raises(IndexError):
            ft.set(SPACE.bits + 1, 1)


class TestPerfectRing:
    def test_ring_stays_correct(self):
        net = perfect_ring(some_ids(10), fingers_per_round=2)
        net.run(50)
        assert net.ring_correct()

    def test_fingers_converge(self):
        net = perfect_ring(some_ids(8), fingers_per_round=4)
        net.run(80)
        assert all(fingers_correct(net, u) for u in net.peer_ids)

    def test_predecessors_correct(self):
        ids = some_ids(6)
        net = perfect_ring(ids)
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



class TestClosestPrecedingNode:
    """The next hop of an iterative find_successor: the known peer that
    gets closest to the key without reaching or passing it."""

    def peer(self, pid, successor, fingers=()):
        p = ChordPeer(pid, SPACE)
        p.successor = successor
        for i, f in enumerate(fingers, start=1):
            p.fingers.set(i, f)
        return p

    def test_no_other_peer_known_returns_self(self):
        assert self.peer(100, 100).closest_preceding_node(5000) == 100

    def test_picks_the_candidate_nearest_before_the_key(self):
        p = self.peer(100, 200, fingers=(40000, 9000, 3000))
        assert p.closest_preceding_node(10000) == 9000
        assert p.closest_preceding_node(8000) == 3000
        assert p.closest_preceding_node(150) == 100  # nothing precedes it

    def test_a_candidate_at_the_key_is_not_a_predecessor(self):
        p = self.peer(100, 200, fingers=(9000,))
        assert p.closest_preceding_node(9000) == 200

    def test_wraps_past_zero(self):
        top = SPACE.size - 100
        p = self.peer(top, SPACE.size - 10, fingers=(50, 900))
        assert p.closest_preceding_node(60) == 50
        assert p.closest_preceding_node(5) == SPACE.size - 10


class TestJoinByStabilization:
    """Classic Chord's join: a newcomer that only knows its successor is
    spliced in by stabilize/notify, while the ring never points at it."""

    @pytest.mark.parametrize("joiners", [1, 2, 5])
    def test_newcomers_are_spliced_in(self, joiners):
        ids = sorted(some_ids(12, seed=joiners))
        newcomers = set(random.Random(joiners).sample(ids, joiners))
        ring = [u for u in ids if u not in newcomers]
        succ = {u: ring[(i + 1) % len(ring)] for i, u in enumerate(ring)}
        for u in newcomers:
            succ[u] = chord_successor(SPACE, ring, u)
        net = ChordNetwork.from_successor_map(succ, SPACE)
        assert not net.ring_correct()
        net.run(20 * joiners)
        assert net.ring_correct()
        for u in ids:
            assert net.peers[u].successor == net.true_successor(u)

    def test_true_successor_wraps(self):
        net = perfect_ring([10, 20, 30])
        assert [net.true_successor(u) for u in (10, 20, 30)] == [20, 30, 10]


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
    node delegates to: the dedup-and-truncate merge."""

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

    def test_node_successor_list_is_deduped_and_truncated(self):
        """End to end: the baseline ring converges to deduped, truncated
        successor lists that never name their holder."""
        ids = some_ids(10, seed=3)
        net = perfect_ring(ids)
        net.run(30)
        for pid, peer in net.peers.items():
            lst = peer.successor_list
            assert lst
            assert pid not in lst
            assert len(lst) == len(set(lst)) <= peer.successor_list_len
