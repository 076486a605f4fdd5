"""Section 4 — joins, graceful leaves and crashes on a stable network."""

from __future__ import annotations

import random

import pytest

from repro.workloads.churn import ChurnEvent, ChurnSchedule, apply_event
from repro.workloads.initial import random_peer_ids
from tests.conftest import stabilized

MAX_ROUNDS = 5000


def fresh_id(net, rng) -> int:
    new = random_peer_ids(1, rng, net.space)[0]
    while new in net.peers:
        new = random_peer_ids(1, rng, net.space)[0]
    return new


class TestJoin:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_join_restabilizes_to_ideal(self, seed):
        net = stabilized(12, seed=seed)
        rng = random.Random(seed)
        new_id = fresh_id(net, rng)
        net.join(new_id, rng.choice(net.peer_ids))
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert new_id in net.peers
        assert net.matches_ideal(), net.ideal_mismatches(limit=5)

    def test_join_into_singleton(self):
        net = stabilized(1, seed=0)
        rng = random.Random(0)
        new_id = fresh_id(net, rng)
        net.join(new_id, net.peer_ids[0])
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net.matches_ideal()

    def test_join_requires_live_gateway(self):
        net = stabilized(3, seed=0)
        with pytest.raises(KeyError):
            net.join(12345, gateway_id=999999)

    def test_join_duplicate_id_rejected(self):
        net = stabilized(3, seed=0)
        with pytest.raises(ValueError):
            net.join(net.peer_ids[0], net.peer_ids[1])

    def test_join_cost_polylog(self):
        """Theorem 4.1: far fewer rounds than fresh stabilization."""
        net = stabilized(40, seed=3)
        rng = random.Random(3)
        new_id = fresh_id(net, rng)
        net.join(new_id, rng.choice(net.peer_ids))
        report = net.run_until_stable(max_rounds=MAX_ROUNDS)
        # log2(41)^2 ≈ 29; generous factor over it, but well below n
        assert report.rounds_to_stable <= 80

    def test_sequential_joins(self):
        net = stabilized(6, seed=4)
        rng = random.Random(4)
        for _ in range(3):
            new_id = fresh_id(net, rng)
            net.join(new_id, rng.choice(net.peer_ids))
            net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert len(net.peers) == 9
        assert net.matches_ideal()


class TestLeaveAndCrash:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_graceful_leave_restabilizes(self, seed):
        net = stabilized(12, seed=seed)
        victim = net.peer_ids[5]
        net.leave(victim)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert victim not in net.peers
        assert net.matches_ideal()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crash_restabilizes(self, seed):
        net = stabilized(12, seed=seed)
        victim = net.peer_ids[7]
        net.crash(victim)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net.matches_ideal()

    def test_crash_of_extreme_peer(self):
        """Crashing the ring-edge holder exercises seam repair."""
        net = stabilized(10, seed=2)
        net.crash(net.peer_ids[-1])
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net.matches_ideal()
        net2 = stabilized(10, seed=3)
        net2.crash(net2.peer_ids[0])
        net2.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net2.matches_ideal()

    def test_multiple_simultaneous_crashes(self):
        net = stabilized(14, seed=5)
        for victim in net.peer_ids[3:6]:
            net.crash(victim)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert len(net.peers) == 11
        assert net.matches_ideal()

    def test_leave_unknown_peer_raises(self):
        net = stabilized(3, seed=0)
        with pytest.raises(KeyError):
            net.leave(424242)
        with pytest.raises(KeyError):
            net.crash(424242)

    def test_leave_cheaper_than_fresh_stabilization(self):
        """Theorem 4.2: leaves repair in O(log n) rounds."""
        net = stabilized(40, seed=6)
        fresh = stabilized(40, seed=7)  # reference cost exists
        victim = net.peer_ids[20]
        net.leave(victim)
        report = net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert report.rounds_to_stable <= 40


class TestChurnSchedules:
    def test_random_schedule_applies_cleanly(self):
        net = stabilized(10, seed=8)
        schedule = ChurnSchedule.random(net, events=6, seed=8)
        assert len(schedule.events) == 6
        for event in schedule:
            apply_event(net, event)
            net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net.matches_ideal()

    def test_schedule_never_empties_network(self):
        net = stabilized(3, seed=9)
        schedule = ChurnSchedule.random(net, events=20, seed=9, join_prob=0.1)
        alive = set(net.peer_ids)
        for ev in schedule:
            if ev.kind == "join":
                alive.add(ev.peer_id)
            else:
                alive.discard(ev.peer_id)
            assert len(alive) >= 1

    def test_join_event_requires_gateway(self):
        net = stabilized(3, seed=0)
        with pytest.raises(ValueError):
            apply_event(net, ChurnEvent("join", 123, gateway_id=None))

    def test_burst_churn_then_recovery(self):
        """A burst of mixed events applied without intermediate
        stabilization still recovers (the overlay stays weakly
        connected through graceful leaves and purging)."""
        net = stabilized(12, seed=10)
        rng = random.Random(10)
        net.crash(net.peer_ids[2])
        net.leave(net.peer_ids[5])
        new_id = fresh_id(net, rng)
        net.join(new_id, net.peer_ids[0])
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert net.matches_ideal()
