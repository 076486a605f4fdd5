"""Workload generators: initial states and churn schedules."""

from __future__ import annotations

import random

import pytest

from repro.graphs.connectivity import is_weakly_connected
from repro.idspace.ring import IdSpace
from repro.workloads.churn import ChurnSchedule
from repro.workloads.initial import (
    SHAPES,
    build_random_network,
    build_shaped_network,
    corrupt_network,
    random_peer_ids,
)


class TestRandomPeerIds:
    def test_unique_and_in_range(self):
        space = IdSpace(10)
        ids = random_peer_ids(50, random.Random(0), space)
        assert len(set(ids)) == 50
        assert all(0 <= i < space.size for i in ids)

    def test_rejects_oversubscription(self):
        space = IdSpace(3)
        with pytest.raises(ValueError):
            random_peer_ids(9, random.Random(0), space)

    def test_deterministic(self):
        space = IdSpace(16)
        a = random_peer_ids(10, random.Random(7), space)
        b = random_peer_ids(10, random.Random(7), space)
        assert a == b


class TestBuilders:
    def test_random_network_weakly_connected(self):
        for seed in range(4):
            net = build_random_network(n=12, seed=seed)
            assert is_weakly_connected(net.snapshot())

    def test_random_network_real_nodes_only(self):
        net = build_random_network(n=9, seed=0)
        for peer in net.peers.values():
            assert sorted(peer.state.nodes) == [0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_random_network(n=0, seed=0)

    def test_singleton_has_no_edges(self):
        net = build_random_network(n=1, seed=0)
        assert net.snapshot().edge_count() == 0

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_weakly_connected(self, shape):
        net = build_shaped_network(shape, 10, seed=1)
        assert is_weakly_connected(net.snapshot())

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            build_shaped_network("moebius", 10, seed=1)

    def test_corruption_preserves_connectivity(self):
        for seed in range(3):
            net = build_random_network(n=10, seed=seed)
            corrupt_network(net, seed=seed)
            assert is_weakly_connected(net.snapshot())

    def test_corruption_adds_virtuals(self):
        net = build_random_network(n=10, seed=0)
        corrupt_network(net, seed=0, virtual_fraction=1.0)
        assert any(len(p.state.nodes) > 1 for p in net.peers.values())


class TestChurnSchedule:
    def test_deterministic(self):
        net = build_random_network(n=6, seed=0)
        a = ChurnSchedule.random(net, 10, seed=3)
        b = ChurnSchedule.random(net, 10, seed=3)
        assert a.events == b.events

    def test_join_events_have_gateways(self):
        net = build_random_network(n=6, seed=0)
        for ev in ChurnSchedule.random(net, 15, seed=4):
            if ev.kind == "join":
                assert ev.gateway_id is not None

    def test_victims_are_alive_at_event_time(self):
        net = build_random_network(n=6, seed=0)
        alive = set(net.peer_ids)
        for ev in ChurnSchedule.random(net, 25, seed=5):
            if ev.kind == "join":
                assert ev.peer_id not in alive
                assert ev.gateway_id in alive
                alive.add(ev.peer_id)
            else:
                assert ev.peer_id in alive
                alive.discard(ev.peer_id)
