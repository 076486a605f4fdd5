"""Integration: Theorem 1.1 — self-stabilization from any weakly
connected initial state.

Every test stabilizes a network and asserts the four correctness layers:

1. a fixed point is reached (the fingerprint repeats);
2. the fixed point equals the unique ideal topology;
3. the overlay (snapshot) is weakly connected throughout;
4. the stable state contains the classical Chord graph (Fact 2.1).
"""

from __future__ import annotations

import pytest

from repro.core.ideal import chord_edges
from repro.graphs.connectivity import is_weakly_connected
from repro.workloads.initial import (
    SHAPES,
    build_random_network,
    build_shaped_network,
    corrupt_network,
)
from tests.conftest import ENGINES, build

MAX_ROUNDS = 5000


def assert_fully_stable(net) -> None:
    assert net.matches_ideal(), net.ideal_mismatches(limit=5)
    want = chord_edges(net.space, net.peer_ids)
    have = net.rechord_projection()
    missing = [e for e in want if e not in have]
    assert not missing, f"Fact 2.1 violated: {missing[:3]}"
    assert is_weakly_connected(net.snapshot())


class TestRandomStarts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_converges_to_ideal(self, n, seed):
        net = build_random_network(n=n, seed=seed)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_medium_network(self, seed):
        net = build_random_network(n=30, seed=seed)
        report = net.run_until_stable(max_rounds=MAX_ROUNDS, track_almost=True)
        assert_fully_stable(net)
        assert report.rounds_to_almost is not None
        assert report.rounds_to_almost <= report.rounds_to_stable

    def test_dense_extra_edges(self):
        net = build_random_network(n=15, seed=9, extra_edge_prob=0.6)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)

    def test_tree_only(self):
        net = build_random_network(n=15, seed=9, extra_edge_prob=0.0)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)


class TestShapedStarts:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("n", [8, 17])
    def test_degenerate_shapes(self, shape, n):
        net = build_shaped_network(shape, n, seed=5)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)


class TestCorruptStarts:
    """'Any initial state in which the peers are weakly connected'."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_garbage_edges_and_phantoms(self, seed):
        net = build_random_network(n=10, seed=seed)
        corrupt_network(net, seed=seed + 77)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)

    def test_heavy_corruption(self):
        net = build_random_network(n=12, seed=11)
        corrupt_network(net, seed=42, virtual_fraction=1.0, garbage_edges=8)
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)

    def test_preexisting_ring_edges_everywhere(self):
        from repro.graphs.digraph import EdgeKind

        net = build_random_network(n=8, seed=3)
        ids = net.peer_ids
        for i, u in enumerate(ids):
            net.add_initial_edge(
                net.ref(u), net.ref(ids[(i + 3) % len(ids)]), EdgeKind.RING
            )
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)

    def test_preexisting_connection_edges_everywhere(self):
        from repro.graphs.digraph import EdgeKind

        net = build_random_network(n=8, seed=4)
        ids = net.peer_ids
        for i, u in enumerate(ids):
            net.add_initial_edge(
                net.ref(u), net.ref(ids[(i + 1) % len(ids)]), EdgeKind.CONNECTION
            )
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)


class TestRoundCounts:
    """The paper's empirical observation: stabilization takes tens of
    rounds at these sizes, far below the O(n log n) bound."""

    def test_small_network_fast(self):
        net = build_random_network(n=15, seed=1)
        report = net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert report.rounds_to_stable < 60

    def test_almost_stable_precedes_stable(self):
        net = build_random_network(n=25, seed=2)
        report = net.run_until_stable(max_rounds=MAX_ROUNDS, track_almost=True)
        assert report.rounds_to_almost < report.rounds_to_stable

    def test_rounds_scale_gently(self):
        """Doubling n must not blow up rounds (paper: at most linear)."""
        r15 = build_random_network(n=15, seed=3)
        rep15 = r15.run_until_stable(max_rounds=MAX_ROUNDS)
        r30 = build_random_network(n=30, seed=3)
        rep30 = r30.run_until_stable(max_rounds=MAX_ROUNDS)
        assert rep30.rounds_to_stable <= 4 * max(1, rep15.rounds_to_stable)


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = build_random_network(n=10, seed=5)
        b = build_random_network(n=10, seed=5)
        ra = a.run_until_stable(max_rounds=MAX_ROUNDS)
        rb = b.run_until_stable(max_rounds=MAX_ROUNDS)
        assert ra == rb
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_ids(self):
        a = build_random_network(n=10, seed=5)
        b = build_random_network(n=10, seed=6)
        assert a.peer_ids != b.peer_ids


#: one of each activation daemon kind, with windows 1, none, 3 and 4
DAEMONS = (
    {"kind": "full"},
    {"kind": "partial", "p": 0.5, "seed": 1},
    {"kind": "round_robin", "groups": 3},
    {"kind": "unfair", "bound": 4, "seed": 2},
)


class TestClosureUnderEveryDaemon:
    """Convergence and closure under every activation daemon: from a
    random start ``run_until_stable`` reports stable on the ideal state,
    with the same report on every engine, and the state it stopped at is
    closed — running the full daemon on from there moves no peer."""

    @pytest.mark.parametrize("daemon", DAEMONS, ids=[d["kind"] for d in DAEMONS])
    @pytest.mark.parametrize("n, seed", [(4, 0), (7, 1), (10, 2)])
    def test_stable_state_is_ideal_and_closed(self, daemon, n, seed):
        reports = {}
        for engine in ENGINES:
            net = build(build_random_network, engine, n=n, seed=seed)
            net.set_daemon(daemon)
            reports[engine] = net.run_until_stable(max_rounds=MAX_ROUNDS)
            assert_fully_stable(net)
            states = {pid: peer.state.canonical() for pid, peer in net.peers.items()}
            net.set_daemon("full")
            net.run_until_stable(max_rounds=MAX_ROUNDS)
            assert {pid: peer.state.canonical() for pid, peer in net.peers.items()} == states
        assert len(set(reports.values())) == 1, reports

    def test_partial_waits_for_mail_its_targets_have_not_consumed(self):
        """Every peer activated and no state moved is not enough: here a
        linearization edge was still in flight to a peer that had
        already stepped, and it moved that peer rounds later."""
        net = build_random_network(n=24, seed=7)
        corrupt_network(net, seed=12)
        net.set_daemon({"kind": "partial", "p": 0.6, "seed": 7})
        net.run_until_stable(max_rounds=MAX_ROUNDS)
        assert_fully_stable(net)
