"""Boundary and degeneracy stress tests.

These exercise the corners the analysis hand-waves over: dense id
spaces where virtual positions collide (the [D2] total order must keep
"closest" unique), peers at the seam positions 0 and 2^B - 1, adjacent
identifiers (maximal virtual-level counts), and extreme network sizes.
"""

from __future__ import annotations

import pytest

from repro.core.network import ReChordNetwork
from repro.graphs.digraph import EdgeKind
from repro.idspace.ring import IdSpace
from repro.workloads.initial import build_random_network


class TestDenseIdSpaces:
    """8-bit space, 20 peers: virtual-id collisions are unavoidable."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_collisions_still_stabilize(self, seed):
        net = build_random_network(n=20, seed=seed, space=IdSpace(8))
        net.run_until_stable(max_rounds=3000)
        assert net.matches_ideal(), net.ideal_mismatches(limit=4)

    def test_collisions_have_unique_order(self, ):
        """At least one virtual id collides in these runs, and the
        total order still sorts every node uniquely."""
        net = build_random_network(n=20, seed=0, space=IdSpace(8))
        net.run_until_stable(max_rounds=3000)
        refs = [
            node.ref
            for peer in net.peers.values()
            for node in peer.state.nodes.values()
        ]
        ids = [r.id for r in refs]
        keys = [r.key for r in refs]
        assert len(set(ids)) < len(ids)  # collisions present
        assert len(set(keys)) == len(keys)  # strict total order

    def test_tiny_space_tiny_network(self):
        net = build_random_network(n=3, seed=1, space=IdSpace(4))
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()


class TestSeamPositions:
    def test_peer_at_zero(self):
        space = IdSpace(16)
        net = ReChordNetwork(space)
        net.add_peer(0)
        net.add_peer(40000)
        net.add_initial_edge(net.ref(0), net.ref(40000), EdgeKind.UNMARKED)
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()

    def test_peer_at_max_id(self):
        space = IdSpace(16)
        net = ReChordNetwork(space)
        net.add_peer(space.size - 1)
        net.add_peer(7)
        net.add_initial_edge(net.ref(space.size - 1), net.ref(7), EdgeKind.UNMARKED)
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()

    def test_both_extremes_and_middle(self):
        space = IdSpace(16)
        net = ReChordNetwork(space)
        for pid in (0, space.size // 2, space.size - 1):
            net.add_peer(pid)
        net.add_initial_edge(net.ref(0), net.ref(space.size // 2))
        net.add_initial_edge(net.ref(space.size - 1), net.ref(space.size // 2))
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()


class TestAdjacentIdentifiers:
    def test_adjacent_peers_cap_levels(self):
        """Distance-1 neighbors force the maximal level count (= bits);
        the virtual node at distance 1 collides with the successor and
        the [D2] order must resolve it."""
        space = IdSpace(8)
        net = ReChordNetwork(space)
        net.add_peer(100)
        net.add_peer(101)
        net.add_initial_edge(net.ref(100), net.ref(101))
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()
        assert max(net.peers[100].state.nodes) == space.bits

    def test_cluster_of_adjacent_ids(self):
        space = IdSpace(10)
        net = ReChordNetwork(space)
        ids = [500, 501, 502, 503, 504]
        for pid in ids:
            net.add_peer(pid)
        for a, b in zip(ids, ids[1:]):
            net.add_initial_edge(net.ref(a), net.ref(b))
        net.run_until_stable(max_rounds=2000)
        assert net.matches_ideal()


class TestExtremeSizes:
    def test_n1_fixed_point(self):
        net = build_random_network(n=1, seed=0)
        report = net.run_until_stable(max_rounds=100)
        assert net.matches_ideal()
        # a lone peer stabilizes almost immediately
        assert report.rounds_to_stable <= 5

    def test_n2_mutual_everything(self):
        net = build_random_network(n=2, seed=0)
        net.run_until_stable(max_rounds=200)
        assert net.matches_ideal()
        a, b = net.peer_ids
        # each real node must know the other as a real pointer
        for pid, other in ((a, b), (b, a)):
            node = net.peers[pid].state.nodes[0]
            pointers = {node.rl, node.rr, node.wrap_rl, node.wrap_rr}
            assert any(p is not None and p.owner == other for p in pointers)

    def test_isolated_then_discovered(self):
        """A peer with no outgoing edges (but reachable from others —
        weak connectivity) is pulled in via mirroring."""
        space = IdSpace(16)
        net = ReChordNetwork(space)
        net.add_peer(100)
        net.add_peer(30000)
        net.add_peer(60000)
        # 30000 has NO outgoing edges; others point at it
        net.add_initial_edge(net.ref(100), net.ref(30000))
        net.add_initial_edge(net.ref(60000), net.ref(30000))
        net.run_until_stable(max_rounds=1000)
        assert net.matches_ideal()
