"""Section 2.2's structural accounting, verified on stable networks.

The paper bounds the stable structure: every node has at most 4
outgoing unmarked edges (two closest neighbors + two closest reals), so
``|E_u ∪ E_r| <= 4 |E_Chord|``; the node count is Θ(n log n); each
virtual node generates Θ(log n) connection edges in expectation, giving
O(n log² n) connection edges overall.
"""

from __future__ import annotations

import math

import pytest

from repro.core.ideal import chord_edges, compute_ideal
from repro.core.metrics import collect
from tests.conftest import stabilized


@pytest.fixture(scope="module", params=[(12, 200), (24, 201), (40, 202)])
def stable_net(request):
    n, seed = request.param
    return stabilized(n, seed=seed)


class TestDegreeBounds:
    def test_unmarked_out_degree_at_most_four(self, stable_net):
        for peer in stable_net.peers.values():
            for node in peer.state.nodes.values():
                assert len(node.nu) <= 4

    def test_ring_out_degree_at_most_one(self, stable_net):
        for peer in stable_net.peers.values():
            for node in peer.state.nodes.values():
                assert len(node.nr) <= 1

    def test_wrap_pointers_at_most_two(self, stable_net):
        for peer in stable_net.peers.values():
            for node in peer.state.nodes.values():
                assert len(node.wrap_refs()) <= 2


class TestEdgeAccounting:
    def test_eu_er_bounded_by_four_chord(self, stable_net):
        """|E_u ∪ E_r| <= 4 |E_Chord| (Section 2.2).

        The paper counts Chord edges per finger *slot* (one per virtual
        node plus the successor edge, i.e. one per Re-Chord node), not
        as a deduplicated pair set — distinct fingers of one peer often
        share a target.
        """
        m = collect(stable_net, include_pending=False)
        ideal = compute_ideal(stable_net.space, stable_net.peer_ids)
        chord_slots = len(ideal.refs)  # n successor edges + sum(m*) fingers
        assert m.unmarked_edges + m.ring_edges <= 4 * chord_slots
        # the deduplicated pair set is a lower bound sanity check
        assert len(chord_edges(stable_net.space, stable_net.peer_ids)) <= chord_slots

    def test_node_count_theta_n_log_n(self, stable_net):
        """Lemma 3.1: total nodes are Θ(n log n) — sanity band check."""
        n = len(stable_net.peers)
        total = collect(stable_net).total_nodes
        log2n = math.log2(n)
        assert n * max(1.0, 0.3 * log2n) <= total <= n * (3 * log2n + 4)

    def test_connection_edges_within_n_log2_band(self, stable_net):
        """Expected O(n log² n) connection edges (incl. in-flight)."""
        n = len(stable_net.peers)
        m = collect(stable_net, include_pending=True)
        bound = 6 * n * (math.log2(n) ** 2) + 8 * n
        assert m.connection_edges <= bound

    def test_virtual_levels_bounded_by_log_gap(self, stable_net):
        """m*(u) per peer stays within the bits of the id space and is
        consistent with the ideal oracle."""
        ideal = compute_ideal(stable_net.space, stable_net.peer_ids)
        for pid, peer in stable_net.peers.items():
            assert max(peer.state.nodes) == ideal.m_star[pid]
            assert max(peer.state.nodes) <= stable_net.space.bits


class TestProjectionProperties:
    def test_projection_out_degree_logarithmic(self, stable_net):
        """Each peer's Chord view has O(log n) distinct targets."""
        n = len(stable_net.peers)
        views = {}
        for u, v in stable_net.rechord_projection():
            views.setdefault(u, set()).add(v)
        bound = 4 * math.log2(n) + 8
        for u, targets in views.items():
            assert len(targets) <= bound

    def test_every_peer_reaches_its_successor(self, stable_net):
        ids = sorted(stable_net.peer_ids)
        have = stable_net.rechord_projection()
        for i, u in enumerate(ids):
            succ = ids[(i + 1) % len(ids)]
            if succ != u:
                assert (u, succ) in have
