"""Metrics collection consistency (feeds Figs. 5 and 7)."""

from __future__ import annotations

from repro.core import metrics as metrics_mod
from repro.core.ideal import compute_ideal
from repro.graphs.digraph import EdgeKind
from tests.conftest import stabilized


class TestCollect:
    def test_virtual_nodes_match_ideal(self):
        net = stabilized(12, seed=0)
        ideal = compute_ideal(net.space, net.peer_ids)
        m = metrics_mod.collect(net)
        assert m.real_nodes == 12
        assert m.virtual_nodes == len(ideal.refs) - len(ideal.peer_ids)
        assert m.total_nodes == len(ideal.refs)

    def test_edge_totals_add_up(self):
        net = stabilized(10, seed=1)
        m = metrics_mod.collect(net)
        assert m.normal_edges == m.unmarked_edges + m.ring_edges + m.real_pointer_edges
        assert m.total_edges == m.normal_edges + m.connection_edges

    def test_stable_state_has_two_ring_edges(self):
        net = stabilized(10, seed=2)
        m = metrics_mod.collect(net, include_pending=False)
        assert m.ring_edges == 2

    def test_unmarked_edges_match_ideal_nu(self):
        net = stabilized(10, seed=3)
        ideal = compute_ideal(net.space, net.peer_ids)
        m = metrics_mod.collect(net, include_pending=False)
        want = sum(len(t) for t in ideal.nu.values())
        assert m.unmarked_edges == want

    def test_pending_included_vs_excluded(self):
        net = stabilized(10, seed=4)
        with_pending = metrics_mod.collect(net, include_pending=True)
        without = metrics_mod.collect(net, include_pending=False)
        assert with_pending.total_edges >= without.total_edges

    def test_wrap_pointers_counted_as_real_pointer_edges(self):
        net = stabilized(10, seed=5)
        m = metrics_mod.collect(net, include_pending=False)
        want = sum(
            len(node.wrap_refs())
            for peer in net.peers.values()
            for node in peer.state.nodes.values()
        )
        assert m.real_pointer_edges == want
        assert want >= 1  # the seam always needs at least one wrap pointer

    def test_snapshot_kinds_consistent(self):
        net = stabilized(8, seed=6)
        g = net.snapshot(include_pending=False)
        m = metrics_mod.collect(net, include_pending=False)
        assert g.edge_count(EdgeKind.UNMARKED) == m.unmarked_edges
        assert g.edge_count(EdgeKind.RING) == m.ring_edges
        assert g.edge_count(EdgeKind.CONNECTION) == m.connection_edges
