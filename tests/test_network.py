"""ReChordNetwork facade: construction, oracle, snapshots, edge cases."""

from __future__ import annotations

import pytest

from repro.core.network import NotStableError, ReChordNetwork, StabilizationReport
from repro.core.noderef import NodeRef
from repro.core.protocol import REF_DEAD, REF_OK, REF_PHANTOM
from repro.graphs.digraph import EdgeKind
from repro.idspace.ring import IdSpace
from tests.conftest import stabilized

SPACE = IdSpace(16)


class TestConstruction:
    def test_add_peer_registers_actor(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        assert net.scheduler.has_actor(100)
        assert net.peer_ids == [100]

    def test_duplicate_peer(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        with pytest.raises(ValueError):
            net.add_peer(100)

    def test_invalid_id(self):
        net = ReChordNetwork(SPACE)
        with pytest.raises(ValueError):
            net.add_peer(SPACE.size)

    def test_negative_rounds_rejected(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        with pytest.raises(ValueError, match=r"^rounds must be non-negative, got -1$"):
            net.run(-1)
        net.run(0)
        assert net.round_no == 0

    def test_initial_edge_kinds(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.add_peer(200)
        net.add_initial_edge(net.ref(100), net.ref(200), EdgeKind.UNMARKED)
        net.add_initial_edge(net.ref(100), net.ref(200), EdgeKind.RING)
        net.add_initial_edge(net.ref(100), net.ref(200), EdgeKind.CONNECTION)
        node = net.peers[100].state.nodes[0]
        target = net.ref(200)
        assert target in node.nu and target in node.nr and target in node.nc

    def test_initial_edge_rejects_pointer_kind(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.add_peer(200)
        with pytest.raises(ValueError):
            net.add_initial_edge(net.ref(100), net.ref(200), EdgeKind.REAL_POINTER)

    def test_initial_edge_unknown_peer(self):
        net = ReChordNetwork(SPACE)
        with pytest.raises(KeyError):
            net.add_initial_edge(net.ref(1), net.ref(2))

    def test_initial_self_edge_ignored(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.add_initial_edge(net.ref(100), net.ref(100))
        assert len(net.peers[100].state.nodes[0].nu) == 0

    def test_ensure_virtual_creates_level(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        ref = net.ensure_virtual(100, 3)
        assert ref.level == 3
        assert 3 in net.peers[100].state.nodes


class TestOracle:
    def test_verdicts(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.ensure_virtual(100, 2)
        net.run_round()  # snapshot taken
        assert net._ref_alive(net.ref(100)) == REF_OK
        assert net._ref_alive(net.ref(100, 2)) == REF_OK
        assert net._ref_alive(net.ref(200)) == REF_DEAD

    def test_phantom_verdict(self):
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.run_round()
        # level 9 is not simulated in the snapshot
        assert net._ref_alive(net.ref(100, 9)) == REF_PHANTOM

    def test_oracle_uses_round_start_snapshot(self):
        """Levels created mid-round are invisible to the oracle until
        the next round: peer-order independence."""
        net = ReChordNetwork(SPACE)
        net.add_peer(100)
        net.run_round()
        net.peers[100].state.ensure_level(7)  # simulate mid-round creation
        assert net._ref_alive(net.ref(100, 7)) == REF_PHANTOM
        net.run_round()
        assert net._ref_alive(net.ref(100, 7)) == REF_OK


class TestSnapshotsAndReports:
    def test_snapshot_contains_all_kinds(self):
        net = stabilized(8, seed=0)
        g = net.snapshot()
        kinds = {k for _, _, k in g.edges()}
        assert EdgeKind.UNMARKED in kinds and EdgeKind.RING in kinds

    def test_projection_endpoints_are_live_real_peers(self):
        net = stabilized(8, seed=1)
        for u, v in net.rechord_projection():
            assert u in net.peers and v in net.peers and u != v

    def test_report_fields(self):
        net = stabilized(6, seed=2)
        report = net.run_until_stable(max_rounds=10)
        assert isinstance(report, StabilizationReport)
        assert report.rounds_to_stable == 0  # already stable
        assert report.rounds_executed == 1

    def test_unstable_raises(self):
        from repro.workloads.initial import build_random_network

        for engine in ("columnar", "full"):
            net = build_random_network(n=10, seed=3, engine=engine)
            with pytest.raises(NotStableError, match="not stable within 1 rounds"):
                net.run_until_stable(max_rounds=1)

    def test_counters_accumulate(self):
        net = stabilized(6, seed=4)
        counters = net.counters()
        assert counters.total() > 0
        assert counters.get("rule4_forward") >= 0

    def test_fingerprint_sensitive_to_pending(self):
        net = stabilized(6, seed=5)
        fp = net.fingerprint()
        # inject a message: the configuration differs
        from repro.core.events import EdgeAdd, KIND_UNMARKED
        from repro.netsim.messages import Envelope

        target = net.peers[net.peer_ids[0]].state.real_ref
        endpoint = NodeRef.real(net.peer_ids[-1])
        net.scheduler.post(Envelope(0, target.owner, EdgeAdd(target, endpoint, KIND_UNMARKED)))
        assert net.fingerprint() != fp


class TestActorOrderIndependence:
    """Peers read only their own state, so scheduler iteration order is
    unobservable — a core soundness property of the implementation."""

    def test_insertion_order_does_not_change_outcome(self):
        from repro.workloads.initial import build_random_network

        a = build_random_network(n=9, seed=6)
        ra = a.run_until_stable(max_rounds=5000)

        # rebuild the same initial state but register peers in reverse
        b = build_random_network(n=9, seed=6)
        rebuilt = ReChordNetwork(b.space)
        for pid in reversed(b.peer_ids):
            rebuilt.add_peer(pid)
        for pid in b.peer_ids:
            src_state = b.peers[pid].state
            for level, node in src_state.nodes.items():
                for t in node.nu:
                    rebuilt.add_initial_edge(rebuilt.ref(pid, level), t)
        rb = rebuilt.run_until_stable(max_rounds=5000)
        assert ra.rounds_to_stable == rb.rounds_to_stable
        assert rebuilt.fingerprint() == a.fingerprint()
