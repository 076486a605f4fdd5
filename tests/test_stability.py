"""Stability of the stable state (Section 3.1.6) and local checkability."""

from __future__ import annotations

import pytest

from repro.core.checker import local_check_peer
from repro.core.noderef import NodeRef
from repro.experiments.scaling import build_ideal_network
from tests.conftest import ENGINES, build, is_fixed_point, stabilized


class TestStableStateInvariance:
    def test_configuration_constant_over_many_rounds(self):
        net = stabilized(12, seed=0)
        fp = net.fingerprint()
        for _ in range(10):
            net.run_round()
            assert net.fingerprint() == fp

    def test_is_fixed_point_predicate(self):
        net = stabilized(10, seed=1)
        assert is_fixed_point(net)

    def test_unstable_network_is_not_fixed_point(self):
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=10, seed=1)
        assert not is_fixed_point(net)

    def test_stable_state_still_ideal_after_extra_rounds(self):
        net = stabilized(15, seed=2)
        net.run(5)
        assert net.matches_ideal()

    def test_steady_message_flow_is_constant(self):
        """The stable state is a constant flow: the same number of
        messages is in flight at every boundary."""
        net = stabilized(12, seed=3)
        counts = []
        for _ in range(5):
            net.run_round()
            counts.append(net.scheduler.pending_messages())
        assert len(set(counts)) == 1


class TestStabilityWatch:
    """The one stability predicate judges each daemon over its window:
    from the ideal state every kind reports stable on both engines."""

    PERIODIC = (
        {"kind": "full"},
        {"kind": "round_robin", "groups": 2},
        {"kind": "round_robin", "groups": 3},
        {"kind": "unfair", "bound": 4, "seed": 3},
    )

    @pytest.mark.parametrize("daemon", PERIODIC, ids=["full", "rr2", "rr3", "unfair4"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_ideal_state_settles_within_one_window(self, engine, daemon):
        net = build(build_ideal_network, engine, 12, seed=5)
        net.set_daemon(daemon)
        window = net.time_model.daemon.window
        report = net.run_until_stable(max_rounds=400)
        assert report.rounds_to_stable <= window
        # the configuration is compared with the one a window earlier
        assert report.rounds_executed == report.rounds_to_stable + window
        assert net.matches_ideal()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_partial_ideal_state_settles_when_one_window_closes(self, engine, seed):
        """No peer state moves and the steady flow in flight is what
        each target already consumed, so the first window closes, and
        the run ends, in the round that activates the last peer."""
        net = build(build_ideal_network, engine, 12, seed=5)
        daemon = {"kind": "partial", "p": 0.5, "seed": seed}
        net.set_daemon(daemon)
        keys, seen, closes = sorted(net.peers), set(), 0
        while seen != set(keys):
            seen |= net.time_model.daemon.select(net.round_no + closes, keys)
            closes += 1
        report = net.run_until_stable(max_rounds=400)
        assert report.rounds_to_stable == 0
        assert report.rounds_executed == closes
        assert net.matches_ideal()


class TestIsFixedPointSideEffects:
    """Regression for the historical mutation footgun: is_fixed_point()
    ran a probe round on the live network, silently advancing round_no
    (and mutating state when the network was unstable).  peek=True runs
    the probe on a deep copy and must leave everything untouched."""

    def test_default_still_advances_round_no(self):
        net = stabilized(8, seed=30)
        before = net.round_no
        assert is_fixed_point(net)
        assert net.round_no == before + 1  # documented historical behavior

    def test_peek_leaves_stable_network_untouched(self):
        net = stabilized(8, seed=31)
        before_round = net.round_no
        before_fp = net.fingerprint()
        assert is_fixed_point(net, peek=True)
        assert net.round_no == before_round
        assert net.fingerprint() == before_fp

    def test_peek_leaves_unstable_network_untouched(self):
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=8, seed=32)
        net.run(2)
        before_round = net.round_no
        before_fp = net.fingerprint()
        assert not is_fixed_point(net, peek=True)
        # the probe ran on a copy: nothing moved, state identical
        assert net.round_no == before_round
        assert net.fingerprint() == before_fp

    def test_peek_probe_does_not_corrupt_future_rounds(self):
        """After a peek the network evolves exactly as if the peek never
        happened (every engine)."""
        from repro.workloads.initial import build_random_network

        for engine in ENGINES:
            a = build(build_random_network, engine, n=8, seed=33)
            b = build(build_random_network, engine, n=8, seed=33)
            a.run(3)
            b.run(3)
            is_fixed_point(a, peek=True)  # probe on copy
            ra = a.run_until_stable(max_rounds=4000)
            rb = b.run_until_stable(max_rounds=4000)
            assert ra == rb
            assert a.fingerprint() == b.fingerprint()


class TestLocalChecker:
    def test_stable_network_passes_all_local_checks(self):
        net = stabilized(14, seed=4)
        for peer in net.peers.values():
            assert local_check_peer(peer) == []

    def test_unstable_network_fails_some_check(self):
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=14, seed=4)
        net.run(2)  # far from stable
        assert any(local_check_peer(peer) for peer in net.peers.values())

    def test_extra_edge_trips_exactly_locally(self):
        """Perturb one peer: that peer's local check must fail — local
        checkability means deviations are locally visible."""
        net = stabilized(12, seed=5)
        victim = net.peers[net.peer_ids[3]]
        # inject a spurious far edge
        foreign = NodeRef.real(net.peer_ids[0])
        node = victim.state.nodes[max(victim.state.nodes)]
        if foreign not in node.nu:
            node.nu.add(foreign)
        problems = local_check_peer(victim)
        assert problems, "perturbation must be locally visible"

    def test_wrong_ring_edge_detected(self):
        net = stabilized(12, seed=6)
        mid_pid = net.peer_ids[len(net.peer_ids) // 2]
        peer = net.peers[mid_pid]
        node = peer.state.nodes[0]
        node.nr.add(NodeRef.real(net.peer_ids[0]))
        assert any("ring" in p for p in local_check_peer(peer))

    def test_wrap_inconsistency_detected(self):
        net = stabilized(12, seed=7)
        # find a node with a linear rr and force a wrap pointer on it
        for peer in net.peers.values():
            for node in peer.state.nodes.values():
                if node.rr is not None:
                    node.wrap_rr = NodeRef.real(net.peer_ids[0])
                    assert any("wrap" in p for p in local_check_peer(peer))
                    return
        pytest.fail("no node with a linear rr found")

    def test_perturbed_network_restabilizes(self):
        net = stabilized(12, seed=8)
        victim = net.peers[net.peer_ids[2]]
        node = victim.state.nodes[0]
        node.nu.add(NodeRef.real(net.peer_ids[-1]))
        net.run_until_stable(max_rounds=2000)
        assert net.matches_ideal()
        assert not any(local_check_peer(peer) for peer in net.peers.values())
