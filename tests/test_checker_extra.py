"""Additional local-checker cases: every invariant class trips.

Complements tests/test_stability.py by exercising each violation label
of `repro.core.checker.local_check_peer` individually, and checks the
one-sort checker against the two-scan formulation it replaced.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.checker import local_check_peer
from repro.core.noderef import NodeRef
from repro.workloads.initial import build_random_network, corrupt_network
from tests.conftest import stabilized


def two_scan_check_peer(peer) -> List[str]:
    """The oracle: the checker as first written — a linear scan of the
    sorted reals and two filtered sorts of the knowledge per level."""
    state = peer.state
    problems: List[str] = []
    knowledge = state.knowledge()
    reals = state.known_reals(knowledge)
    kmin = min(knowledge)
    kmax = max(knowledge)

    gap = state.closest_real_gap()
    m = state.space.level_count(gap)
    if set(state.nodes) != set(range(0, m + 1)):
        problems.append(f"levels {sorted(state.nodes)} != 0..{m}")

    for level in sorted(state.nodes):
        node = state.nodes[level]
        ui = node.ref
        want_rl = None
        want_rr = None
        for ref in reals:
            if ref == ui:
                continue
            if ref < ui:
                want_rl = ref
            elif want_rr is None:
                want_rr = ref
                break
        if node.rl != want_rl:
            problems.append(f"{ui!r}: rl cache {node.rl!r} != {want_rl!r}")
        if node.rr != want_rr:
            problems.append(f"{ui!r}: rr cache {node.rr!r} != {want_rr!r}")

        lefts = sorted(w for w in knowledge if w < ui)
        rights = sorted(w for w in knowledge if w > ui)
        closest_left = lefts[-1] if lefts else None
        closest_right = rights[0] if rights else None
        allowed = {x for x in (closest_left, closest_right, want_rl, want_rr) if x is not None}
        extras = node.nu - allowed
        if extras:
            problems.append(f"{ui!r}: extra nu members {sorted(extras)}")
        required = {x for x in (closest_left, closest_right) if x is not None}
        missing = required - node.nu
        if missing:
            problems.append(f"{ui!r}: missing neighbors {sorted(missing)}")
        if want_rl is not None and want_rl not in node.nu:
            problems.append(f"{ui!r}: rl not in nu")
        if want_rr is not None and want_rr not in node.nu:
            problems.append(f"{ui!r}: rr not in nu")

        for w in node.nr:
            if w > ui and not (ui == kmin and w == kmax):
                problems.append(f"{ui!r}: illegitimate ring edge to {w!r}")
            if w < ui and not (ui == kmax and w == kmin):
                problems.append(f"{ui!r}: illegitimate ring edge to {w!r}")
        if closest_left is None and ui != kmin:
            problems.append(f"{ui!r}: no left neighbor but not the known minimum")
        if closest_right is None and ui != kmax:
            problems.append(f"{ui!r}: no right neighbor but not the known maximum")

        if node.wrap_rr is not None and node.rr is not None:
            problems.append(f"{ui!r}: wrap_rr set despite linear rr")
        if node.wrap_rl is not None and node.rl is not None:
            problems.append(f"{ui!r}: wrap_rl set despite linear rl")

    return problems


def assert_checkers_agree(net) -> int:
    """Both checkers return the same list on every peer; returns the
    number of peers that fail it (so a test can show it saw failures)."""
    failing = 0
    for pid, peer in net.peers.items():
        want = two_scan_check_peer(peer)
        assert local_check_peer(peer) == want, pid
        failing += bool(want)
    return failing


class TestCheckerMatchesTwoScanOracle:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_corrupted_states(self, seed):
        net = build_random_network(n=24, seed=seed)
        corrupt_network(net, seed, virtual_fraction=0.7, garbage_edges=6)
        assert assert_checkers_agree(net) > 0
        for _ in range(6):
            net.run_round()
            assert_checkers_agree(net)

    @pytest.mark.parametrize("n,seed", [(40, 21), (64, 22), (100, 23)])
    def test_mid_convergence_snapshots(self, n, seed):
        net = build_random_network(n=n, seed=seed)
        failing = []
        for r in range(30):
            if r % 3 == 0:
                failing.append(assert_checkers_agree(net))
            net.run_round()
        net.run_until_stable(max_rounds=5000)
        assert assert_checkers_agree(net) == 0
        assert max(failing) > 0

    def test_single_node_knowledge(self):
        net = build_random_network(n=1, seed=3)
        (peer,) = net.peers.values()
        knowledge = peer.state.knowledge()
        assert min(knowledge) == max(knowledge)
        assert local_check_peer(peer) == two_scan_check_peer(peer) != []
        # a stale cache and a ring edge to itself on the lone node
        node = peer.state.nodes[0]
        node.rr = NodeRef.real(peer.state.peer_id + 1)
        node.nr.add(node.ref)
        assert local_check_peer(peer) == two_scan_check_peer(peer)


def some_interior_peer(net):
    """A peer that is not the global extreme holder (mid-ring)."""
    return net.peers[net.peer_ids[len(net.peer_ids) // 2]]


class TestCheckerViolationClasses:
    def test_level_violation(self):
        net = stabilized(10, seed=400)
        peer = some_interior_peer(net)
        peer.state.ensure_level(max(peer.state.nodes) + 1)
        assert any("levels" in p for p in local_check_peer(peer))

    def test_stale_rl_cache(self):
        net = stabilized(10, seed=401)
        peer = some_interior_peer(net)
        node = peer.state.nodes[0]
        node.rl = None  # cache no longer matches knowledge
        problems = local_check_peer(peer)
        assert any("rl cache" in p for p in problems)

    def test_missing_neighbor_detected(self):
        net = stabilized(10, seed=402)
        peer = some_interior_peer(net)
        node = peer.state.nodes[0]
        # removing the closest-left edge breaks invariant 3 (for this
        # check, the knowledge still names the neighbor via siblings)
        lefts = sorted((w for w in node.nu if w < node.ref), key=lambda r: r.key)
        if lefts:
            closest = lefts[-1]
            if any(
                closest in other.nu
                for lvl, other in peer.state.nodes.items()
                if other is not node
            ) or closest in {n.ref for n in peer.state.nodes.values()}:
                node.nu.discard(closest)
                problems = local_check_peer(peer)
                assert problems

    def test_sortedness_violation_via_far_edge(self):
        net = stabilized(12, seed=403)
        peer = some_interior_peer(net)
        node = peer.state.nodes[0]
        far = NodeRef.real(net.peer_ids[0])
        if far != node.ref and far not in node.nu:
            node.nu.add(far)
            assert any("extra" in p for p in local_check_peer(peer))

    def test_clean_peer_passes(self):
        net = stabilized(10, seed=404)
        for peer in net.peers.values():
            assert local_check_peer(peer) == []
