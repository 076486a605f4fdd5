"""Unit tests for the six self-stabilization rules (Section 2.3).

Each test builds a small hand-crafted peer state, runs exactly one rule
(or one delivery), and checks the paper-specified effect.  The
integration behavior (convergence) is covered by test_convergence.py;
here we pin the local semantics the proofs rely on.
"""

from __future__ import annotations

import pytest

from repro.core.events import (
    EdgeAdd,
    KIND_CONNECTION,
    KIND_RING,
    KIND_UNMARKED,
    RealCandidate,
    SIDE_LEFT,
    SIDE_RIGHT,
)
from repro.core.noderef import NodeRef, make_ref
from repro.core.protocol import REF_DEAD, REF_OK, REF_PHANTOM, ReChordPeer
from repro.core.rules import RuleConfig
from repro.core.state import PeerState
from repro.idspace.ring import IdSpace
from repro.netsim.messages import Envelope

from tests.conftest import SendRecorder

SPACE = IdSpace(16)  # 65536 positions


def build_peer(pid: int, oracle=None, config: RuleConfig | None = None) -> ReChordPeer:
    state = PeerState(pid, SPACE)
    return ReChordPeer(state, config or RuleConfig(), oracle or (lambda ref: REF_OK))


def deliver(peer: ReChordPeer, *payloads) -> None:
    peer._apply_inbox([Envelope(0, peer.state.peer_id, p) for p in payloads])


class TestRuleConfig:
    def test_ablated_flips_only_the_named_flags(self):
        base = RuleConfig(economical_broadcast=True)
        cut = base.ablated(ring=False, connection=False)
        assert (cut.ring, cut.connection) == (False, False)
        assert cut == RuleConfig(ring=False, connection=False, economical_broadcast=True)
        assert base.ablated() == base

    def test_ablated_rejects_an_unknown_flag(self):
        with pytest.raises(KeyError, match="unknown rule flag 'rings'"):
            RuleConfig().ablated(rings=False)


class TestRule1VirtualNodes:
    def test_lone_peer_creates_one_level(self):
        peer = build_peer(1000)
        peer._rule1_virtual_nodes()
        assert sorted(peer.state.nodes) == [0, 1]

    def test_level_count_follows_gap(self):
        peer = build_peer(0)
        peer.state.nodes[0].nu.add(NodeRef.real(8192))  # gap 8192 = 2**13
        peer._rule1_virtual_nodes()
        # minimal m with 2**(16-m) < 8192 -> m = 4
        assert sorted(peer.state.nodes) == [0, 1, 2, 3, 4]

    def test_m_grows_when_closer_real_learned(self):
        peer = build_peer(0)
        peer.state.nodes[0].nu.add(NodeRef.real(8192))
        peer._rule1_virtual_nodes()
        peer.state.nodes[0].nu.add(NodeRef.real(1024))  # much closer
        peer._rule1_virtual_nodes()
        assert max(peer.state.nodes) == SPACE.level_count(1024)

    def test_excess_levels_deleted_with_transfer(self):
        """Deleted nodes' full neighborhoods land in Nu(u_m) — rule 1's
        'u_m is informed about u_i's neighborhood'."""
        peer = build_peer(0)
        peer.state.nodes[0].nu.add(NodeRef.real(8192))  # m = 4
        stale = peer.state.ensure_level(9)
        # the stale node's neighbors are all *farther* than 8192, so
        # they do not change the gap computation
        a, b, c = NodeRef.real(40000), NodeRef.real(50000), NodeRef.real(60000)
        stale.nu.add(a)
        stale.nr.add(b)
        stale.nc.add(c)
        stale.wrap_rl = NodeRef.real(30000)
        peer._rule1_virtual_nodes()
        assert 9 not in peer.state.nodes
        um = peer.state.nodes[4]
        assert {a, b, c, NodeRef.real(30000)} <= um.nu

    def test_transfer_skips_self_reference(self):
        peer = build_peer(0)
        peer.state.nodes[0].nu.add(NodeRef.real(8192))
        stale = peer.state.ensure_level(9)
        stale.nu.add(make_ref(SPACE, 0, 4))  # points at the future u_m
        peer._rule1_virtual_nodes()
        assert make_ref(SPACE, 0, 4) not in peer.state.nodes[4].nu

    def test_existing_levels_untouched(self):
        peer = build_peer(0)
        peer.state.nodes[0].nu.add(NodeRef.real(8192))
        peer._rule1_virtual_nodes()
        marker = NodeRef.real(5)
        peer.state.nodes[2].nu.add(marker)
        peer._rule1_virtual_nodes()
        assert marker in peer.state.nodes[2].nu


class TestRule2Overlap:
    def test_left_edge_moves_to_sibling_closest_to_w(self):
        # peer 0: u0=0, u1=32768, u2=16384; node u1 knows w=100:
        # siblings strictly between w and u1: u2(16384); moved there
        peer = build_peer(0)
        peer.state.ensure_level(1)
        peer.state.ensure_level(2)
        w = NodeRef.real(100)
        peer.state.nodes[1].nu.add(w)
        peer._rule2_overlap()
        assert w not in peer.state.nodes[1].nu
        assert w in peer.state.nodes[2].nu

    def test_right_edge_moves_to_largest_between(self):
        # u0=0 knows w=40000; siblings between: u2=16384, u1=32768 -> u1
        peer = build_peer(0)
        peer.state.ensure_level(1)
        peer.state.ensure_level(2)
        w = NodeRef.real(40000)
        peer.state.nodes[0].nu.add(w)
        peer._rule2_overlap()
        assert w in peer.state.nodes[1].nu
        assert w not in peer.state.nodes[0].nu

    def test_no_sibling_between_keeps_edge(self):
        peer = build_peer(0)
        peer.state.ensure_level(1)  # u1 = 32768
        w = NodeRef.real(40000)
        peer.state.nodes[1].nu.add(w)  # w > u1, nothing between
        peer._rule2_overlap()
        assert w in peer.state.nodes[1].nu

    def test_single_node_noop(self):
        peer = build_peer(0)
        w = NodeRef.real(5)
        peer.state.nodes[0].nu.add(w)
        peer._rule2_overlap()
        assert w in peer.state.nodes[0].nu


class TestRule3ClosestReal:
    def test_rl_rr_from_knowledge_and_added_to_nu(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        node.nu.update({NodeRef.real(200), NodeRef.real(700), NodeRef.real(3000)})
        rec = SendRecorder()
        peer._rule3_closest_real(rec)
        assert node.rl == NodeRef.real(700)
        assert node.rr == NodeRef.real(3000)
        assert NodeRef.real(700) in node.nu and NodeRef.real(3000) in node.nu

    def test_virtual_refs_ignored_for_pointers(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        node.nu.add(make_ref(SPACE, 500, 1))  # virtual ref near 33268
        rec = SendRecorder()
        peer._rule3_closest_real(rec)
        assert node.rr is None

    def test_candidate_sent_to_right_side_neighbors(self):
        """left-realneighbor: y > ui or v < y < ui receive v."""
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        rl = NodeRef.real(700)
        right_neighbor = NodeRef.real(2000)
        # virtual neighbors (so they do not shift rl/rr themselves):
        between = make_ref(SPACE, (800 - 32768) % SPACE.size, 1)   # id 800
        outside = make_ref(SPACE, (100 - 32768) % SPACE.size, 1)   # id 100
        assert between.id == 800 and outside.id == 100
        node.nu.update({rl, right_neighbor, between, outside})
        rec = SendRecorder()
        peer._rule3_closest_real(rec)
        left_cands = [
            p for _, p in rec.sent
            if isinstance(p, RealCandidate) and p.side == SIDE_LEFT and not p.wrap
        ]
        targets = {p.target for p in left_cands}
        assert right_neighbor in targets and between in targets
        assert outside not in targets and rl not in targets

    def test_candidate_delivery_improving_accepted(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        node.rl = NodeRef.real(100)
        better = NodeRef.real(500)
        deliver(peer, RealCandidate(node.ref, better, SIDE_LEFT))
        assert better in node.nu

    def test_candidate_delivery_non_improving_discarded(self):
        """The paper's guard v > rl(y), evaluated receiver-side [D9]."""
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        node.rl = NodeRef.real(500)
        worse = NodeRef.real(100)
        deliver(peer, RealCandidate(node.ref, worse, SIDE_LEFT))
        assert worse not in node.nu

    def test_candidate_wrong_side_discarded(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        bogus = NodeRef.real(2000)  # right of us, claimed as left
        deliver(peer, RealCandidate(node.ref, bogus, SIDE_LEFT))
        assert bogus not in node.nu

    def test_right_candidate_guard(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        node.rr = NodeRef.real(2000)
        deliver(peer, RealCandidate(node.ref, NodeRef.real(1500), SIDE_RIGHT))
        assert NodeRef.real(1500) in node.nu
        deliver(peer, RealCandidate(node.ref, NodeRef.real(3000), SIDE_RIGHT))
        assert NodeRef.real(3000) not in node.nu

    def test_virtual_candidate_discarded(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        deliver(peer, RealCandidate(node.ref, make_ref(SPACE, 2, 1), SIDE_LEFT))
        assert len(node.nu) == 0


class TestWrapPointers:
    def test_wrap_adopt_requires_missing_linear_pointer(self):
        peer = build_peer(60000)
        node = peer.state.nodes[0]
        node.rr = NodeRef.real(61000)
        deliver(peer, RealCandidate(node.ref, NodeRef.real(5), SIDE_RIGHT, wrap=True))
        assert node.wrap_rr is None

    def test_wrap_adopt_and_improvement(self):
        peer = build_peer(60000)
        node = peer.state.nodes[0]
        deliver(peer, RealCandidate(node.ref, NodeRef.real(50), SIDE_RIGHT, wrap=True))
        assert node.wrap_rr == NodeRef.real(50)
        deliver(peer, RealCandidate(node.ref, NodeRef.real(5), SIDE_RIGHT, wrap=True))
        assert node.wrap_rr == NodeRef.real(5)
        # the replaced pointer is demoted into nu, never dropped
        assert NodeRef.real(50) in node.nu

    def test_wrap_non_improving_ignored(self):
        peer = build_peer(60000)
        node = peer.state.nodes[0]
        node.wrap_rr = NodeRef.real(5)
        deliver(peer, RealCandidate(node.ref, NodeRef.real(700), SIDE_RIGHT, wrap=True))
        assert node.wrap_rr == NodeRef.real(5)

    def test_wrap_cleared_when_linear_appears(self):
        peer = build_peer(60000)
        node = peer.state.nodes[0]
        node.wrap_rr = NodeRef.real(5)
        node.nu.add(NodeRef.real(61000))  # linear successor-side real
        rec = SendRecorder()
        peer._rule3_closest_real(rec)
        assert node.wrap_rr is None
        assert NodeRef.real(5) in node.nu  # demoted, not lost

    def test_wrap_disabled_by_config(self):
        peer = build_peer(60000, config=RuleConfig().ablated(wrap_pointers=False))
        node = peer.state.nodes[0]
        deliver(peer, RealCandidate(node.ref, NodeRef.real(5), SIDE_RIGHT, wrap=True))
        assert node.wrap_rr is None

    def test_wrap_relay_targets_gap_side(self):
        peer = build_peer(60000)
        node = peer.state.nodes[0]
        node.wrap_rr = NodeRef.real(5)
        left = NodeRef.real(59000)
        node.nu.add(left)
        rec = SendRecorder()
        peer._rule3_closest_real(rec)
        wraps = [p for _, p in rec.sent if isinstance(p, RealCandidate) and p.wrap]
        assert any(p.target == left and p.candidate == NodeRef.real(5) for p in wraps)


class TestRule4Linearize:
    def test_strips_to_closest_and_forwards(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        w1, w2, w3 = NodeRef.real(900), NodeRef.real(800), NodeRef.real(700)
        node.nu.update({w1, w2, w3})
        rec = SendRecorder()
        peer._rule4_linearize(rec)
        # only the closest left neighbor stays
        assert node.nu == {w1}
        sent = {(t, p.target, p.endpoint) for t, p in rec.sent if isinstance(p, EdgeAdd) and p.kind == KIND_UNMARKED}
        # consecutive-pair forwards: (w1 -> w2), (w2 -> w3)
        assert (900, w1, w2) in sent
        assert (800, w2, w3) in sent

    def test_right_side_symmetric(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        r1, r2 = NodeRef.real(1100), NodeRef.real(1200)
        node.nu.update({r1, r2})
        rec = SendRecorder()
        peer._rule4_linearize(rec)
        assert node.nu == {r1}
        assert any(
            isinstance(p, EdgeAdd) and p.target == r1 and p.endpoint == r2
            for _, p in rec.sent
        )

    def test_mirroring_to_remaining_neighbors(self):
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        w1, r1 = NodeRef.real(900), NodeRef.real(1100)
        node.nu.update({w1, r1})
        rec = SendRecorder()
        peer._rule4_linearize(rec)
        mirrored = {
            p.target
            for _, p in rec.sent
            if isinstance(p, EdgeAdd) and p.endpoint == node.ref
        }
        assert mirrored == {w1, r1}

    def test_rl_rr_readded_after_strip(self):
        """The paper's Nu(ui) := Nu(ui) ∪ {rl(ui)} ∪ {rr(ui)} at the end
        of the round — the intra-round add/remove dance that keeps the
        stable state's 4-neighbor structure."""
        peer = build_peer(1000)
        node = peer.state.nodes[0]
        rl, w1 = NodeRef.real(700), NodeRef.real(900)
        node.rl = rl
        node.nu.update({rl, w1})
        rec = SendRecorder()
        peer._rule4_linearize(rec)
        assert node.nu == {w1, rl}

    def test_empty_nu_noop(self):
        peer = build_peer(1000)
        rec = SendRecorder()
        peer._rule4_linearize(rec)
        assert rec.sent == []


class TestRule5Ring:
    def test_missing_left_requests_edge_from_max_known(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        big = NodeRef.real(50000)
        node.nu.add(big)  # right neighbor exists; no left
        rec = SendRecorder()
        peer._rule5_ring(rec)
        ring_adds = [p for _, p in rec.sent if isinstance(p, EdgeAdd) and p.kind == KIND_RING]
        assert any(p.target == big and p.endpoint == node.ref for p in ring_adds)

    def test_missing_right_requests_edge_from_min_known(self):
        peer = build_peer(50000)
        node = peer.state.nodes[0]
        small = NodeRef.real(10)
        node.nu.add(small)
        rec = SendRecorder()
        peer._rule5_ring(rec)
        ring_adds = [p for _, p in rec.sent if isinstance(p, EdgeAdd) and p.kind == KIND_RING]
        assert any(p.target == small and p.endpoint == node.ref for p in ring_adds)

    def test_converts_dominated_ring_edge_to_unmarked(self):
        """If something larger than the ring target is known, the target
        is not the maximum: demote to an unmarked introduction."""
        peer = build_peer(100)
        node = peer.state.nodes[0]
        w = NodeRef.real(30000)
        bigger = NodeRef.real(60000)
        node.nr.add(w)
        node.nu.update({bigger, NodeRef.real(50)})
        rec = SendRecorder()
        peer._rule5_ring(rec)
        assert w not in node.nr
        assert any(
            isinstance(p, EdgeAdd) and p.kind == KIND_UNMARKED and p.target == bigger and p.endpoint == w
            for _, p in rec.sent
        )

    def test_forwards_toward_minimum(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        w = NodeRef.real(60000)
        smaller = NodeRef.real(10)
        node.nr.add(w)  # w > us: must travel toward the global min
        node.nu.update({smaller, NodeRef.real(200)})
        rec = SendRecorder()
        peer._rule5_ring(rec)
        assert w not in node.nr
        assert any(
            isinstance(p, EdgeAdd) and p.kind == KIND_RING and p.target == smaller and p.endpoint == w
            for _, p in rec.sent
        )

    def test_holds_at_extreme_and_runs_seam_exchange(self):
        """The minimum holder keeps the edge and sends the wrap
        candidate across the seam ([D6])."""
        peer = build_peer(100)
        node = peer.state.nodes[0]
        w = NodeRef.real(60000)
        node.nr.add(w)
        node.nu.add(w)  # knowledge: nothing smaller than us
        rec = SendRecorder()
        peer._rule5_ring(rec)
        assert w in node.nr  # held
        wraps = [p for _, p in rec.sent if isinstance(p, RealCandidate) and p.wrap]
        assert any(p.target == w and p.side == SIDE_RIGHT for p in wraps)

    def test_self_ring_edge_dropped(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        node.nr.add(node.ref)
        rec = SendRecorder()
        peer._rule5_ring(rec)
        assert node.ref not in node.nr


class TestRule6Connection:
    def test_sibling_chain_created(self):
        peer = build_peer(0)
        peer.state.ensure_level(1)  # 32768
        peer.state.ensure_level(2)  # 16384
        rec = SendRecorder()
        peer._rule6_connection(rec)
        # chain in linear order: u0(0) -> u2(16384) -> u1(32768); the
        # creations are immediately forwarded/dissolved in the same rule,
        # so inspect the messages
        conn = [
            (p.target, p.endpoint)
            for _, p in rec.sent
            if isinstance(p, EdgeAdd) and p.kind in (KIND_CONNECTION, KIND_UNMARKED)
        ]
        assert conn  # chain activity happened

    def test_forward_to_largest_below_target(self):
        peer = build_peer(0)
        node = peer.state.nodes[0]
        v = NodeRef.real(1000)
        w = NodeRef.real(800)
        node.nc.add(v)
        node.nu.add(w)
        rec = SendRecorder()
        peer._rule6_connection(rec)
        assert v not in node.nc
        assert any(
            isinstance(p, EdgeAdd) and p.kind == KIND_CONNECTION and p.target == w and p.endpoint == v
            for _, p in rec.sent
        )

    def test_backward_edge_when_holder_is_largest(self):
        peer = build_peer(500)
        node = peer.state.nodes[0]
        v = NodeRef.real(1000)
        node.nc.add(v)  # we are the largest known node below v
        # suppress the sibling chain by pre-creating no extra levels
        rec = SendRecorder()
        peer._rule6_connection(rec)
        assert v not in node.nc
        assert any(
            isinstance(p, EdgeAdd) and p.kind == KIND_UNMARKED and p.target == v and p.endpoint == node.ref
            for _, p in rec.sent
        )

    def test_stuck_edge_degenerates_to_backward(self):
        """[D10]: a connection edge with no forwarding candidate resolves
        instead of freezing."""
        peer = build_peer(50000)
        node = peer.state.nodes[0]
        v = NodeRef.real(10)  # below everything we know
        node.nc.add(v)
        rec = SendRecorder()
        peer._rule6_connection(rec)
        assert v not in node.nc

    def test_self_connection_edge_dropped(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        node.nc.add(node.ref)
        rec = SendRecorder()
        peer._rule6_connection(rec)
        assert node.ref not in node.nc


class TestPurge:
    def test_dead_refs_dropped_everywhere(self):
        dead = NodeRef.real(7)

        def oracle(ref):
            return REF_DEAD if ref.owner == 7 else REF_OK

        peer = build_peer(100, oracle=oracle)
        node = peer.state.nodes[0]
        node.nu.add(dead)
        node.nr.add(dead)
        node.nc.add(dead)
        node.rl = dead
        node.wrap_rl = dead
        peer._purge()
        assert dead not in node.nu | node.nr | node.nc
        assert node.rl is None and node.wrap_rl is None

    def test_phantom_repointed_to_owner_real(self):
        """[D11]: a ref to a non-simulated virtual node becomes a ref to
        the owner's real node — connectivity is never lost."""
        phantom = make_ref(SPACE, 7, 5)

        def oracle(ref):
            return REF_PHANTOM if ref.level == 5 else REF_OK

        peer = build_peer(100, oracle=oracle)
        node = peer.state.nodes[0]
        node.nu.add(phantom)
        peer._purge()
        assert phantom not in node.nu
        assert NodeRef.real(7) in node.nu

    def test_wrong_side_caches_cleared(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        node.rl = NodeRef.real(200)  # claims to be left but is right
        peer._purge()
        assert node.rl is None

    def test_virtual_ref_in_real_slot_cleared(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        node.rr = make_ref(SPACE, 300, 1)
        peer._purge()
        assert node.rr is None

    def test_self_reference_removed(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        node.nu.add(node.ref)
        peer._purge()
        assert node.ref not in node.nu


class TestDelivery:
    def test_edge_add_kinds(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        a, b, c = NodeRef.real(1), NodeRef.real(2), NodeRef.real(3)
        deliver(
            peer,
            EdgeAdd(node.ref, a, KIND_UNMARKED),
            EdgeAdd(node.ref, b, KIND_RING),
            EdgeAdd(node.ref, c, KIND_CONNECTION),
        )
        assert a in node.nu and b in node.nr and c in node.nc

    def test_self_edge_ignored(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        deliver(peer, EdgeAdd(node.ref, node.ref, KIND_UNMARKED))
        assert len(node.nu) == 0

    def test_message_to_phantom_level_redirects_to_um(self):
        peer = build_peer(100)
        peer.state.ensure_level(2)
        target = make_ref(SPACE, 100, 7)  # not simulated
        a = NodeRef.real(1)
        deliver(peer, EdgeAdd(target, a, KIND_UNMARKED))
        assert a in peer.state.nodes[2].nu

    def test_misrouted_message_raises(self):
        peer = build_peer(100)
        with pytest.raises(LookupError):
            deliver(peer, EdgeAdd(NodeRef.real(999), NodeRef.real(1), KIND_UNMARKED))

    def test_unknown_kind_raises(self):
        peer = build_peer(100)
        with pytest.raises(ValueError):
            deliver(peer, EdgeAdd(peer.state.nodes[0].ref, NodeRef.real(1), "z"))


class TestLeaveIntroductions:
    def test_chains_foreign_neighbors(self):
        peer = build_peer(100)
        node = peer.state.nodes[0]
        a, b, c = NodeRef.real(10), NodeRef.real(20), NodeRef.real(30)
        node.nu.update({a, b, c})
        intros = peer.leave_introductions()
        pairs = {(i.target, i.endpoint) for i in intros}
        assert (a, b) in pairs and (b, a) in pairs
        assert (b, c) in pairs and (c, b) in pairs

    def test_own_refs_excluded(self):
        peer = build_peer(100)
        peer.state.ensure_level(1)
        node = peer.state.nodes[0]
        node.nu.add(make_ref(SPACE, 100, 1))
        node.nu.add(NodeRef.real(10))
        intros = peer.leave_introductions()
        for i in intros:
            assert i.target.owner != 100 and i.endpoint.owner != 100
