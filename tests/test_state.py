"""PeerState: sibling management, knowledge queries, message resolution."""

from __future__ import annotations

import pytest

from repro.core.noderef import NodeRef, make_ref
from repro.core.state import PeerState
from repro.idspace.ring import IdSpace

SPACE = IdSpace(16)


def peer(pid=1000) -> PeerState:
    return PeerState(pid, SPACE)


class TestLevels:
    def test_starts_with_real_node(self):
        st = peer()
        assert st.levels() == [0]
        assert st.real_ref == NodeRef.real(1000)

    def test_ensure_level_idempotent(self):
        st = peer()
        a = st.ensure_level(2)
        b = st.ensure_level(2)
        assert a is b and st.levels() == [0, 2]

    def test_drop_level(self):
        st = peer()
        st.ensure_level(1)
        node = st.drop_level(1)
        assert node.ref.level == 1 and st.levels() == [0]

    def test_drop_level_zero_forbidden(self):
        with pytest.raises(ValueError):
            peer().drop_level(0)

    def test_max_level(self):
        st = peer()
        st.ensure_level(3)
        st.ensure_level(1)
        assert st.max_level() == 3

    def test_sibling_refs_sorted_linearly(self):
        st = peer(60000)  # near the top: some virtual ids wrap below
        st.ensure_level(1)
        st.ensure_level(2)
        refs = st.sibling_refs()
        assert [r.key for r in refs] == sorted(r.key for r in refs)

    def test_rejects_invalid_peer_id(self):
        with pytest.raises(ValueError):
            PeerState(SPACE.size, SPACE)


class TestResolve:
    def test_exact_level(self):
        st = peer()
        st.ensure_level(2)
        assert st.resolve(make_ref(SPACE, 1000, 2)).ref.level == 2

    def test_phantom_redirects_to_um(self):
        """[D8]: messages for deleted virtual nodes land on u_m."""
        st = peer()
        st.ensure_level(1)
        st.ensure_level(4)
        assert st.resolve(make_ref(SPACE, 1000, 9)).ref.level == 4

    def test_foreign_ref_is_none(self):
        assert peer().resolve(NodeRef.real(4)) is None


class TestKnowledge:
    def test_contains_siblings(self):
        st = peer()
        st.ensure_level(1)
        assert make_ref(SPACE, 1000, 1) in st.knowledge()

    def test_includes_all_edge_kinds_and_wraps(self):
        st = peer()
        node = st.nodes[0]
        a, b, c, d = (NodeRef.real(i) for i in (1, 2, 3, 5))
        node.nu.add(a)
        node.nr.add(b)
        node.nc.add(c)
        node.wrap_rl = d
        k = st.knowledge()
        assert {a, b, c, d} <= k

    def test_known_reals_filters_and_sorts(self):
        st = peer()
        node = st.nodes[0]
        node.nu.add(NodeRef.real(9))
        node.nu.add(make_ref(SPACE, 9, 1))  # virtual: excluded
        node.nu.add(NodeRef.real(3))
        reals = st.known_reals()
        assert [r.id for r in reals] == [3, 9, 1000]

    def test_gap_no_other_reals(self):
        assert peer().closest_real_gap() == SPACE.size

    def test_gap_uses_clockwise_distance(self):
        st = peer(100)
        st.nodes[0].nu.add(NodeRef.real(50))  # behind us: distance wraps
        st.nodes[0].nu.add(NodeRef.real(300))
        assert st.closest_real_gap() == 200

    def test_gap_ignores_self(self):
        st = peer(100)
        st.nodes[0].nu.add(NodeRef.real(100))
        assert st.closest_real_gap() == SPACE.size


class TestCanonical:
    def test_canonical_changes_with_state(self):
        st = peer()
        before = st.canonical()
        st.nodes[0].nu.add(NodeRef.real(5))
        assert st.canonical() != before

    def test_canonical_set_order_independent(self):
        a, b = peer(), peer()
        a.nodes[0].nu.update({NodeRef.real(1), NodeRef.real(2)})
        b.nodes[0].nu.update({NodeRef.real(2), NodeRef.real(1)})
        assert a.canonical() == b.canonical()

    def test_edge_count(self):
        st = peer()
        node = st.nodes[0]
        node.nu.add(NodeRef.real(1))
        node.nr.add(NodeRef.real(2))
        node.nc.add(NodeRef.real(3))
        node.wrap_rr = NodeRef.real(4)
        assert st.edge_count() == 4

    def test_node_all_out_refs(self):
        st = peer()
        node = st.nodes[0]
        node.nu.add(NodeRef.real(1))
        node.wrap_rl = NodeRef.real(2)
        assert node.all_out_refs() == {NodeRef.real(1), NodeRef.real(2)}


class TestVersionTracking:
    """The activity-tracking contract of PeerState.version: every
    effective mutation bumps, no-ops never do."""

    def test_effective_mutations_bump(self):
        st = peer()
        node = st.nodes[0]
        v = st.version
        node.nu.add(NodeRef.real(1))
        assert st.version > v
        v = st.version
        node.rl = NodeRef.real(1)
        assert st.version > v
        v = st.version
        st.ensure_level(2)
        assert st.version > v
        v = st.version
        st.drop_level(2)
        assert st.version > v

    def test_noop_mutations_do_not_bump(self):
        st = peer()
        node = st.nodes[0]
        ref = NodeRef.real(1)
        node.nu.add(ref)
        v = st.version
        node.nu.add(ref)            # already present
        node.nu.discard(NodeRef.real(99))  # absent
        node.rl = node.rl           # equal assignment
        st.ensure_level(0)          # exists
        node.nu |= {ref}            # no new elements
        assert st.version == v

    def test_set_reassignment_rewraps_and_bumps_on_change(self):
        from repro.core.state import TrackedSet

        st = peer()
        node = st.nodes[0]
        v = st.version
        node.nu = {NodeRef.real(7)}
        assert isinstance(node.nu, TrackedSet)
        assert st.version > v
        v = st.version
        node.nu = {NodeRef.real(7)}  # same content
        assert st.version == v

    def test_tracked_set_survives_pickle_and_copy(self):
        """Regression: the default set reduction rebuilt TrackedSet with
        the element list bound to the owner parameter, silently
        producing an EMPTY set under pickle / copy.copy."""
        import copy
        import pickle

        st = peer()
        node = st.nodes[0]
        node.nu.update({NodeRef.real(1), NodeRef.real(2), NodeRef.real(3)})
        restored = pickle.loads(pickle.dumps(node.nu))
        assert restored == node.nu and len(restored) == 3
        shallow = copy.copy(node.nu)
        assert shallow == node.nu and len(shallow) == 3
        deep = copy.deepcopy(st)
        assert deep.nodes[0].nu == node.nu
        # the deep copy tracks its own owner, not the original
        v = st.version
        deep.nodes[0].nu.add(NodeRef.real(4))
        assert st.version == v and deep.version > v


# ----------------------------------------------------------------------
# the content-keyed memo of LocalNode.canonical()
# ----------------------------------------------------------------------
import copy

from hypothesis import given, settings
from hypothesis import strategies as st

_REFS = [make_ref(SPACE, owner, level) for owner in (7, 300, 1000, 41000) for level in (0, 1, 3)]
_SETS = ("nu", "nr", "nc")
_POINTERS = ("rl", "rr", "wrap_rl", "wrap_rr", "bcast_rl", "bcast_rr")
_TARGETS = ("bcast_rl_targets", "bcast_rr_targets")

_OPS = st.one_of(
    st.tuples(st.just("toggle"), st.sampled_from(_SETS), st.sampled_from(_REFS)),
    st.tuples(st.just("point"), st.sampled_from(_POINTERS), st.sampled_from(_REFS + [None])),
    st.tuples(
        st.just("point"), st.sampled_from(_TARGETS),
        st.one_of(st.none(), st.frozensets(st.sampled_from(_REFS), max_size=3)),
    ),
    st.tuples(st.just("level"), st.just(""), st.integers(1, 3)),
)


class TestCanonicalMemo:
    @given(ops=st.lists(st.tuples(st.integers(0, 3), _OPS), max_size=40))
    @settings(max_examples=60)
    def test_memoized_canonical_equals_an_uncached_one(self, ops):
        state = peer()
        state.ensure_level(1)
        for level, (op, slot, value) in ops:
            if op == "level":
                if value in state.nodes:
                    state.drop_level(value)
                else:
                    state.ensure_level(value)
            else:
                node = state.nodes.get(level)
                if node is None:
                    continue
                if op == "toggle":
                    refs = getattr(node, slot)
                    (refs.discard if value in refs else refs.add)(value)
                else:
                    setattr(node, slot, value)
            fresh = copy.deepcopy(state)  # copies carry no memo
            assert all(n._canon is None for n in fresh.nodes.values())
            assert state.canonical() == fresh.canonical()

    def test_an_unchanged_level_hands_back_the_same_tuple(self):
        state = peer()
        state.ensure_level(1).nu.add(_REFS[0])
        state.ensure_level(2)
        before = state.canonical()
        state.nodes[1].nu.add(_REFS[1])
        after = state.canonical()
        assert after != before
        assert after[1][0] is before[1][0] and after[1][2] is before[1][2]
        assert after[1][1] != before[1][1]
        # a transient change that cancels out: the same tuple again
        state.nodes[1].nu.discard(_REFS[1])
        again = state.canonical()
        assert again == before and again[1][0] is before[1][0]
