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
        assert sorted(st.nodes) == [0]
        assert st.nodes[0].ref == NodeRef.real(1000)

    def test_ensure_level_idempotent(self):
        st = peer()
        a = st.ensure_level(2)
        b = st.ensure_level(2)
        assert a is b and sorted(st.nodes) == [0, 2]

    def test_drop_level(self):
        st = peer()
        st.ensure_level(1)
        node = st.drop_level(1)
        assert node.ref.level == 1 and sorted(st.nodes) == [0]

    def test_drop_level_zero_forbidden(self):
        with pytest.raises(ValueError):
            peer().drop_level(0)

    def test_max_level(self):
        st = peer()
        st.ensure_level(3)
        st.ensure_level(1)
        assert max(st.nodes) == 3

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
        assert len(node.nu) + len(node.nr) + len(node.nc) + len(node.wrap_refs()) == 4

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

    def test_a_stable_peer_hands_back_its_memoized_tuple(self):
        """While a peer's version stands still, ``PeerState.canonical()``
        returns the memoized tuple itself: quiescence probes and
        fingerprints of unchanged peers rebuild nothing."""
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=16, seed=2011)
        net.run_until_stable(max_rounds=20_000)
        for p in net.peers.values():
            assert p.state.canonical() is p.state.canonical()

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


# ----------------------------------------------------------------------
# every TrackedSet mutator keeps the version contract
# ----------------------------------------------------------------------
_A, _B, _C = (NodeRef.real(i) for i in (11, 22, 33))

#: (case id, the mutation on a set holding {_A, _B}, whether it changes it)
_MUTATIONS = [
    ("add-new", lambda s: s.add(_C), True),
    ("add-present", lambda s: s.add(_A), False),
    ("discard-present", lambda s: s.discard(_A), True),
    ("discard-absent", lambda s: s.discard(_C), False),
    ("remove-present", lambda s: s.remove(_B), True),
    ("pop-both", lambda s: (s.pop(), s.pop()), True),
    ("clear", lambda s: s.clear(), True),
    ("update-new", lambda s: s.update({_C}), True),
    ("update-present", lambda s: s.update([_A], (_B,)), False),
    ("update-nothing", lambda s: s.update(), False),
    ("ior-new", lambda s: s.__ior__({_C}), True),
    ("ior-present", lambda s: s.__ior__({_A}), False),
    ("difference_update-hit", lambda s: s.difference_update({_A, _C}), True),
    ("difference_update-miss", lambda s: s.difference_update({_C}, []), False),
    ("isub-hit", lambda s: s.__isub__({_B}), True),
    ("isub-miss", lambda s: s.__isub__(set()), False),
    ("intersection_update-shrinks", lambda s: s.intersection_update({_A, _C}), True),
    ("intersection_update-superset", lambda s: s.intersection_update({_A, _B, _C}), False),
    ("iand-shrinks", lambda s: s.__iand__(set()), True),
    ("iand-superset", lambda s: s.__iand__({_A, _B}), False),
    ("symmetric_difference_update-grows", lambda s: s.symmetric_difference_update({_C}), True),
    ("symmetric_difference_update-shrinks", lambda s: s.symmetric_difference_update([_A]), True),
    # same length, different content: a length probe alone would miss it
    ("symmetric_difference_update-swaps", lambda s: s.symmetric_difference_update({_A, _C}), True),
    ("symmetric_difference_update-empty", lambda s: s.symmetric_difference_update(()), False),
    # a one-shot iterator is read once, then both tested and applied
    ("symmetric_difference_update-iterator",
     lambda s: s.symmetric_difference_update(iter([_B, _C])), True),
    ("ixor-swaps", lambda s: s.__ixor__({_B, _C}), True),
    ("ixor-empty", lambda s: s.__ixor__(set()), False),
]


class TestTrackedSetMutators:
    """Each mutator :class:`TrackedSet` overrides bumps its owner's
    version exactly when the contents change, leaves the same contents a
    plain ``set`` would, and so never lets the canonical memo go stale."""

    @pytest.mark.parametrize(
        "mutate, changes", [m[1:] for m in _MUTATIONS], ids=[m[0] for m in _MUTATIONS]
    )
    def test_bumps_iff_contents_change(self, mutate, changes):
        state = peer()
        tracked = state.nodes[0].nu
        tracked.update({_A, _B})
        plain = {_A, _B}
        before = state.canonical()
        version = state.version
        mutate(tracked)
        mutate(plain)
        assert set(tracked) == plain
        assert (state.version != version) is changes
        assert (state.canonical() != before) is changes
        assert state.canonical() == copy.deepcopy(state).canonical()

    @pytest.mark.parametrize("op", ["remove", "pop"])
    def test_a_failed_mutation_does_not_bump(self, op):
        state = peer()
        tracked = state.nodes[0].nu
        version = state.version
        with pytest.raises(KeyError):
            tracked.remove(_C) if op == "remove" else tracked.pop()
        assert state.version == version and not tracked

    def test_in_place_operators_keep_the_tracked_object(self):
        state = peer()
        node = state.nodes[0]
        tracked = node.nu
        node.nu |= {_A, _B}
        node.nu -= {_A}
        node.nu &= {_B, _C}
        node.nu ^= {_C}
        assert node.nu is tracked
        assert set(node.nu) == {_B, _C}

    def test_an_ownerless_set_mutates_without_tracking(self):
        from repro.core.state import TrackedSet

        for mutate, _changes in (m[1:] for m in _MUTATIONS):
            loose, plain = TrackedSet(None, {_A, _B}), {_A, _B}
            mutate(loose)
            mutate(plain)
            assert set(loose) == plain and loose._owner is None
