"""NodeRef identity, ordering and factory invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.noderef import NodeRef, make_ref
from repro.idspace.ring import IdSpace

SPACE = IdSpace(16)


class TestIdentity:
    def test_equality_by_owner_level(self):
        assert make_ref(SPACE, 100, 2) == make_ref(SPACE, 100, 2)

    def test_inequality_different_level(self):
        assert make_ref(SPACE, 100, 1) != make_ref(SPACE, 100, 2)

    def test_inequality_different_owner(self):
        assert make_ref(SPACE, 100, 0) != make_ref(SPACE, 101, 0)

    def test_hash_consistency(self):
        a, b = make_ref(SPACE, 7, 3), make_ref(SPACE, 7, 3)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_real_constructor(self):
        r = NodeRef.real(42)
        assert r.id == 42 and r.owner == 42 and r.level == 0 and r.is_real

    def test_immutability(self):
        r = NodeRef.real(1)
        with pytest.raises(AttributeError):
            r.id = 2

    def test_repr_mentions_kind(self):
        assert "R" in repr(NodeRef.real(3))
        assert "V2" in repr(make_ref(SPACE, 3, 2))


class TestFactory:
    def test_derives_id(self):
        ref = make_ref(SPACE, 1000, 1)
        assert ref.id == SPACE.virtual_id(1000, 1)

    def test_level_zero(self):
        assert make_ref(SPACE, 1000, 0).id == 1000

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            make_ref(SPACE, 0, -1)

    def test_rejects_excessive_level(self):
        with pytest.raises(ValueError):
            make_ref(SPACE, 0, SPACE.bits + 1)


class TestOrdering:
    def test_orders_by_id(self):
        assert NodeRef.real(5) < NodeRef.real(9)

    def test_real_before_virtual_at_equal_id(self):
        """Tie-break [D2]: a real node sorts before a virtual node with
        the same identifier, so 'closest' is always unique."""
        virt = NodeRef(500, 400, 3)  # virtual node whose id collides
        real = NodeRef.real(500)
        assert real < virt

    def test_total_order_on_collisions(self):
        a = NodeRef(500, 100, 2)
        b = NodeRef(500, 200, 2)
        assert (a < b) != (b < a)

    def test_comparison_operators(self):
        a, b = NodeRef.real(1), NodeRef.real(2)
        assert a < b and a <= b and b > a and b >= a

    @given(
        ids=st.lists(
            st.tuples(
                st.integers(0, SPACE.size - 1),
                st.integers(0, SPACE.size - 1),
                st.integers(0, SPACE.bits),
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_sorting_is_stable_total_order(self, ids):
        refs = [NodeRef(i, o, l) for i, o, l in ids]
        ordered = sorted(refs)
        for x, y in zip(ordered, ordered[1:]):
            assert x.key <= y.key

    def test_key_shape(self):
        r = make_ref(SPACE, 9, 1)
        assert r.key == (r.id, 1, 9, 1)
        assert NodeRef.real(9).key == (9, 0, 9, 0)


class TestInternTable:
    """The batched engine's envelope cache keys on ``iid``s — lock down
    dense-id stability (no slot reuse, ever)."""

    def test_mass_leave_never_reuses_slots(self):
        """Rows are append-only: churning peers in and out of a network
        never frees or re-assigns a dense id."""
        from repro.core.network import ReChordNetwork
        from repro.core.noderef import INTERN

        net = ReChordNetwork()
        ids = [1000 + 17 * k for k in range(12)]
        for pid in ids:
            net.add_peer(pid)
        for a, b in zip(ids, ids[1:]):
            net.add_initial_edge(net.ref(a), net.ref(b))
        net.run_until_stable(max_rounds=4000)
        before = {pid: net.ref(pid).iid for pid in ids}
        rows_before = len(INTERN._by_key)
        for pid in ids[: len(ids) - 2]:  # mass leave, keep it connected
            net.crash(pid)
        net.run_until_stable(max_rounds=4000)
        # dead peers' rows still name the same identities
        for pid, iid in before.items():
            assert NodeRef.real(pid).iid == iid
        assert len(set(before.values())) == len(before)
        assert len(INTERN._by_key) >= rows_before  # monotone growth, no eviction

    def test_intern_is_idempotent_under_rejoin(self):
        """Re-interning after a leave returns the original row."""
        ref = make_ref(SPACE, 321, 1)
        iid = ref.iid
        again = make_ref(SPACE, 321, 1)
        assert again is ref and again.iid == iid

    def test_rows_aligned_with_keys(self):
        """Each row's ref carries its own key, and the ``iid``s are the
        dense insertion order ``0 .. len - 1``."""
        from repro.core.noderef import INTERN

        make_ref(SPACE, 4321, 2)  # the table holds at least one row
        rows = list(INTERN._by_key.items())
        assert [ref.iid for _key, ref in rows] == list(range(len(rows)))
        for (ident, owner, level), ref in rows:
            assert (ref.id, ref.owner, ref.level) == (ident, owner, level)
