"""The ideal-topology oracle and the classical Chord graph."""

from __future__ import annotations

import random

import pytest

from repro.core.ideal import (
    chord_edges,
    chord_successor,
    compute_ideal,
    gap_to_successor,
)
from repro.core.noderef import NodeRef, make_ref
from repro.idspace.ring import IdSpace

SPACE = IdSpace(16)


class TestGap:
    def test_two_peers(self):
        assert gap_to_successor(SPACE, [100, 200], 100) == 100
        assert gap_to_successor(SPACE, [100, 200], 200) == SPACE.size - 100

    def test_single_peer_full_circle(self):
        assert gap_to_successor(SPACE, [100], 100) == SPACE.size


class TestComputeIdeal:
    def test_empty(self):
        ideal = compute_ideal(SPACE, [])
        assert ideal.refs == ()

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            compute_ideal(SPACE, [5, 5])

    def test_single_peer(self):
        ideal = compute_ideal(SPACE, [100])
        assert ideal.m_star[100] == 1
        u0 = NodeRef.real(100)
        u1 = make_ref(SPACE, 100, 1)
        assert set(ideal.refs) == {u0, u1}
        # two refs: mutual neighbors, mutual ring edges
        assert ideal.nu[u0] == frozenset({u1})
        assert ideal.nu[u1] == frozenset({u0})
        assert ideal.nr[u0] == frozenset({u1})
        assert ideal.nr[u1] == frozenset({u0})
        # no self wrap pointers
        assert ideal.wrap_rl[u0] is None and ideal.wrap_rr[u0] is None

    def test_interior_node_neighbors(self):
        ideal = compute_ideal(SPACE, [1000, 30000, 50000])
        refs = list(ideal.refs)
        for i in range(1, len(refs) - 1):
            ref = refs[i]
            want = {refs[i - 1], refs[i + 1]}
            if ideal.rl[ref] is not None:
                want.add(ideal.rl[ref])
            if ideal.rr[ref] is not None:
                want.add(ideal.rr[ref])
            want.discard(ref)
            assert ideal.nu[ref] == frozenset(want)

    def test_extremes_hold_ring_edges(self):
        ideal = compute_ideal(SPACE, [1000, 30000, 50000])
        lo, hi = ideal.refs[0], ideal.refs[-1]
        assert ideal.nr[lo] == frozenset({hi})
        assert ideal.nr[hi] == frozenset({lo})
        for ref in ideal.refs[1:-1]:
            assert ideal.nr[ref] == frozenset()

    def test_wrap_pointers_cover_gaps(self):
        ideal = compute_ideal(SPACE, [1000, 30000, 50000])
        reals = [r for r in ideal.refs if r.is_real]
        r_min, r_max = reals[0], reals[-1]
        for ref in ideal.refs:
            if ideal.rr[ref] is None and ref != r_min:
                assert ideal.wrap_rr[ref] == r_min
            if ideal.rl[ref] is None and ref != r_max:
                assert ideal.wrap_rl[ref] == r_max

    def test_m_star_matches_gap_formula(self):
        ids = [100, 5000, 40000]
        ideal = compute_ideal(SPACE, ids)
        for u in ids:
            gap = gap_to_successor(SPACE, ids, u)
            assert ideal.m_star[u] == SPACE.level_count(gap)

    def test_virtual_node_count(self):
        ids = [100, 5000, 40000]
        ideal = compute_ideal(SPACE, ids)
        assert len(ideal.refs) == len(ids) + sum(ideal.m_star.values())


class TestChordSuccessor:
    def test_exact_position(self):
        assert chord_successor(SPACE, [10, 20], 10) == 10

    def test_wraps(self):
        assert chord_successor(SPACE, [10, 20], 60000) == 10

    def test_between(self):
        assert chord_successor(SPACE, [10, 20], 15) == 20

    def test_no_peers(self):
        with pytest.raises(ValueError):
            chord_successor(SPACE, [], 5)


class TestChordEdges:
    def test_empty_for_singleton(self):
        assert chord_edges(SPACE, [42]) == set()

    def test_successor_edges_present(self):
        ids = sorted(random.Random(0).sample(range(SPACE.size), 8))
        edges = chord_edges(SPACE, ids)
        for i, u in enumerate(ids):
            succ = ids[(i + 1) % len(ids)]
            assert (u, succ) in edges

    def test_no_self_edges(self):
        ids = [5, 9000, 44000]
        assert all(u != v for u, v in chord_edges(SPACE, ids))

    def test_finger_targets_correct(self):
        ids = [5, 9000, 44000]
        edges = chord_edges(SPACE, ids)
        for u, v in edges:
            assert v in ids

    def test_out_degree_at_most_m_plus_one(self):
        ids = sorted(random.Random(1).sample(range(SPACE.size), 10))
        edges = chord_edges(SPACE, ids)
        ideal = compute_ideal(SPACE, ids)
        for u in ids:
            out = sum(1 for a, _ in edges if a == u)
            assert 1 <= out <= ideal.m_star[u] + 1
