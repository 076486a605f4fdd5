"""Identifier-space arithmetic: intervals, distances, virtual positions."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.keys import hash_to_id, key_id
from repro.idspace.ring import (
    IdSpace,
    ring_between_open,
    ring_between_open_closed,
    ring_distance_cw,
)

SPACE = IdSpace(16)


def at(x: float) -> int:
    """The identifier at position ``x`` of the paper's ``[0, 1)`` picture."""
    return int(x * SPACE.size)


IDS = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestRingDistance:
    def test_zero_distance_to_self(self):
        assert ring_distance_cw(5, 5, 256) == 0

    def test_simple_forward(self):
        assert ring_distance_cw(10, 20, 256) == 10

    def test_wraps(self):
        assert ring_distance_cw(250, 5, 256) == 11

    def test_full_loop_minus_one(self):
        assert ring_distance_cw(5, 4, 256) == 255

    @given(a=IDS, b=IDS)
    def test_antisymmetric_sum(self, a, b):
        d1 = ring_distance_cw(a, b, SPACE.size)
        d2 = ring_distance_cw(b, a, SPACE.size)
        if a == b:
            assert d1 == d2 == 0
        else:
            assert d1 + d2 == SPACE.size

    @given(a=IDS, b=IDS, c=IDS)
    def test_triangle_modular(self, a, b, c):
        lhs = ring_distance_cw(a, c, SPACE.size)
        rhs = (ring_distance_cw(a, b, SPACE.size) + ring_distance_cw(b, c, SPACE.size)) % SPACE.size
        assert lhs == rhs


class TestIntervals:
    """The paper's exclusive bracket notation, Section 2.2."""

    def test_paper_example_wrapping(self):
        # "0, 0.2 in [0.8, 0.3]" scaled onto a 16-bit circle
        a = at(0.8)
        b = at(0.3)
        assert SPACE.between_open(a, at(0.0), b)
        assert SPACE.between_open(a, at(0.2), b)

    def test_paper_example_non_member(self):
        # "0.2 not in [0.3, 0.8]"
        a = at(0.3)
        b = at(0.8)
        assert not SPACE.between_open(a, at(0.2), b)

    def test_endpoints_excluded(self):
        assert not ring_between_open(10, 10, 20, 256)
        assert not ring_between_open(10, 20, 20, 256)

    def test_interior(self):
        assert ring_between_open(10, 15, 20, 256)

    def test_degenerate_interval_is_rest_of_circle(self):
        assert ring_between_open(7, 8, 7, 256)
        assert not ring_between_open(7, 7, 7, 256)

    def test_open_closed_includes_right_end(self):
        assert SPACE.between_open_closed(10, 20, 20)
        assert not SPACE.between_open_closed(10, 10, 20)

    def test_open_closed_singleton_ring(self):
        # a == b: single-node ring owns everything
        assert SPACE.between_open_closed(9, 123, 9)

    @given(a=IDS, x=IDS, b=IDS)
    def test_open_interval_partition(self, a, x, b):
        """x != a,b lies in exactly one of (a,b) and (b,a)."""
        if x in (a, b) or a == b:
            return
        assert ring_between_open(a, x, b, SPACE.size) != ring_between_open(
            b, x, a, SPACE.size
        )

    @given(a=IDS, x=IDS, b=IDS)
    def test_open_matches_distance_definition(self, a, x, b):
        want = 0 < ring_distance_cw(a, x, SPACE.size) < ring_distance_cw(a, b, SPACE.size) if a != b else x != a
        assert ring_between_open(a, x, b, SPACE.size) == want



def _walk_cw(a: int, b: int, size: int) -> list:
    """The points strictly after ``a`` up to and including ``b``,
    stepping clockwise one identifier at a time (a full loop if a == b)."""
    points, x = [], a
    while True:
        x = (x + 1) % size
        points.append(x)
        if x == b:
            return points


class TestIntervalsExhaustive:
    """Every triple of a small circle, checked against a step-by-step
    clockwise walk rather than against modular arithmetic."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_open_is_the_walk_without_its_end(self, bits):
        size = 1 << bits
        for a in range(size):
            for b in range(size):
                inside = set(_walk_cw(a, b, size)[:-1])
                for x in range(size):
                    assert ring_between_open(a, x, b, size) == (x in inside), (a, x, b)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_open_closed_is_the_walk(self, bits):
        size = 1 << bits
        for a in range(size):
            for b in range(size):
                inside = set(_walk_cw(a, b, size))
                for x in range(size):
                    assert ring_between_open_closed(a, x, b, size) == (x in inside), (a, x, b)

    @given(peers=st.sets(IDS, min_size=1, max_size=12), key=IDS)
    def test_every_key_has_exactly_one_responsible_peer(self, peers, key):
        """Chord responsibility: ``key`` lies in ``(pred(s), s]`` for
        exactly one peer ``s``, and that peer is its clockwise successor."""
        ordered = sorted(peers)
        owners = [
            s for i, s in enumerate(ordered)
            if SPACE.between_open_closed(ordered[i - 1], key, s)
        ]
        successor = min(ordered, key=lambda s: SPACE.distance_cw(key, s))
        assert owners == [successor]


class TestIdSpace:
    def test_size(self):
        assert IdSpace(8).size == 256

    def test_size_is_derived_not_compared_or_pickled(self):
        space = IdSpace(8)
        assert space.__dict__["size"] == 256  # stored once, not recomputed
        assert repr(space) == "IdSpace(bits=8)"
        assert space == IdSpace(8) and hash(space) == hash(IdSpace(8))
        assert space != IdSpace(9)
        assert b"size" not in pickle.dumps(space)
        for clone in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space)):
            assert clone == space and clone.size == 256
        assert replace(space, bits=4).size == 16

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            IdSpace(0)

    def test_check_id_bounds(self):
        space = IdSpace(8)
        assert space.check_id(255) == 255
        with pytest.raises(ValueError):
            space.check_id(256)
        with pytest.raises(ValueError):
            space.check_id(-1)

    def test_check_id_type(self):
        with pytest.raises(TypeError):
            IdSpace(8).check_id(1.5)
        with pytest.raises(TypeError):
            IdSpace(8).check_id(True)

    def test_virtual_offsets_halve(self):
        space = IdSpace(8)
        assert space.virtual_offset(1) == 128
        assert space.virtual_offset(2) == 64
        assert space.virtual_offset(8) == 1

    def test_virtual_offset_bounds(self):
        space = IdSpace(8)
        with pytest.raises(ValueError):
            space.virtual_offset(0)
        with pytest.raises(ValueError):
            space.virtual_offset(9)

    def test_virtual_id_wraps_exactly(self):
        space = IdSpace(8)
        assert space.virtual_id(200, 1) == (200 + 128) % 256
        assert space.virtual_id(200, 8) == 201

    def test_virtual_id_level_zero_is_self(self):
        assert IdSpace(8).virtual_id(77, 0) == 77

    def test_finger_target_alias(self):
        space = IdSpace(12)
        assert space.finger_target(100, 3) == space.virtual_id(100, 3)


class TestLevelCount:
    """m is minimal i >= 1 with 2**(B-i) < gap (DESIGN.md [D3])."""

    def test_lone_peer(self):
        space = IdSpace(8)
        assert space.level_count(space.size) == 1

    def test_half_ring_gap(self):
        space = IdSpace(8)
        # gap 128: need 2**(8-m) < 128 -> m = 2
        assert space.level_count(128) == 2

    def test_just_above_half(self):
        assert IdSpace(8).level_count(129) == 1

    def test_small_gaps_cap_at_bits(self):
        space = IdSpace(8)
        assert space.level_count(1) == 8
        assert space.level_count(2) == 8

    def test_gap_three(self):
        # 2**(8-m) < 3 -> 2**(8-m) <= 2 -> m >= 7
        assert IdSpace(8).level_count(3) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IdSpace(8).level_count(0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            IdSpace(8).level_count(257)

    @given(gap=st.integers(min_value=2, max_value=SPACE.size))
    def test_um_strictly_inside_gap(self, gap):
        """u_m lies strictly between u and its successor (stable-state
        requirement from Section 3.1.6)."""
        m = SPACE.level_count(gap)
        assert SPACE.virtual_offset(m) < gap or gap == 1

    @given(gap=st.integers(min_value=1, max_value=SPACE.size))
    def test_minimality(self, gap):
        m = SPACE.level_count(gap)
        if m > 1:
            # m-1 would put the virtual node at or beyond the successor
            assert SPACE.virtual_offset(m - 1) >= gap


class TestKeys:
    def test_deterministic(self):
        space = IdSpace(32)
        assert hash_to_id("peer-1", space) == hash_to_id("peer-1", space)

    def test_distinct_names_differ(self):
        space = IdSpace(64)
        assert hash_to_id("a", space) != hash_to_id("b", space)

    def test_in_range(self):
        space = IdSpace(8)
        for i in range(100):
            assert 0 <= hash_to_id(f"k{i}", space) < 256

    def test_bytes_and_str_agree(self):
        space = IdSpace(16)
        assert hash_to_id("x", space) == hash_to_id(b"x", space)

    def test_key_id_alias(self):
        space = IdSpace(16)
        assert key_id("k", space) == hash_to_id("k", space)

    def test_spread(self):
        """SHA-1 ids should cover the space roughly uniformly."""
        space = IdSpace(8)
        buckets = {hash_to_id(f"key-{i}", space) // 64 for i in range(200)}
        assert buckets == {0, 1, 2, 3}
