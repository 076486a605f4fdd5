"""``RankIndex``: its numpy and pure-Python builds, on a table large
enough that the numpy ``lexsort`` branch runs (``_NUMPY_MIN_ROWS``).

The build is chosen by whether numpy imports, so the pure one is
reached by setting the module's ``_np`` to ``None``.  The intern table
is process-global and only grows, so each test first interns refs of
its own until the table holds enough rows."""

from __future__ import annotations

import pytest

from repro.core import rules_batched
from repro.core.noderef import INTERN
from repro.core.rules_batched import _NUMPY_MIN_ROWS, BatchedRuleEngine, RankIndex

#: an owner range no other test uses, so the rows below are this file's
_BASE = 1 << 40


def _fill(rows: int) -> None:
    """Intern refs (real and virtual, ids out of key order) until the
    table holds at least ``rows`` rows."""
    owner = _BASE
    while len(INTERN) < rows:
        for level in range(4):
            INTERN.intern((owner * 7919 + level * 104729) % (1 << 48), owner, level)
        owner += 1


def _fresh_ref():
    """A ref of an identity nothing has interned yet."""
    owner = _BASE + (1 << 30) + len(INTERN)
    return INTERN.intern(owner % 1000, owner, 0)


@pytest.fixture
def table():
    _fill(_NUMPY_MIN_ROWS + 512)
    return INTERN.all_refs()


def _pure_build(monkeypatch) -> None:
    """Make ``RankIndex.refresh`` take the pure-Python build."""
    monkeypatch.setattr(rules_batched, "_np", None)


def test_numpy_and_pure_builds_give_identical_ranks(table, monkeypatch):
    pytest.importorskip("numpy")
    fast, pure = RankIndex(), RankIndex()
    fast.refresh()
    _pure_build(monkeypatch)
    pure.refresh()
    assert fast.size == pure.size >= _NUMPY_MIN_ROWS
    assert fast.ranks == pure.ranks


@pytest.mark.parametrize("use_numpy", [False, True], ids=["pure", "numpy"])
def test_ranks_order_refs_as_their_keys(table, use_numpy, monkeypatch):
    if use_numpy:
        pytest.importorskip("numpy")
    else:
        _pure_build(monkeypatch)
    index = RankIndex()
    index.refresh()
    n = index.size
    assert sorted(index.ranks) == list(range(n))
    by_rank = sorted(range(n), key=index.ranks.__getitem__)
    assert by_rank == sorted(range(n), key=lambda iid: table[iid]._key)


def test_a_ref_interned_after_refresh_is_unranked_until_the_next(table, monkeypatch):
    _pure_build(monkeypatch)
    engine = BatchedRuleEngine()
    engine.rank_index.refresh()
    size = engine.rank_index.size
    new = _fresh_ref()
    assert new.iid >= size == engine.rank_index.size
    refs = [table[0], table[1], new, table[2], table[3]]
    # an unranked ref demotes the whole call to the key sort
    assert engine._sorted_refs(refs) == sorted(refs, key=lambda r: r._key)
    engine.rank_index.refresh()
    assert engine.rank_index.size > new.iid
    assert engine._sorted_refs(refs) == sorted(refs, key=lambda r: r._key)
