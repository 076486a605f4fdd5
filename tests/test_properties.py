"""Property-based tests of the core protocol invariants.

Hypothesis drives small random instances through the full pipeline and
checks the paper's headline guarantees end to end:

* Theorem 1.1 — any weakly connected start stabilizes to the ideal
  topology (n ≤ 7 keeps each example fast);
* Fact 2.1 — the Chord graph is contained in every stable state;
* the stable state is a fixed point and survives arbitrary extra rounds;
* churn events never break re-stabilization.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ideal import chord_edges
from repro.core.network import ReChordNetwork
from repro.graphs.digraph import EdgeKind
from repro.graphs.generators import gnp_connected_graph, random_orientation
from repro.idspace.ring import IdSpace
from repro.workloads.initial import random_peer_ids

SPACE = IdSpace(32)

sizes = st.integers(min_value=1, max_value=7)
seeds = st.integers(min_value=0, max_value=10_000)


def build(n: int, seed: int, extra_ring: bool = False, extra_conn: bool = False) -> ReChordNetwork:
    rng = random.Random(seed)
    ids = random_peer_ids(n, rng, SPACE)
    net = ReChordNetwork(SPACE)
    for u in ids:
        net.add_peer(u)
    if n > 1:
        edges = random_orientation(gnp_connected_graph(n, 0.2, rng), rng)
        ordered = sorted(ids)
        for a, b in edges:
            net.add_initial_edge(net.ref(ordered[a]), net.ref(ordered[b]))
        if extra_ring:
            net.add_initial_edge(
                net.ref(rng.choice(ordered)), net.ref(rng.choice(ordered)), EdgeKind.RING
            )
        if extra_conn:
            net.add_initial_edge(
                net.ref(rng.choice(ordered)), net.ref(rng.choice(ordered)), EdgeKind.CONNECTION
            )
    return net


@given(n=sizes, seed=seeds)
@settings(max_examples=25)
def test_always_stabilizes_to_ideal(n, seed):
    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    assert net.matches_ideal(), net.ideal_mismatches(limit=3)


@given(n=st.integers(min_value=2, max_value=7), seed=seeds)
@settings(max_examples=20)
def test_chord_subgraph_always_holds(n, seed):
    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    have = net.rechord_projection()
    for edge in chord_edges(net.space, net.peer_ids):
        assert edge in have


@given(n=sizes, seed=seeds, extra=st.integers(min_value=1, max_value=5))
@settings(max_examples=15)
def test_stable_state_is_invariant(n, seed, extra):
    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    fp = net.fingerprint()
    net.run(extra)
    assert net.fingerprint() == fp


@given(n=sizes, seed=seeds)
@settings(max_examples=15)
def test_corrupt_marked_edges_still_stabilize(n, seed):
    net = build(n, seed, extra_ring=True, extra_conn=True)
    net.run_until_stable(max_rounds=2000)
    assert net.matches_ideal()


@given(n=st.integers(min_value=2, max_value=6), seed=seeds)
@settings(max_examples=15)
def test_crash_then_restabilize(n, seed):
    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    rng = random.Random(seed + 1)
    victim = rng.choice(net.peer_ids)
    net.crash(victim)
    net.run_until_stable(max_rounds=2000)
    assert net.matches_ideal()


@given(n=st.integers(min_value=1, max_value=6), seed=seeds)
@settings(max_examples=15)
def test_join_then_restabilize(n, seed):
    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    rng = random.Random(seed + 2)
    new_id = random_peer_ids(1, rng, SPACE)[0]
    while new_id in net.peers:
        new_id = random_peer_ids(1, rng, SPACE)[0]
    net.join(new_id, rng.choice(net.peer_ids))
    net.run_until_stable(max_rounds=2000)
    assert net.matches_ideal()


@given(n=sizes, seed=seeds)
@settings(max_examples=10)
def test_total_nodes_matches_ideal_account(n, seed):
    """Lemma 3.1's accounting: total nodes = n + sum of m*(u)."""
    from repro.core.ideal import compute_ideal

    net = build(n, seed)
    net.run_until_stable(max_rounds=2000)
    ideal = compute_ideal(net.space, net.peer_ids)
    simulated = sum(len(p.state.nodes) for p in net.peers.values())
    assert simulated == len(ideal.refs)
