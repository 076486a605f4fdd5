"""Property-based invariant suite for the protocol and both kernels.

Randomized initial topologies and churn schedules (seeded through
:class:`repro.netsim.rng.SeedSequence` so every failing example is
reproducible in isolation) are driven round by round, asserting after
**every** round that

* (a) no peer ever holds a self-loop edge (``[D10]`` sanitation);
* (b) every reference anywhere in the state is well-formed for the id
  space: the carried id is exactly the one derived from
  ``(owner, level)``, the level is within ``[0, bits]``, and the owner
  is on the identifier circle;
* (c) rule execution never partitions the weakly connected overlay
  (peers stay mutually reachable through state edges plus in-flight
  introductions — Theorem 1.1's precondition is preserved);
* (d) ``run_until_stable`` on the activity-tracked kernel yields the
  same fingerprints as a full-scan reference check on the legacy
  kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Set

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core.network import ReChordNetwork
from repro.netsim.rng import SeedSequence
from repro.workloads.churn import ChurnSchedule, apply_event
from repro.workloads.initial import build_random_network, corrupt_network
from tests.conftest import KERNELS, build

ROOT = SeedSequence(41)

#: (n, corrupt) cells of the randomized sweep; seeds derive from ROOT
CASES = [(2, False), (4, True), (6, False), (8, True), (10, False), (12, True)]


# ----------------------------------------------------------------------
# invariant predicates
# ----------------------------------------------------------------------
def assert_no_self_loops(net: ReChordNetwork) -> None:
    for pid, peer in net.peers.items():
        for node in peer.state.nodes.values():
            ref = node.ref
            assert ref not in node.nu, f"self-loop in nu at {ref!r}"
            assert ref not in node.nr, f"self-loop in nr at {ref!r}"
            assert ref not in node.nc, f"self-loop in nc at {ref!r}"
            assert node.rl != ref and node.rr != ref, f"self closest-real at {ref!r}"
            assert node.wrap_rl != ref and node.wrap_rr != ref, f"self wrap at {ref!r}"


def assert_refs_well_formed(net: ReChordNetwork) -> None:
    space = net.space
    for pid, peer in net.peers.items():
        state = peer.state
        for level, node in state.nodes.items():
            assert 0 <= level <= space.max_level()
            assert node.ref.id == space.virtual_id(pid, level)
            for ref in node.all_out_refs():
                assert 0 <= ref.owner < space.size, f"owner off-circle: {ref!r}"
                assert 0 <= ref.level <= space.max_level(), f"bad level: {ref!r}"
                assert ref.id == space.virtual_id(ref.owner, ref.level), (
                    f"inconsistent id: {ref!r}"
                )


def peer_adjacency(net: ReChordNetwork) -> dict:
    """Undirected peer-level adjacency: state edges + in-flight refs.

    Connectivity must be judged on everything a peer can still learn:
    its outgoing references of all kinds plus references traveling in
    messages addressed to it (a ref in flight is knowledge in transit).
    """
    adj: dict = {pid: set() for pid in net.peers}
    for pid, peer in net.peers.items():
        for node in peer.state.nodes.values():
            for ref in node.all_out_refs():
                if ref.owner in adj and ref.owner != pid:
                    adj[pid].add(ref.owner)
                    adj[ref.owner].add(pid)
    for env in net.scheduler.all_pending():
        payload = env.payload
        tgt = env.target
        if tgt not in adj:
            continue
        for attr in ("endpoint", "candidate"):
            ref = getattr(payload, attr, None)
            if ref is not None and ref.owner in adj and ref.owner != tgt:
                adj[tgt].add(ref.owner)
                adj[ref.owner].add(tgt)
    return adj


def assert_weakly_connected(net: ReChordNetwork) -> None:
    adj = peer_adjacency(net)
    if len(adj) <= 1:
        return
    start = next(iter(adj))
    seen: Set[int] = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == len(adj), (
        f"network partitioned: reached {len(seen)} of {len(adj)} peers"
    )


def assert_all_invariants(net: ReChordNetwork) -> None:
    assert_no_self_loops(net)
    assert_refs_well_formed(net)
    assert_weakly_connected(net)


# ----------------------------------------------------------------------
# the sweeps
# ----------------------------------------------------------------------
class TestInvariantsUnderRuleExecution:
    @pytest.mark.parametrize("n,corrupt", CASES)
    def test_every_round_from_random_start(self, n, corrupt):
        seed = ROOT.child("start", n=n, corrupt=corrupt).seed()
        net = build_random_network(n=n, seed=seed % (2**31))
        if corrupt:
            corrupt_network(net, (seed >> 8) % (2**31))
        assert_all_invariants(net)
        for _ in range(40):
            net.run_round()
            assert_all_invariants(net)

    @pytest.mark.parametrize("n,corrupt", CASES)
    def test_every_round_under_churn(self, n, corrupt):
        seq = ROOT.child("churn", n=n, corrupt=corrupt)
        net = build_random_network(n=n, seed=seq.child("build").seed() % (2**31))
        if corrupt:
            corrupt_network(net, seq.child("corrupt").seed() % (2**31))
        net.run_until_stable(max_rounds=4000)
        schedule = ChurnSchedule.random(
            net, events=3, seed=seq.child("events").seed() % (2**31)
        )
        for event in schedule:
            apply_event(net, event)
            # graceful-leave introductions keep connectivity; crashes may
            # legitimately orphan knowledge for a round, so connectivity
            # is asserted once repair converges as well as per-round for
            # self-loops and well-formedness
            for _ in range(25):
                net.run_round()
                assert_no_self_loops(net)
                assert_refs_well_formed(net)
            net.run_until_stable(max_rounds=4000)
            if event.kind != "crash":
                assert_weakly_connected(net)
            assert net.matches_ideal(), net.ideal_mismatches(limit=3)


class TestStableFingerprintMatchesReference:
    @pytest.mark.parametrize("n,corrupt", CASES)
    def test_incremental_fingerprint_equals_full_scan(self, n, corrupt):
        """(d): the dirty-set kernel's stable fingerprint is identical to
        a run of the full-scan reference kernel."""
        seq = ROOT.child("ref", n=n, corrupt=corrupt)
        seed = seq.child("build").seed() % (2**31)
        cseed = seq.child("corrupt").seed() % (2**31)
        a = build_random_network(n=n, seed=seed)
        b = build_random_network(n=n, seed=seed, engine="full")
        if corrupt:
            corrupt_network(a, cseed)
            corrupt_network(b, cseed)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert a.fingerprint() == b.fingerprint()
        # and the stable state is a true fixed point under both kernels
        assert a.is_fixed_point(peek=True)
        assert b.is_fixed_point(peek=True)


# ----------------------------------------------------------------------
# spec vs. fast under fuzz
# ----------------------------------------------------------------------
class TestSpecVsFastFuzz:
    """Hypothesis-driven topologies + churn, spec against fast path.

    Every drawn example prints its ``repro:`` line via :func:`note` —
    shown by Hypothesis on failure — so a failing topology/churn draw
    can be replayed in isolation with the stated seeds.  The
    activity-tracked kernel on the batched rule pipeline must follow the
    full-scan kernel on the scalar pipeline event by event: same
    ``run_until_stable`` reports, fingerprints and rule counters, with
    invariants (a)–(c) holding along the way.
    """

    @given(
        n=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        events=st.integers(min_value=1, max_value=4),
        corrupt=st.booleans(),
        engine=st.sampled_from(KERNELS),
    )
    @settings(max_examples=20, deadline=None)
    def test_churn_trajectory_fast_equals_spec(self, n, seed, events, corrupt, engine):
        note(f"repro: n={n} seed={seed} events={events} corrupt={corrupt} — "
             f"seeded churn, engine={engine!r} vs. engine='full'")
        a = build(build_random_network, engine, n=n, seed=seed)
        b = build_random_network(n=n, seed=seed, engine="full")
        if corrupt:
            corrupt_network(a, seed + 1)
            corrupt_network(b, seed + 1)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb, "reports diverged from the random start"
        schedule = ChurnSchedule.random(a, events=events, seed=seed ^ 0x5EED)
        for event in schedule:
            apply_event(a, event)
            apply_event(b, event)
            ra = a.run_until_stable(max_rounds=4000)
            rb = b.run_until_stable(max_rounds=4000)
            assert ra == rb, f"reports diverged after {event}"
            assert a.fingerprint() == b.fingerprint(), (
                f"fingerprints diverged after {event}"
            )
            assert a.counters().fires == b.counters().fires, (
                f"counters diverged after {event}"
            )
            assert_no_self_loops(a)
            assert_refs_well_formed(a)
        if all(e.kind != "crash" for e in schedule):
            assert_weakly_connected(a)
