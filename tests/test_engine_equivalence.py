"""Differential kernel tests: dirty-set engine ≡ full-scan engine.

The activity-tracked kernel (dirty set + steady-emission replay + exact
change flag) must be **round-for-round equivalent** to the full-scan
spec (``engine="full"``): same :class:`StabilizationReport`, same final
``fingerprint()``, and same rule-firing counters, from any seeded random
start — including corrupt states with phantom virtual refs and garbage
marked edges — and across churn.  These tests drive both engines over
the same inputs and compare.
"""

from __future__ import annotations

import pytest

from repro.core.network import NotStableError, ReChordNetwork
from repro.netsim.rng import SeedSequence
from repro.workloads.churn import ChurnSchedule, apply_event
from repro.workloads.initial import (
    build_random_network,
    build_shaped_network,
    corrupt_network,
    random_peer_ids,
)
from tests.conftest import ENGINES, GENERAL, build

ROOT = SeedSequence(20211)


def build_pair(n: int, seed: int, corrupt: bool = False):
    """The same seeded start under both kernels."""
    a = build_random_network(n=n, seed=seed)
    b = build_random_network(n=n, seed=seed, engine="full")
    if corrupt:
        corrupt_network(a, seed + 1)
        corrupt_network(b, seed + 1)
    return a, b


def assert_equivalent(a: ReChordNetwork, b: ReChordNetwork, context: str = "") -> None:
    """Full observable equality: states + in-flight + counters."""
    assert a.fingerprint() == b.fingerprint(), f"fingerprint diverged {context}"
    assert a.counters().fires == b.counters().fires, f"counters diverged {context}"


# 20 seeded random starts: mixed sizes, half of them corrupted with
# phantom virtual refs and garbage ring/connection edges
STARTS = [
    (n, seed, corrupt)
    for seed, (n, corrupt) in enumerate(
        [(1, False), (2, False), (2, True), (4, False), (4, True),
         (6, False), (6, True), (7, True), (8, False), (8, True),
         (9, False), (9, True), (10, False), (10, True), (11, True),
         (12, False), (12, True), (13, True), (14, False), (14, True)]
    )
]


class TestStabilizationEquivalence:
    @pytest.mark.parametrize("n,seed,corrupt", STARTS)
    def test_seeded_start_same_report_and_fingerprint(self, n, seed, corrupt):
        a, b = build_pair(n, seed, corrupt)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb, f"reports diverged at n={n} seed={seed} corrupt={corrupt}"
        assert_equivalent(a, b, f"at n={n} seed={seed} corrupt={corrupt}")

    def test_shaped_starts(self):
        for shape in ("line", "star", "two_cliques", "lollipop"):
            a = build_shaped_network(shape, 9, seed=5)
            b = build_shaped_network(shape, 9, seed=5, engine="full")
            ra = a.run_until_stable(max_rounds=4000)
            rb = b.run_until_stable(max_rounds=4000)
            assert ra == rb, f"reports diverged for shape {shape}"
            assert_equivalent(a, b, f"for shape {shape}")

    def test_track_almost_equivalent(self):
        a, b = build_pair(10, seed=77)
        ra = a.run_until_stable(max_rounds=4000, track_almost=True)
        rb = b.run_until_stable(max_rounds=4000, track_almost=True)
        assert ra == rb
        assert ra.rounds_to_almost is not None


class TestLockstepEquivalence:
    """Round-for-round (not just final-state) equality."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_fingerprints_match_every_round(self, seed):
        a, b = build_pair(10, seed, corrupt=(seed % 2 == 0))
        for _ in range(60):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint()

    def test_change_flag_matches_fingerprint_comparison(self):
        """The tracked kernel's O(active) change flag agrees with a
        genuine full fingerprint comparison at every boundary."""
        a = build_random_network(n=10, seed=4)
        prev = a.fingerprint()
        for _ in range(80):
            a.run_round()
            cur = a.fingerprint()
            assert a.scheduler.changed_last_round == (cur != prev)
            prev = cur


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_churn_schedule_same_trajectory(self, seed):
        a, b = build_pair(10, seed)
        a.run_until_stable(max_rounds=4000)
        b.run_until_stable(max_rounds=4000)
        schedule = ChurnSchedule.random(a, events=4, seed=seed + 50)
        for event in schedule:
            apply_event(a, event)
            apply_event(b, event)
            ra = a.run_until_stable(max_rounds=4000)
            rb = b.run_until_stable(max_rounds=4000)
            assert ra == rb, f"reports diverged after {event}"
            assert_equivalent(a, b, f"after {event}")

    def test_graceful_leave_posts_equivalent(self):
        """leave() uses post(): one-shot injections must not upset the
        tracked kernel's stability detection."""
        a, b = build_pair(8, seed=11)
        a.run_until_stable(max_rounds=4000)
        b.run_until_stable(max_rounds=4000)
        victim = a.peer_ids[2]
        a.leave(victim)
        b.leave(victim)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert_equivalent(a, b, "after leave")

    def test_join_into_stable_network(self):
        a, b = build_pair(9, seed=21)
        a.run_until_stable(max_rounds=4000)
        b.run_until_stable(max_rounds=4000)
        rng = ROOT.child("join", seed=21).rng()
        new_id = random_peer_ids(1, rng, a.space)[0]
        while new_id in a.peers:
            new_id = random_peer_ids(1, rng, a.space)[0]
        gateway = a.peer_ids[0]
        a.join(new_id, gateway)
        b.join(new_id, gateway)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert_equivalent(a, b, "after join")


class TestExternalMutationEquivalence:
    def test_direct_state_perturbation_detected(self):
        """Out-of-band edits (the version-counter sweep) behave exactly
        like the full-scan engine's unconditional re-activation."""
        from repro.core.noderef import NodeRef

        a, b = build_pair(10, seed=31)
        a.run_until_stable(max_rounds=4000)
        b.run_until_stable(max_rounds=4000)
        for net in (a, b):
            victim = net.peers[net.peer_ids[3]]
            foreign = NodeRef.real(net.peer_ids[0])
            victim.state.nodes[victim.state.max_level()].nu.add(foreign)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert_equivalent(a, b, "after perturbation")

    def test_quiescent_network_replays_everything(self):
        """In the stable state the tracked kernel executes nobody."""
        a = build_random_network(n=12, seed=41)
        a.run_until_stable(max_rounds=4000)
        a.run_round()
        executed, replayed = a.activity_stats()
        assert executed == 0
        assert replayed == len(a.peers)

    def test_out_of_band_level_drop_wakes_flow_receivers(self):
        """Regression: a level-set change flips ok/phantom verdicts for
        refs *in flight*, not only refs held in state — receivers of
        such messages must be re-activated or they replay emissions the
        full-scan engine would have sanitized.

        The scenario needs a quiescent receiver that holds NO state ref
        to the victim but has a victim-virtual-node ref inside an
        in-flight message, so the case is searched for explicitly
        (deterministic for the fixed build seed)."""
        from repro.experiments.scaling import build_ideal_network

        a = build_ideal_network(32, 3)
        b = build_ideal_network(32, 3, engine="full")
        assert a.fingerprint() == b.fingerprint()

        case = None
        for env in a.scheduler.all_pending():
            payload = env.payload
            for attr in ("endpoint", "candidate"):
                ref = getattr(payload, attr, None)
                if ref is None or ref.level == 0 or ref.owner not in a.peers:
                    continue
                tgt = env.target
                if tgt == ref.owner or tgt not in a.peers:
                    continue
                if ref.owner not in a._refs_out.get(tgt, frozenset()):
                    case = (ref.owner, ref.level)
                    break
            if case:
                break
        assert case is not None, "seed no longer produces the scenario; pick another"
        victim, level = case
        for net in (a, b):
            if level in net.peers[victim].state.nodes:
                net.peers[victim].state.drop_level(level)
        for r in range(30):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint(), f"diverged at round {r}"

    @pytest.mark.parametrize(
        "reconfigure",
        [
            lambda net: net.scheduler.set_drop_filter(lambda env: env.target == net.peer_ids[4]),
            lambda net: net.set_delivery_model({"kind": "constant", "delay": 2}),
        ],
        ids=["drop_filter", "delivery_model"],
    )
    @pytest.mark.parametrize("engine", ["full", "columnar"])
    def test_a_step_that_reconfigures_the_scheduler_fails_loudly(self, engine, reconfigure):
        """Regression: a harness actor that installed a drop filter or a
        delivery model from inside its step made the columnar kernel
        diverge from the spec.  Rounds are atomic now: the spec loop
        refuses the change, and the batched pipeline refuses the actor."""

        class Reconfigurer:
            def __init__(self, net):
                self.net = net

            def step(self, inbox, ctx):
                reconfigure(self.net)

        net = build_random_network(n=10, seed=71, engine=engine)
        net.run_until_stable(max_rounds=4000)
        # sorts after every peer id: each peer has stepped when it runs
        net.scheduler.add_actor(2**70, Reconfigurer(net))
        if engine == "full":
            error, match = RuntimeError, "called from inside a step"
        else:
            error, match = TypeError, f"actor {2**70!r} is not a ReChordPeer"
        with pytest.raises(error, match=match) as failed:
            net.run_until_stable(max_rounds=10)
        # a broken contract is not scored as non-convergence
        assert not isinstance(failed.value, NotStableError)

    def test_incremental_fingerprint_tracks_configuration(self):
        """The rolling hash is constant across stable rounds and moves
        when the configuration genuinely changes."""
        net = build_random_network(n=10, seed=61)
        net.run_until_stable(max_rounds=4000)
        stable_hash = net.incremental_fingerprint()
        for _ in range(5):
            net.run_round()
            assert net.incremental_fingerprint() == stable_hash
        # perturb: the hash must move once the change lands at a boundary
        from repro.core.noderef import NodeRef

        victim = net.peers[net.peer_ids[1]]
        victim.state.nodes[0].nu.add(NodeRef.real(net.peer_ids[-1]))
        net.run_round()
        assert net.incremental_fingerprint() != stable_hash

    def test_incremental_fingerprint_requires_incremental_engine(self):
        net = build_random_network(n=4, seed=62, engine="full")
        with pytest.raises(RuntimeError):
            net.incremental_fingerprint()

    def test_partial_activation_then_stability(self):
        """Partial rounds poison the caches conservatively; a subsequent
        run_until_stable still agrees with the full-scan engine."""
        a, b = build_pair(8, seed=51)
        a.run(5)
        b.run(5)
        active = set(a.peer_ids[:4])
        for _ in range(3):
            a.run_round(active=active)
            b.run_round(active=active)
        assert a.fingerprint() == b.fingerprint()
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert_equivalent(a, b, "after partial activation")

    @pytest.mark.parametrize("seed", [28, 51])
    def test_partial_round_on_a_stable_network_round_for_round(self, seed):
        """One partial round in a stable network: the sleepers' sends are
        missing from the next round's inboxes and back the round after,
        so the replay cache must not resume before both have run."""
        a, b = build_pair(10, seed=seed)
        for net in (a, b):
            net.run_until_stable(max_rounds=4000)
        active = set(a.peer_ids[::3])
        a.run_round(active=active)
        b.run_round(active=active)
        for r in range(8):
            a.run_round()
            b.run_round()
            assert_equivalent(a, b, f"round {r} after a partial round")
        assert not a.scheduler.changed_last_round


class TestTelemetryCensusEquivalence:
    """The telemetry counter census is part of the equivalence surface:
    the same seeded run under the spec and both legs of the default
    kernel (as shipped, and with every round on its general delivery
    point) yields identical rule firings, envelope-type counts and
    round/sent/dropped totals; the execute/replay split agrees between
    the two legs."""

    @pytest.mark.parametrize("n,seed,corrupt", STARTS[::5])
    def test_census_invariant(self, n, seed, corrupt):
        censuses = []
        kernel_stats = {}
        for engine in ENGINES:
            net = build(build_random_network, engine, n=n, seed=seed)
            if corrupt:
                corrupt_network(net, seed + 1)
            net.enable_telemetry()
            net.run_until_stable(max_rounds=4000)
            censuses.append(net.telemetry_census())
            kernel_stats[engine] = net.telemetry.kernel_stats()
        ctx = f"at n={n} seed={seed} corrupt={corrupt}"
        assert censuses[0] == censuses[1] == censuses[2], f"census diverged {ctx}"
        assert (
            kernel_stats["columnar"] == kernel_stats[GENERAL]
        ), f"kernel split diverged {ctx}"

    def test_census_rules_match_network_counters(self):
        net = build_random_network(n=8, seed=3)
        net.enable_telemetry()
        net.run_until_stable(max_rounds=4000)
        assert net.telemetry_census()["rules"] == dict(net.counters().fires)


class TestRuleBackendMatrix:
    """The equivalence matrix: spec × fast.

    One seeded campaign — stabilization, a latency model, live KV
    traffic, a crash, a transient partition and a join — is driven
    through the full-scan kernel on the scalar rule pipeline (the spec)
    and both legs of the activity-tracked kernel on the batched one;
    fingerprints, rule counters, SLO outcome ledgers and the telemetry
    counter census must be identical across all of them.
    """

    @staticmethod
    def _campaign(engine: str):
        from repro.dht.lookup import ReChordRouter
        from repro.dht.storage import KeyValueStore
        from repro.traffic import TrafficPlane, WorkloadGenerator
        from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT

        net = build(build_random_network, engine, n=12, seed=31)
        net.enable_telemetry()
        net.run_until_stable(max_rounds=5000)
        net.set_delivery_model({"kind": "reorder", "bound": 3, "seed": 21})
        plane = TrafficPlane(net, store=KeyValueStore(ReChordRouter(net)))
        WorkloadGenerator(
            plane,
            rate=1.5,
            op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
            seed=31,
        )
        for r in range(40):
            if r == 8:
                net.crash(net.peer_ids[4])
            if r == 12:
                ids = net.peer_ids
                side = frozenset(ids[: len(ids) // 2])
                net.scheduler.set_drop_filter(
                    lambda env, _s=side: (env.sender in _s) != (env.target in _s)
                )
            if r == 22:
                net.scheduler.set_drop_filter(None)
            if r == 28:
                new_id = 123_456
                while new_id in net.peers:
                    new_id += 1
                net.join(new_id, net.peer_ids[0])
            net.run_round()
        net.run_until_stable(max_rounds=5000)
        return {
            "fingerprint": net.fingerprint(),
            "counters": dict(net.counters().fires),
            "census": net.telemetry_census(),
            "outcomes": plane.collector.summary()["outcomes"],
        }

    def test_matrix_identical_observables(self):
        cells = {engine: self._campaign(engine) for engine in ENGINES}
        reference = cells["full"]
        for engine, cell in cells.items():
            for field in ("fingerprint", "counters", "census", "outcomes"):
                assert cell[field] == reference[field], (
                    f"{field} diverged at {engine} vs. the full-scan spec"
                )
