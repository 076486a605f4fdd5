"""Differential kernel tests: columnar engine ≡ full-scan.

The columnar kernel (flow-indexed inboxes over interned NodeRef ids,
batched dirty-set rule evaluation, bulk per-round delivery, the tracked
loop under latency, partial activation and filter changes) must be
**round-for-round equivalent** to the full-scan spec: same
:class:`StabilizationReport`, same ``fingerprint()`` at every boundary,
and same rule-firing counters — across churn, partial activation,
latency models, drop filters, and whole scenario campaigns.  These
tests drive the kernel as shipped, the kernel with every round on its
tracked loop, and the spec over the same inputs and compare.

The suite also pins the :class:`repro.core.noderef.InternTable`
invariants the columnar layout leans on: one singleton ref per identity
triple, dense ``iid`` assignment, and column/ref consistency.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.network import ReChordNetwork
from repro.core.noderef import INTERN, NodeRef, make_ref
from repro.idspace.ring import IdSpace
from repro.netsim.columnar import ColumnarScheduler
from repro.netsim.rng import SeedSequence
from repro.scenarios import make_scenario, run_scenario, scenario_names
from repro.workloads.churn import ChurnSchedule, apply_event
from repro.workloads.initial import (
    build_random_network,
    corrupt_network,
    random_peer_ids,
)
from tests.conftest import TRACKED, build, kernel

ROOT = SeedSequence(61011)


def build_triple(n: int, seed: int, corrupt: bool = False):
    """The same seeded start: the kernel as shipped, the kernel with
    every round tracked, and the full-scan spec (last)."""
    nets = [
        build(build_random_network, engine, n=n, seed=seed)
        for engine in ("columnar", TRACKED, "full")
    ]
    if corrupt:
        for net in nets:
            corrupt_network(net, seed + 1)
    return nets


def assert_equivalent(nets, context: str = "") -> None:
    """Full observable equality across the triple."""
    ref = nets[-1]
    for net in nets[:-1]:
        assert net.fingerprint() == ref.fingerprint(), f"fingerprint diverged {context}"
        assert net.counters().fires == ref.counters().fires, f"counters diverged {context}"


# seeded random starts: mixed sizes, half corrupted with phantom virtual
# refs and garbage marked edges (subset of test_engine_equivalence's grid)
STARTS = [
    (n, seed, corrupt)
    for seed, (n, corrupt) in enumerate(
        [(1, False), (2, True), (4, False), (6, True), (8, False),
         (9, True), (10, False), (11, True), (12, False), (14, True)]
    )
]


class TestColumnarEngineSelection:
    def test_engine_flag_selects_scheduler(self):
        net = ReChordNetwork(engine="columnar")
        assert isinstance(net.scheduler, ColumnarScheduler)
        assert net.engine == "columnar"
        assert net.incremental  # columnar is an activity-tracked kernel

    def test_columnar_is_the_default(self):
        assert ReChordNetwork().engine == "columnar"

    # 'incremental' is the retired engine
    @pytest.mark.parametrize("name", ["vectorized", 'incremental'])
    def test_unknown_engine_rejected_naming_both(self, name):
        with pytest.raises(ValueError, match="unknown engine.*full, columnar"):
            ReChordNetwork(engine=name)

    def test_incremental_keyword_is_gone(self):
        with pytest.raises(TypeError):
            ReChordNetwork(**{'incremental': False})


class TestLoopSelection:
    """Once entered, the columnar loop runs every full round under
    settled unit delivery, however many actors execute.  The tracked
    loop runs only what the columns cannot express — non-unit delivery,
    partial activation, the round after a drop-filter change — and the
    kernel re-enters the columns as soon as they can run again."""

    @staticmethod
    def _rounds_until_stable(net) -> list:
        """``(executed, columnar)`` per round, run to the fixpoint."""
        sched, log = net.scheduler, []
        while True:
            net.run_round()
            log.append((sched.executed_last_round, sched._cols_active))
            if not sched.changed_last_round:
                return log

    def test_the_columns_keep_every_full_unit_round(self):
        from repro.traffic import TrafficPlane

        net = build_random_network(n=24, seed=5)
        sched = net.scheduler
        # a cold start: dense rounds, most peers executing
        cold = self._rounds_until_stable(net)
        assert all(cols for _executed, cols in cold)
        assert sum(executed > len(net.peers) // 2 for executed, _ in cold) >= 3
        # a join, then a crash wave: the repair rounds
        new_id = next(i for i in range(1, 2**20) if i not in net.peers)
        net.join(new_id, net.peer_ids[0])
        assert all(cols for _executed, cols in self._rounds_until_stable(net))
        for pid in net.peer_ids[1::6]:
            net.crash(pid)
        assert all(cols for _executed, cols in self._rounds_until_stable(net))
        # a traffic round with every peer dirty
        plane = TrafficPlane(net)
        for pid in net.peers:
            sched.mark_dirty(pid)
        plane.lookup("some-key", net.peer_ids[0])
        net.run_round()
        assert sched.executed_last_round == len(net.peers) and sched._cols_active
        plane.drain()
        assert sched._cols_active
        assert plane.collector.summary()["completed"] == 1

    def test_the_tracked_leg_never_enters_the_columns(self):
        """The differential suites' ``TRACKED`` leg runs every round of
        a cold start on the tracked loop, built directly or through
        ``kernel()``."""
        net = build(build_random_network, TRACKED, n=16, seed=3)
        loops = [cols for _executed, cols in self._rounds_until_stable(net)]
        assert loops and not any(loops)
        with kernel(TRACKED) as engine:
            net = build_random_network(n=16, seed=3, engine=engine)
            assert not any(cols for _executed, cols in self._rounds_until_stable(net))
        net = build_random_network(n=16, seed=3)
        assert all(cols for _executed, cols in self._rounds_until_stable(net))

    @pytest.mark.parametrize("trigger", ["latency", "partial", "filter"])
    def test_the_tracked_loop_runs_what_the_columns_cannot(self, trigger):
        net = build_random_network(n=16, seed=3)
        net.run_until_stable(max_rounds=4000)
        sched = net.scheduler
        assert sched._cols_active
        if trigger == "latency":
            net.set_delivery_model({"kind": "constant", "delay": 2})
        elif trigger == "partial":
            net.set_daemon({"kind": "partial", "p": 0.5, "seed": 1})
        else:
            sched.set_drop_filter(lambda env: False)
        loops = []
        for _ in range(4):
            net.run_round()
            loops.append(sched._cols_active)
        # a filter change costs one round; the others last while in effect
        assert loops == ([False, True, True, True] if trigger == "filter" else [False] * 4)
        if trigger == "latency":
            net.set_delivery_model("unit")
        elif trigger == "partial":
            net.set_daemon("full")
        net.run_until_stable(max_rounds=4000)
        net.run_round()
        assert sched._cols_active and sched.executed_last_round == 0


class TestColumnarStabilization:
    @pytest.mark.parametrize("n,seed,corrupt", STARTS)
    def test_seeded_start_same_report_and_fingerprint(self, n, seed, corrupt):
        nets = build_triple(n, seed, corrupt)
        reports = [net.run_until_stable(max_rounds=4000) for net in nets]
        assert reports[0] == reports[1] == reports[2], (
            f"reports diverged at n={n} seed={seed} corrupt={corrupt}"
        )
        assert_equivalent(nets, f"at n={n} seed={seed} corrupt={corrupt}")

    def test_stable_network_matches_ideal(self):
        net = build_random_network(n=10, seed=3, engine="columnar")
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_quiescent_network_executes_nobody(self):
        net = build_random_network(n=12, seed=41, engine="columnar")
        net.run_until_stable(max_rounds=4000)
        net.run_round()
        executed, replayed = net.activity_stats()
        assert executed == 0
        assert replayed == len(net.peers)


class TestColumnarLockstep:
    """Round-for-round (not just final-state) equality."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_fingerprints_match_every_round(self, seed):
        nets = build_triple(10, seed, corrupt=(seed % 2 == 0))
        for r in range(60):
            for net in nets:
                net.run_round()
            assert_equivalent(nets, f"at round {r}")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_churn_trajectory_lockstep(self, seed):
        """join → graceful leave → crash → rejoin of the crashed id,
        compared at every boundary (the rejoin revives frozen flows)."""
        nets = build_triple(16, seed)
        rng = ROOT.child("churn", seed=seed).rng()
        new_id = random_peer_ids(1, rng, nets[0].space)[0]
        while new_id in nets[0].peers:
            new_id = random_peer_ids(1, rng, nets[0].space)[0]
        crash_victim = {}
        for r in range(120):
            if r == 20:
                for net in nets:
                    net.join(new_id, net.peer_ids[0])
            elif r == 45:
                victim = nets[0].peer_ids[3]
                for net in nets:
                    net.leave(victim)
            elif r == 70:
                victim = nets[0].peer_ids[5]
                crash_victim["id"] = victim
                for net in nets:
                    net.crash(victim)
            elif r == 90:
                for net in nets:
                    net.join(crash_victim["id"], net.peer_ids[1])
            for net in nets:
                net.run_round()
            assert_equivalent(nets, f"at round {r} (seed={seed})")

    def test_churn_schedule_same_trajectory(self):
        nets = build_triple(10, 5)
        for net in nets:
            net.run_until_stable(max_rounds=4000)
        schedule = ChurnSchedule.random(nets[0], events=4, seed=55)
        for event in schedule:
            reports = []
            for net in nets:
                apply_event(net, event)
                reports.append(net.run_until_stable(max_rounds=4000))
            assert reports[0] == reports[1] == reports[2], f"after {event}"
            assert_equivalent(nets, f"after {event}")

    @pytest.mark.parametrize("event", ["crash", "leave", "join"])
    def test_membership_wave_is_one_ref_query(self, event, monkeypatch):
        """A wave of membership events between two rounds asks the
        in-flight ref query once, at the next round start, for all of
        them, and the trajectory stays the spec's round for round."""
        nets = build_triple(16, 4)
        for net in nets:
            net.run_until_stable(max_rounds=4000)
        asked = []
        query = ColumnarScheduler.ref_receivers

        def counted(sched, owners):
            asked.append(frozenset(owners))
            return query(sched, owners)

        monkeypatch.setattr(ColumnarScheduler, "ref_receivers", counted)
        ids = nets[0].peer_ids
        if event == "join":
            rng = ROOT.child("wave", seed=4).rng()
            wave = [i for i in random_peer_ids(8, rng, nets[0].space) if i not in ids][:4]
        else:
            wave = ids[5:9]
        for net in nets:
            for pid in wave:
                if event == "join":
                    net.join(pid, ids[0])
                else:
                    getattr(net, event)(pid)
        assert asked == []
        for r in range(60):
            for net in nets:
                net.run_round()
            if r == 0:
                # one query per activity-tracked network (both legs)
                assert len(asked) == 2 and all(set(wave) <= o for o in asked)
            assert_equivalent(nets, f"at round {r} after a {event} wave")

    def test_partial_activation_then_stability(self):
        """Partial rounds force the columnar engine onto the parent
        path; re-entry afterwards must agree with both kernels."""
        nets = build_triple(8, 51)
        for net in nets:
            net.run(5)
        active = set(nets[0].peer_ids[:4])
        for _ in range(3):
            for net in nets:
                net.run_round(active=active)
        assert_equivalent(nets, "after partial activation")
        reports = [net.run_until_stable(max_rounds=4000) for net in nets]
        assert reports[0] == reports[1] == reports[2]
        assert_equivalent(nets, "after re-stabilization")

    def test_latency_model_switch_mid_run(self):
        """Installing a non-unit delivery model exits columnar mode;
        restoring unit delivery re-enters it — equivalence must hold
        through both transitions."""
        nets = build_triple(10, 13)
        for net in nets:
            net.run(10)
        for net in nets:
            net.set_delivery_model({"kind": "constant", "delay": 3})
        for r in range(20):
            for net in nets:
                net.run_round()
            assert_equivalent(nets, f"under constant delay at round {r}")
        for net in nets:
            net.set_delivery_model("unit")
        reports = [net.run_until_stable(max_rounds=4000) for net in nets]
        assert reports[0] == reports[1] == reports[2]
        assert_equivalent(nets, "after returning to unit delivery")

    def test_drop_filter_lockstep(self):
        """A delivery-time drop filter (partition) exits columnar mode;
        lifting it re-enters — compare at every boundary."""
        nets = build_triple(12, 17)
        for net in nets:
            net.run_until_stable(max_rounds=4000)
        side_a = frozenset(nets[0].peer_ids[: len(nets[0].peer_ids) // 2])

        def cut(env):
            return (env.sender in side_a) != (env.target in side_a)

        for net in nets:
            net.scheduler.set_drop_filter(cut)
        for r in range(25):
            for net in nets:
                net.run_round()
            assert_equivalent(nets, f"under partition at round {r}")
        for net in nets:
            net.scheduler.set_drop_filter(None)
        reports = [net.run_until_stable(max_rounds=4000) for net in nets]
        assert reports[0] == reports[1] == reports[2]
        assert_equivalent(nets, "after healing the partition")

    def test_out_of_band_perturbation_detected(self):
        """Direct state edits (caught by the version-counter sweep) must
        re-activate peers under the columnar engine too."""
        nets = build_triple(10, 31)
        for net in nets:
            net.run_until_stable(max_rounds=4000)
        for net in nets:
            victim = net.peers[net.peer_ids[3]]
            foreign = NodeRef.real(net.peer_ids[0])
            victim.state.nodes[victim.state.max_level()].nu.add(foreign)
        reports = [net.run_until_stable(max_rounds=4000) for net in nets]
        assert reports[0] == reports[1] == reports[2]
        assert_equivalent(nets, "after perturbation")

    def test_change_flag_matches_fingerprint_comparison(self):
        net = build_random_network(n=10, seed=4, engine="columnar")
        prev = net.fingerprint()
        for _ in range(80):
            net.run_round()
            cur = net.fingerprint()
            assert net.scheduler.changed_last_round == (cur != prev)
            prev = cur


class TestColumnarScenarios:
    """Whole campaigns (traffic + latency + partitions + corruption)
    through the scenario engine, compared report-for-report."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_named_scenario_equivalent(self, name):
        """The two legs of the kernel against each other (each against
        the spec: tests/test_scenarios.py), execute/replay split
        included: the spec executes every peer every round, so only the
        two legs can pin that both loops run exactly the dirty set."""
        spec = make_scenario(name, n=12, seed=5)
        col = run_scenario(spec, engine="columnar", telemetry=True)
        with kernel(TRACKED) as engine:
            tracked = run_scenario(spec, engine=engine, telemetry=True)
        # dataclass equality covers recovery metrics, repair curve, SLO
        # ledger, rule firings and the configuration digest
        assert col == tracked, f"the two round loops diverged under scenario {name!r}"
        assert col.telemetry["kernel"] == tracked.telemetry["kernel"], name
        assert col.activity == tracked.activity, name

    def test_scenario_determinism(self):
        spec = make_scenario("churn-storm", n=12, seed=9)
        assert run_scenario(spec, engine="columnar") == run_scenario(
            spec, engine="columnar"
        )


class TestInternTable:
    """The registry invariants the columnar layout depends on."""

    def test_distinct_triples_never_alias(self):
        """Property: interning any grid of distinct identity triples
        yields pairwise-distinct objects with pairwise-distinct iids."""
        space = IdSpace()
        rng = ROOT.child("intern").rng()
        owners = random_peer_ids(32, rng, space)
        refs = [
            make_ref(space, owner, level)
            for owner in owners
            for level in range(0, space.max_level() + 1, 7)
        ]
        seen_iids = {}
        for ref in refs:
            assert ref.iid >= 0, "interned ref must carry a dense id"
            triple = (ref.id, ref.owner, ref.level)
            prev = seen_iids.get(ref.iid)
            assert prev is None or prev == triple, (
                f"iid {ref.iid} aliases {prev} and {triple}"
            )
            seen_iids[ref.iid] = triple

    def test_same_triple_is_singleton(self):
        space = IdSpace()
        a = make_ref(space, 12345, 3)
        b = make_ref(space, 12345, 3)
        assert a is b
        assert NodeRef.real(999) is NodeRef.real(999)

    def test_columns_agree_with_refs(self):
        space = IdSpace()
        ref = make_ref(space, 424242, 5)
        i = ref.iid
        assert INTERN.ids[i] == ref.id
        assert INTERN.owners[i] == ref.owner
        assert INTERN.levels[i] == ref.level
        assert INTERN.ref(i) is ref

    def test_pickle_round_trips_to_the_singleton(self):
        space = IdSpace()
        ref = make_ref(space, 777, 2)
        assert pickle.loads(pickle.dumps(ref)) is ref
        assert copy.deepcopy(ref) is ref

    def test_uninterned_ref_still_compares(self):
        """Direct construction stays legal: equality and hashing do not
        depend on interning."""
        space = IdSpace()
        interned = make_ref(space, 31337, 1)
        loose = NodeRef(interned.id, interned.owner, interned.level)
        assert loose.iid == -1
        assert loose == interned and hash(loose) == hash(interned)


# ----------------------------------------------------------------------
# sub-flows: what a SubFlow carries, and the totals accounted through it
# ----------------------------------------------------------------------
from itertools import chain, count

from repro.netsim.messages import (
    HASH_MASK,
    SubFlow,
    envelope_fingerprint,
    outbox_fingerprint,
    split_by_target,
)


def referenced_owners(env) -> set:
    """The owner ids of every node ref one envelope carries."""
    return {ref.owner for ref in env.payload.refs()}


def audit_columns(sched: ColumnarScheduler) -> None:
    """Every derived value of the columnar kernel against a rebuild from
    the envelopes it holds: what each ``SubFlow`` carries, the pending
    half of ``config_hash()`` (on the columns and, on a copy, on the
    materialized inboxes) and the pending count, the in-flight ref query
    (likewise on both), and the sender-side split."""
    assert sched._cols_active
    pending = flow_pending = 0
    for target, subs in chain(sched._flow_in.items(), sched._ghost.items()):
        for sender, sub in subs.items():
            assert type(sub) is SubFlow and len(sub) > 0
            assert all(env.sender == sender and env.target == target for env in sub)
            assert sub.fp_sum == outbox_fingerprint(list(sub))
            assert sub.owners() == {o for env in sub for o in referenced_owners(env)}
            flow_pending += len(sub)
            pending += sum(envelope_fingerprint(env) for env in sub)
    for boxes in (sched._lane, sched._inboxes):
        for box in boxes.values():
            pending += sum(envelope_fingerprint(env) for env in box)
    assert sched.config_hash()[1] == pending & HASH_MASK
    assert sched._flow_pending == flow_pending
    # owner -> the targets whose boundary inbox references it
    holders: dict = {}
    for target in sched._actors:
        for env in chain(*sched._boundary_parts(target), sched._inboxes[target]):
            for owner in referenced_owners(env):
                holders.setdefault(owner, set()).add(target)
    nobody = next(owner for owner in count() if owner not in holders)
    materialized = copy.deepcopy(sched)
    materialized._exit_columnar()
    assert materialized.config_hash() == sched.config_hash()
    for owner in [*holders, nobody]:
        expected = holders.get(owner, set())
        assert sched.ref_receivers({owner}) == expected, owner
        assert materialized.ref_receivers({owner}) == expected, owner
    flt = sched._drop_filter
    for key in sched._actors:
        out = sched._out[key]
        split = sched._out_by.get(key)
        if split is None:
            continue
        assert split == split_by_target(out)
        assert sum(sub.fp_sum for sub in split.values()) & HASH_MASK == outbox_fingerprint(out)
        for target, sub in split.items():
            if target in sched._actors and flt is None:
                # one object, shared by the sender's split and the column
                assert sched._flow_in[target][key] is sub


class TestSubFlowAccounting:
    """The columnar loop's own bookkeeping (the audits below apply
    while the columns are live)."""

    def test_totals_equal_a_rebuild_at_every_boundary_of_a_churn_run(self):
        """Changed / stopped / started sub-flows (join, leave), dead
        targets and a revival (crash, re-join of the crashed id), ghosts
        and buffered farewell posts (a leave), filtered sub-flows (a
        partition that outlasts re-entry): the audit holds at every
        columnar boundary, and the spec agrees throughout.  A removal's
        ghosts and farewell posts are consumed in the very next round,
        so the audit also runs right after each event, before it."""
        spec = build_random_network(n=14, seed=8, engine="full")
        net = build_random_network(n=14, seed=8)
        sched = net.scheduler
        ids = net.peer_ids
        fresh = next(i for i in range(1, 2**20) if i not in net.peers)
        crashed, ghosted, left = ids[5], ids[9], ids[3]
        side = frozenset(ids[:7])

        def cut(env):
            return (env.sender in side) != (env.target in side)

        seen = dict.fromkeys(("audits", "ghost", "dead", "filtered", "ghost ref", "posted ref"), 0)

        def audit():
            if not sched._cols_active:
                return
            audit_columns(sched)
            seen["audits"] += 1
            seen["ghost"] += bool(sched._ghost)
            seen["dead"] += bool(sched._dead_in)
            seen["filtered"] += sched._drop_filter is not None
            # what the ref query scans beyond the steady flows
            seen["ghost ref"] += any(
                sub.owners() for subs in sched._ghost.values() for sub in subs.values()
            )
            seen["posted ref"] += any(
                referenced_owners(env) for box in sched._inboxes.values() for env in box
            )

        for r in range(150):
            for n in (spec, net):
                if r == 30:
                    n.join(fresh, ids[0])
                elif r == 50:
                    n.leave(left)
                elif r == 65:
                    n.crash(crashed)
                elif r == 80:
                    n.join(crashed, ids[1])
                elif r == 95:
                    n.leave(ghosted)
                elif r == 110:
                    n.scheduler.set_drop_filter(cut)
                elif r == 135:
                    n.scheduler.set_drop_filter(None)
            if r in (30, 50, 65, 80, 95):
                audit()
            for n in (spec, net):
                n.run_round()
            assert net.fingerprint() == spec.fingerprint(), f"at round {r}"
            audit()
        assert seen["audits"] > 100 and all(seen.values()), seen
        assert crashed in net.peers and crashed not in sched._dead_in

    @pytest.mark.parametrize("seed", [2, 6])
    def test_parts_concatenate_to_the_boundary_inbox(self, seed):
        """What a dirty actor is handed: its persistent SubFlows in
        sender order, between the one-shot lists — the flat inbox."""
        net = build_random_network(n=10, seed=seed)
        checked = 0
        for r in range(40):
            if r == 15:
                net.leave(net.peer_ids[2])  # farewell posts: buffered mail
            if r == 25:
                net.crash(net.peer_ids[4])  # ghosts
            net.run_round()
            sched = net.scheduler
            if not sched._cols_active:
                continue
            probe = copy.deepcopy(sched)
            for key in sorted(k for k in probe._dirty if k in probe._actors):
                flat = [*chain(*probe._boundary_parts(key)), *probe._inboxes[key]]
                flows = probe._flow_in.get(key, {})
                parts = probe._materialize_inbox(key)
                assert list(chain.from_iterable(parts)) == flat
                # the steady parts are the column's own objects, in sender order
                steady = [flows[sender] for sender in sorted(flows)]
                handed = [p for p in parts if any(p is sub for sub in steady)]
                assert len(handed) == len(steady)
                assert all(a is b for a, b in zip(handed, steady))
                checked += 1
        assert checked > 20

    def test_a_sub_flow_survives_copies_without_what_it_carries(self):
        net = build_random_network(n=6, seed=3)
        net.run(12)
        subs = [s for by in net.scheduler._flow_in.values() for s in by.values()]
        sub = max(subs, key=len)
        assert sub.owners()
        for clone in (copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
            assert type(clone) is SubFlow and clone == sub
            assert clone.fp_sum == sub.fp_sum and clone.parsed is None
            assert clone._owners is None
            assert clone.owners() == sub.owners()

    def test_steady_application_mail_is_refused_at_install(self):
        """The lane contract, asserted where a sub-flow enters the
        columns (and never per step): AppPayloads do not travel by
        ``send()``."""
        from repro.netsim.messages import AppPayload

        class Mail(AppPayload):
            def canonical(self):
                return ("mail",)

            def refs(self):
                return ()

        class Chatty:
            def step(self, inbox, ctx):
                ctx.send("b", Mail())

        class Quiet:
            def step(self, inbox, ctx):
                pass

        sched = ColumnarScheduler()
        sched.add_actor("a", Chatty())
        sched.add_actor("b", Quiet())
        with pytest.raises(AssertionError, match="lane contract"):
            sched.run(3)
