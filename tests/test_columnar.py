"""Differential kernel tests: columnar engine ≡ full-scan.

The columnar kernel (flow-indexed inboxes over interned NodeRef ids,
batched dirty-set rule evaluation, bulk per-round delivery, delay
classes, partial activation and filter changes in the same columns)
must be **round-for-round equivalent** to the full-scan spec: same
:class:`StabilizationReport`, same ``fingerprint()`` at every boundary,
and same rule-firing counters — across churn, partial activation,
latency models, drop filters, and whole scenario campaigns.  These
tests drive the kernel as shipped, the kernel with every round on its
general delivery point, and the spec over the same inputs and compare.

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
from repro.netsim.scheduler import SynchronousScheduler
from repro.netsim.rng import SeedSequence
from repro.scenarios import make_scenario, run_scenario, scenario_names
from repro.workloads.churn import ChurnSchedule, apply_event
from repro.workloads.initial import (
    build_random_network,
    corrupt_network,
    random_peer_ids,
)
from tests.conftest import GENERAL, build, leg

ROOT = SeedSequence(61011)


def build_triple(n: int, seed: int, corrupt: bool = False):
    """The same seeded start: the kernel as shipped, the kernel with
    every round on its general delivery point, and the full-scan spec
    (last)."""
    nets = [
        build(build_random_network, engine, n=n, seed=seed)
        for engine in ("columnar", GENERAL, "full")
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


class TestSettledShortcut:
    """Under settled unit delivery a round applies its patches where
    they are made and skips the wake wheel and the flux horizon (the
    shortcut); every full or partial unit round keeps it, filter changes
    included.  Only a non-unit past takes the general delivery point,
    and the kernel takes the shortcut again once that past has landed."""

    @staticmethod
    def _rounds_until_stable(net) -> list:
        """``(executed, settled at the round's start)`` per round, run
        to the fixpoint."""
        sched, log = net.scheduler, []
        while True:
            settled = sched._unit_settled()
            net.run_round()
            log.append((sched.executed_last_round, settled))
            if not sched.changed_last_round:
                return log

    def test_every_full_unit_round_keeps_the_shortcut(self):
        from repro.traffic import TrafficPlane

        net = build_random_network(n=24, seed=5)
        sched = net.scheduler
        # a cold start: dense rounds, most peers executing
        cold = self._rounds_until_stable(net)
        assert all(settled for _executed, settled in cold)
        assert sum(executed > len(net.peers) // 2 for executed, _ in cold) >= 3
        # a join, then a crash wave: the repair rounds
        new_id = next(i for i in range(1, 2**20) if i not in net.peers)
        net.join(new_id, net.peer_ids[0])
        assert all(settled for _executed, settled in self._rounds_until_stable(net))
        for pid in net.peer_ids[1::6]:
            net.crash(pid)
        assert all(settled for _executed, settled in self._rounds_until_stable(net))
        # a traffic round with every peer dirty
        plane = TrafficPlane(net)
        for pid in net.peers:
            sched.mark_dirty(pid)
        plane.lookup("some-key", net.peer_ids[0])
        net.run_round()
        assert sched.executed_last_round == len(net.peers) and sched._unit_settled()
        plane.drain()
        assert sched._unit_settled()
        assert plane.collector.summary()["completed"] == 1

    def test_the_general_leg_never_takes_the_shortcut(self, monkeypatch):
        """The differential suites' ``GENERAL`` leg feeds every round of
        a cold start through the general delivery point, built directly
        or through ``leg()``; the kernel as shipped feeds none."""
        fed = []
        feed = ColumnarScheduler._feed_flow_changes

        def counted(sched, round_no, *args):
            fed.append(round_no)
            return feed(sched, round_no, *args)

        monkeypatch.setattr(ColumnarScheduler, "_feed_flow_changes", counted)
        net = build(build_random_network, GENERAL, n=16, seed=3)
        rounds = len(self._rounds_until_stable(net))
        assert rounds > 1 and fed == list(range(rounds))
        fed.clear()
        with leg(GENERAL) as engine:
            net = build_random_network(n=16, seed=3, engine=engine)
            assert len(self._rounds_until_stable(net)) == rounds
        assert fed == list(range(rounds))
        fed.clear()
        net = build_random_network(n=16, seed=3)
        assert len(self._rounds_until_stable(net)) == rounds and fed == []

    @pytest.mark.parametrize("trigger", ["latency", "partial", "filter"])
    def test_only_a_non_unit_past_leaves_the_shortcut(self, trigger):
        net = build_random_network(n=16, seed=3)
        net.run_until_stable(max_rounds=4000)
        sched = net.scheduler
        assert sched._unit_settled()
        if trigger == "latency":
            net.set_delivery_model({"kind": "constant", "delay": 2})
        elif trigger == "partial":
            net.set_daemon({"kind": "partial", "p": 0.5, "seed": 1})
        else:
            sched.set_drop_filter(lambda env: False)
        shortcut = []
        for _ in range(4):
            shortcut.append(sched._unit_settled())
            net.run_round()
        # partial activation filters the work list and a filter change
        # re-derives the pieces: neither leaves the shortcut
        assert shortcut == [trigger != "latency"] * 4
        if trigger == "latency":
            net.set_delivery_model("unit")
        elif trigger == "partial":
            net.set_daemon("full")
        else:
            sched.set_drop_filter(None)
        net.run_until_stable(max_rounds=4000)
        net.run_round()
        assert sched._unit_settled() and sched.executed_last_round == 0


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
        """Partial rounds leave gaps and held inboxes in the columns;
        the kernel agrees with the spec through them and after."""
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
        """Installing a non-unit delivery model moves the pieces into
        their delay classes; restoring unit delivery moves them back —
        equivalence must hold through both transitions."""
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
        """A delivery-time drop filter (partition) re-derives what the
        pieces deliver, and so does lifting it — compare at every
        boundary."""
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
            victim.state.nodes[max(victim.state.nodes)].nu.add(foreign)
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
        two legs can pin that both delivery points wake exactly the same
        dirty set."""
        spec = make_scenario(name, n=12, seed=5)
        col = run_scenario(spec, engine="columnar", telemetry=True)
        with leg(GENERAL) as engine:
            general = run_scenario(spec, engine=engine, telemetry=True)
        # dataclass equality covers recovery metrics, repair curve, SLO
        # ledger, rule firings and the configuration digest
        assert col == general, f"the two delivery points diverged under scenario {name!r}"
        assert col.telemetry["kernel"] == general.telemetry["kernel"], name
        assert col.activity == general.activity, name

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

    def test_iid_is_a_dense_row(self):
        space = IdSpace()
        ref = make_ref(space, 424242, 5)
        assert 0 <= ref.iid < len(INTERN._by_key)
        assert make_ref(space, 424242, 5).iid == ref.iid

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
from collections import Counter
from itertools import chain, count

from repro.netsim.messages import HASH_MASK, SubFlow, envelope_fingerprint, group_by_target


def fingerprint_sum(envelopes) -> int:
    """The multiset fingerprint sum of ``envelopes`` (64-bit wrap-around)."""
    return sum(map(envelope_fingerprint, envelopes)) & HASH_MASK


def referenced_owners(env) -> set:
    """The owner ids of every node ref one envelope carries."""
    return {ref.owner for ref in env.payload.refs()}


def audit_columns(sched: ColumnarScheduler) -> None:
    """Every derived value of the columnar kernel against a rebuild from
    the envelopes it holds: what each piece carries and where it sits
    (target, sender, delay class), the running totals, the in-flight
    copies of the delayed pieces, the pending multiset and count, the
    in-flight ref query, and the sender-side split, whose pieces the
    columns share."""
    flt = sched._flt
    flow_pending = dropped = 0
    pending: Counter = Counter()
    patched = {(t, d, s) for entries in sched._patch_at.values() for t, d, s, _p in entries}
    expected_in_flight: Counter = Counter()
    for column, live, late in (
        (sched._flow_in, True, False), (sched._late_in, True, True),
        (sched._dead_in, False, False), (sched._dead_late, False, True),
    ):
        for target, subs in column.items():
            assert subs and (target in sched._actors) == live
            for key, sub in subs.items():
                d, sender = (-key[0], key[2]) if late else (1, key)
                assert (key == (-d, 0, sender) and d >= 2) if late else True
                assert type(sub) is SubFlow and len(sub) > 0
                assert all(env.sender == sender and env.target == target for env in sub)
                assert sub.fp_sum == fingerprint_sum(sub)
                assert sub.owners() == {o for env in sub for o in referenced_owners(env)}
                kept = [env for env in sub if flt is None or not flt(env)]
                if live:
                    assert list(sched._kept(sub)) == kept
                    flow_pending += len(kept)
                    dropped += len(sub) - len(kept)
                    pending.update(map(envelope_fingerprint, kept))
                else:
                    dropped += len(sub)
                if (target, d, sender) not in patched:
                    # its sends of the last d - 1 rounds are on the wire
                    for remaining in range(1, d):
                        expected_in_flight.update(
                            (remaining, envelope_fingerprint(env)) for env in sub
                        )
    assert sched._flow_pending == flow_pending
    assert sched._flow_dropped == dropped
    future = sched.future_pending()
    in_flight = Counter((remaining, envelope_fingerprint(env)) for remaining, env in future)
    assert not expected_in_flight - in_flight
    for parts in chain(sched._held.values(), (o.values() for o in sched._late_once.values())):
        pending.update(envelope_fingerprint(env) for part in parts for env in part)
    for boxes in (sched._lane, sched._inboxes):
        for box in boxes.values():
            pending.update(map(envelope_fingerprint, box))
    assert Counter(map(envelope_fingerprint, sched.all_pending())) == pending
    assert sched.pending_messages() == len(sched.all_pending()) + len(future)
    # owner -> the targets whose boundary inbox references it
    holders: dict = {}
    for env in sched.all_pending():
        for owner in referenced_owners(env):
            holders.setdefault(owner, set()).add(env.target)
    nobody = next(owner for owner in count() if owner not in holders)
    for owner in [*holders, nobody]:
        assert sched.ref_receivers({owner}) == holders.get(owner, set()), owner
    for key in sched._actors:
        out = sched._out[key]
        split = sched._out_by.get(key)
        if split is None:
            continue
        assert split == {target: SubFlow(sub) for target, sub in group_by_target(out).items()}
        assert sum(sub.fp_sum for sub in split.values()) & HASH_MASK == fingerprint_sum(out)
        if sched._switched_from is not None:
            continue
        for target, sub in split.items():
            for d, piece in sub.delay_buckets(sched._delivery):
                if (target, d, key) in patched or target in sched._revive:
                    continue
                live = target in sched._actors
                if d == 1:
                    column, slot = (sched._flow_in if live else sched._dead_in), key
                else:
                    column, slot = (sched._late_in if live else sched._dead_late), (-d, 0, key)
                # one object, shared by the sender's split and the column
                assert column[target][slot] is piece


def audited_churn_run(latency: bool) -> None:
    """A churn run of the columnar kernel and the spec in lockstep, the
    audit at every boundary and right after each event: changed /
    stopped / started sub-flows (join, leave), dead targets and a
    revival (crash, re-join of the crashed id), a removed sender's last
    sends and buffered farewell posts (a leave), filtered pieces (a
    partition).  ``latency``: all of it under lognormal delivery, with a
    partial-daemon stretch (held inboxes, gaps) and the partition
    installed and lifted while pieces are in flight."""
    spec = build_random_network(n=14, seed=8, engine="full")
    net = build_random_network(n=14, seed=8)
    sched = net.scheduler
    ids = net.peer_ids
    fresh = next(i for i in range(1, 2**20) if i not in net.peers)
    crashed, removed, left = ids[5], ids[9], ids[3]
    side = frozenset(ids[:7])

    def cut(env):
        return (env.sender in side) != (env.target in side)

    looks = ["audits", "removed", "dead", "filtered", "posted ref"]
    if latency:
        looks += ["late", "held", "in flight"]
        for n in (spec, net):
            n.set_delivery_model({"kind": "lognormal", "sigma": 0.9, "cap": 4, "seed": 3})
    seen = dict.fromkeys(looks, 0)

    def audit():
        audit_columns(sched)
        seen["audits"] += 1
        # a removed sender's pieces still deliver until patched away
        seen["removed"] += any(p is None for es in sched._patch_at.values() for *_, p in es)
        seen["dead"] += bool(sched._dead_in or sched._dead_late)
        seen["filtered"] += sched._flt is not None
        seen["posted ref"] += any(
            referenced_owners(env) for box in sched._inboxes.values() for env in box
        )
        if latency:
            seen["late"] += bool(sched._late_in)
            seen["held"] += bool(sched._held)
            seen["in flight"] += bool(sched.future_pending())

    events = {30, 50, 65, 80, 95}
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
                n.leave(removed)
            elif r == 110:
                n.scheduler.set_drop_filter(cut)
            elif r == 135:
                n.scheduler.set_drop_filter(None)
            elif latency and r == 40:
                n.set_daemon({"kind": "partial", "p": 0.6, "seed": 3})
            elif latency and r == 56:
                n.set_daemon("full")
        if r in events:
            audit()
        for n in (spec, net):
            n.run_round()
        assert net.fingerprint() == spec.fingerprint(), f"at round {r}"
        audit()
    assert seen["audits"] > 150 and all(seen.values()), seen
    assert crashed in net.peers and crashed not in sched._dead_in
    assert crashed not in sched._dead_late


class TestSubFlowAccounting:
    """The columnar kernel's own bookkeeping."""

    def test_totals_equal_a_rebuild_at_every_boundary_of_a_churn_run(self):
        """The audit holds at every boundary of a churn run under unit
        delivery, and the spec agrees throughout."""
        audited_churn_run(latency=False)

    def test_totals_equal_a_rebuild_at_every_boundary_under_latency_and_naps(self):
        """The same run under lognormal delivery, partial activation and
        a partition that comes and goes while pieces are in flight."""
        audited_churn_run(latency=True)

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
                net.crash(net.peer_ids[4])  # a removed sender's last sends
            net.run_round()
            probe = copy.deepcopy(net.scheduler)
            for key in sorted(k for k in probe._dirty if k in probe._actors):
                flat = [*chain(*probe._pending_parts(key)), *probe._inboxes[key]]
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
        """The lane contract, asserted where a steady envelope is built
        (a cache miss of ``send()``, never per step), on either kernel:
        AppPayloads do not travel by ``send()``."""
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

        for kernel in (ColumnarScheduler, SynchronousScheduler):
            sched = kernel()
            sched.add_actor("a", Chatty())
            sched.add_actor("b", Quiet())
            with pytest.raises(AssertionError, match="lane contract"):
                sched.run(3)

    def test_one_shot_overlay_mail_is_refused(self):
        """The lane contract's other half, on either kernel: only
        AppPayloads travel by ``send_once()``.  Rule-visible one-shot
        mail would land at different inbox positions: ``a`` sends a
        steady and a one-shot to ``c``, ``b`` a steady; the spec reads
        a-steady, a-once, b-steady and the columns a-steady, b-steady,
        a-once."""

        class Sender:
            def __init__(self, name, once):
                self.name, self.once = name, once

            def step(self, inbox, ctx):
                ctx.send("c", f"{self.name}-steady")
                if self.once:
                    ctx.send_once("c", f"{self.name}-once")

        class Quiet:
            def step(self, inbox, ctx):
                pass

        for kernel in (ColumnarScheduler, SynchronousScheduler):
            sched = kernel()
            sched.add_actor("a", Sender("a", once=True))
            sched.add_actor("b", Sender("b", once=False))
            sched.add_actor("c", Quiet())
            with pytest.raises(AssertionError, match="lane contract"):
                sched.run(1)
