"""The application lane: traffic does not dirty the overlay.

Application mail (``AppPayload`` posts and ``RoundContext.send_once``
sends) dirties nobody: in the default kernel, under every delivery
model, daemon and drop filter, a clean receiver runs only the traffic
handler, never the rule pipeline (the kernel holds the mail in a
per-target lane).  The full-scan
kernel stays the executable spec, so this suite drives both over the
same seeded traffic campaigns **round by round** and compares every
observable — including the ones that depend on *order* (``all_pending``,
completion order behind the collector's reservoir).  It also pins
the lane's own contract: the twin count (traffic adds no rule steps),
handler purity, and that tracing does not change the kernel.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import KIND_UNMARKED, EdgeAdd
from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.idspace.keys import key_id
from repro.netsim.columnar import ColumnarScheduler
from repro.netsim.messages import (
    HASH_MASK,
    AppPayload,
    Envelope,
    envelope_fingerprint,
    future_fingerprint,
)
from repro.netsim.scheduler import SynchronousScheduler
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT, LookupRequest
from repro.workloads.initial import build_random_network, random_peer_ids
from tests.conftest import KERNELS, build

OP_MIX = ((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2))
CONSTANT_2 = {"kind": "constant", "delay": 2}
LOGNORMAL = {"kind": "lognormal", "sigma": 0.9, "cap": 5, "seed": 3}
#: unit delivery and two latency models
DELIVERY_LEGS = pytest.mark.parametrize(
    "model", (None, CONSTANT_2, LOGNORMAL), ids=("unit", "constant", "lognormal")
)


class Campaign:
    """One seeded stabilized network with a traffic plane, recording its
    per-round rows unless ``telemetry`` is false."""

    def __init__(self, engine: str, seed: int, n: int = 14,
                 rate: float = 3.0, plane_cls=TrafficPlane, telemetry: bool = True):
        self.net = net = build(build_random_network, engine, n=n, seed=seed)
        if telemetry:
            net.enable_telemetry()
        net.run_until_stable(max_rounds=5000)
        self.plane = plane_cls(
            net, store=KeyValueStore(ReChordRouter(net)), reservoir_size=32,
        )
        self.gen = WorkloadGenerator(
            self.plane, rate=rate, op_mix=OP_MIX, key_universe=24,
            popularity="zipf", seed=seed, deadline=32,
        )
        self.sched = net.scheduler

    def round(self) -> tuple:
        """``plane.run_round()`` with the fingerprint taken after the
        injection, so a boundary-to-boundary change is observable."""
        self.gen.inject()
        before = self.net.fingerprint()
        self.net.run_round()
        self.plane.collector.expire(self.net.round_no)
        return before


def pending_hash(sched) -> int:
    """The pending half of ``config_hash()``, rebuilt from the envelopes
    (the spec scheduler keeps no hash of its own)."""
    rebuilt = sum(envelope_fingerprint(e) for e in sched.all_pending())
    rebuilt += sum(future_fingerprint(e, left) for left, e in sched.future_pending())
    return rebuilt & HASH_MASK


def lockstep(lane: Campaign, spec: Campaign, context: str, exact_flag: bool = True) -> None:
    """One round on both kernels, then every observable compared.  With
    ``exact_flag`` false (a drop filter installed, a partial round) the
    change flag may over-report, never under-report."""
    lane_before = lane.round()
    spec_before = spec.round()
    assert lane_before == spec_before, f"post-injection fingerprint {context}"
    fp = spec.net.fingerprint()
    assert lane.net.fingerprint() == fp, f"fingerprint {context}"
    flat = [(e.sender, e.target, e.payload) for e in lane.sched.all_pending()]
    assert flat == [
        (e.sender, e.target, e.payload) for e in spec.sched.all_pending()
    ], f"all_pending() order {context}"
    assert lane.sched.pending_messages() == spec.sched.pending_messages(), context
    pending = lane.sched.config_hash()[1]
    assert pending == pending_hash(lane.sched), f"pending hash {context}"
    assert pending == pending_hash(spec.sched), f"pending hash vs spec {context}"
    if exact_flag:
        assert lane.sched.changed_last_round == (fp != spec_before), f"change flag {context}"
    else:
        assert lane.sched.changed_last_round or fp == spec_before, f"change flag {context}"
    assert lane.sched.dropped_last_round == spec.sched.dropped_last_round, context
    last, ref = lane.net.telemetry.rounds[-1], spec.net.telemetry.rounds[-1]
    assert last[:2] == ref[:2], f"sent/dropped {context}"
    assert lane.net.counters().fires == spec.net.counters().fires, f"counters {context}"


def assert_same_ledger(lane: Campaign, spec: Campaign) -> None:
    a, b = lane.plane.collector, spec.plane.collector
    assert a.summary() == b.summary()
    # algorithm R consumes completions in order: equal reservoirs
    # mean the handlers ran in the same order on both kernels
    assert [c.op_id for c in a.completed] == [c.op_id for c in b.completed]
    assert list(a.completed) == list(b.completed)


def fresh_id(net, rng) -> int:
    while True:
        candidate = random_peer_ids(1, rng, net.space)[0]
        if candidate not in net.peers:
            return candidate


class TestLaneEquivalentToFullScan:
    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_join_leave_and_crash_of_a_lane_target(self, seed, engine):
        lane = Campaign(engine, seed)
        spec = Campaign("full", seed)
        rng = random.Random(seed + 1000)
        crashed_with_mail = False
        for r in range(48):
            if r == 10:
                new_id = fresh_id(lane.net, rng)
                for c in (lane, spec):
                    c.net.join(new_id, c.net.peer_ids[0])
            if r == 20:
                victim = lane.net.peer_ids[3]
                for c in (lane, spec):
                    c.net.leave(victim)
            if r == 30:
                # crash a peer while application mail is pending for it
                assert lane.sched._lane_targets
                victim = max(lane.sched._lane_targets)
                held = lane.sched._lane.get(victim)
                crashed_with_mail = bool(held)
                for c in (lane, spec):
                    c.net.crash(victim)
            lockstep(lane, spec, f"seed={seed} round={r}")
        assert crashed_with_mail
        for c in (lane, spec):
            c.gen.active = False
            c.plane.drain()
        assert_same_ledger(lane, spec)
        assert lane.net.fingerprint() == spec.net.fingerprint()

    def test_drop_filter_and_delivery_model_mid_traffic(self):
        """Both redefine every delivery while the lane holds mail: a
        filter re-derives what the pieces deliver, a model switch moves
        them between delay classes — with the generator active
        throughout."""
        lane = Campaign("columnar", seed=5)
        spec = Campaign("full", seed=5)
        cut = set(lane.net.peer_ids[:4])
        partition = lambda env: (env.sender in cut) != (env.target in cut)  # noqa: E731
        for r in range(60):
            if r == 8:
                assert lane.sched._lane_targets  # mail pending at the change
                for c in (lane, spec):
                    c.sched.set_drop_filter(partition)
            if r == 16:
                for c in (lane, spec):
                    c.sched.set_drop_filter(None)
            if r == 28:
                assert lane.sched._lane_targets
                for c in (lane, spec):
                    c.net.set_delivery_model({"kind": "constant", "delay": 2})
            if r == 34:
                for c in (lane, spec):
                    c.net.set_delivery_model("unit")
            lockstep(lane, spec, f"round={r}")
        for c in (lane, spec):
            c.gen.active = False
            c.plane.drain()
        assert_same_ledger(lane, spec)

    def test_reentry_moves_inbox_mail_into_the_lane(self):
        """Across a drop-filter change application mail keeps to the
        lane: posts wait in the buffers with their targets in the mail
        set, and the handlers' one-shot sends land in the lane."""
        lane = Campaign("columnar", seed=9)
        for _ in range(4):
            lane.round()
        lane.sched.set_drop_filter(lambda env: False)
        lane.round()
        lane.gen.inject()
        held = sum(isinstance(e.payload, LookupRequest) for e in lane.sched.all_pending())
        assert held and lane.sched._lane_targets
        lane.net.run_round()
        assert lane.sched._lane

    def test_dense_round_with_mail_pending_stays_columnar(self):
        """A dense round with application mail pending runs on the
        columns like any other full unit round, and the clean receiver
        of the mail runs only its handler there: the busy run matches
        its traffic-free twin step for step, and both match the spec."""

        def campaign(traffic: bool) -> tuple:
            lane = Campaign("columnar", seed=5, rate=0.0)
            spec = Campaign("full", seed=5, rate=0.0)
            origin = lane.net.peer_ids[0]
            for pid in lane.net.peers:
                if pid != origin:
                    lane.sched.mark_dirty(pid)
            if traffic:
                for c in (lane, spec):
                    c.plane.lookup("some-key", origin)
            assert traffic == (origin in lane.sched._lane_targets)
            steps = []
            for r in range(12):
                lockstep(lane, spec, f"traffic={traffic} round={r}")
                steps.append(lane.sched.executed_last_round)
            assert_same_ledger(lane, spec)
            return steps, lane.plane.collector.summary()["completed"]

        busy, completed = campaign(True)
        idle, _none = campaign(False)
        assert busy == idle
        # every peer but the mail-holding origin executes the dense round
        assert busy[0] == 14 - 1 and completed == 1

    @settings(max_examples=16, deadline=None)
    @given(
        rate=st.sampled_from([0.4, 1.5, 4.0]),
        events=st.lists(
            st.tuples(
                st.integers(0, 23),
                st.sampled_from(["join", "leave", "crash", "filter", "latency", "partial"]),
            ),
            max_size=4,
        ),
        model=st.sampled_from([CONSTANT_2, LOGNORMAL]),
        seed=st.integers(0, 50),
        engine=st.sampled_from(KERNELS),
    )
    def test_random_campaigns(self, rate, events, model, seed, engine):
        lane = Campaign(engine, seed, n=10, rate=rate)
        spec = Campaign("full", seed, n=10, rate=rate)
        rng = random.Random(seed)
        schedule: dict = {}
        for when, kind in events:
            schedule.setdefault(when, []).append(kind)
        filtered = slow = napping = False
        for r in range(24):
            for kind in schedule.get(r, ()):
                ids = lane.net.peer_ids
                if kind == "join":
                    new_id = fresh_id(lane.net, rng)
                    for c in (lane, spec):
                        c.net.join(new_id, ids[0])
                elif kind == "filter":
                    filtered = not filtered
                    cut = set(ids[::3])
                    drop = (lambda env: (env.sender in cut) != (env.target in cut)) if filtered else None
                    for c in (lane, spec):
                        c.sched.set_drop_filter(drop)
                elif kind == "latency":
                    slow = not slow
                    for c in (lane, spec):
                        c.net.set_delivery_model(model if slow else "unit")
                elif kind == "partial":
                    napping = not napping
                    daemon = {"kind": "partial", "p": 0.6, "seed": seed} if napping else "full"
                    for c in (lane, spec):
                        c.net.set_daemon(daemon)
                elif len(ids) > 4:
                    victim = rng.choice(ids)
                    for c in (lane, spec):
                        getattr(c.net, kind)(victim)
            # the change flag may over-report only while a filter can eat a
            # one-shot or a partial round runs; everywhere else, latency
            # included, it is exact
            exact_flag = not filtered and not napping
            lockstep(
                lane, spec, f"rate={rate} events={events} model={model} seed={seed} round={r}",
                exact_flag,
            )
        assert_same_ledger(lane, spec)


class Token(AppPayload):
    """A one-shot hop counter for the kernel-level ring below."""

    def __init__(self, hops: int) -> None:
        self.hops = hops

    def canonical(self) -> tuple:
        return ("token", self.hops)

    def refs(self) -> tuple:
        return ()

    def __eq__(self, other) -> bool:
        return isinstance(other, Token) and other.hops == self.hops

    def __hash__(self) -> int:
        return hash(("token", self.hops))


class Relay:
    """Steady heartbeat to the next actor; application tokens are
    passed on one hop per round by the handler."""

    def __init__(self, nxt: int) -> None:
        self.next = nxt
        self.seen: list = []

    def state_version(self) -> int:
        return 0

    def state_token(self) -> tuple:
        return ()

    def replay_step(self) -> None:
        pass

    def step(self, inbox, ctx) -> None:
        ctx.send(self.next, "heartbeat")
        mail = [env for env in inbox if isinstance(env.payload, AppPayload)]
        if mail:
            self.handle_app(mail, ctx)

    def handle_app(self, inbox, ctx) -> None:
        for env in inbox:
            self.seen.append((ctx.round_no, env.payload.hops))
            if env.payload.hops:
                ctx.send_once(self.next, Token(env.payload.hops - 1))


class TestLaneKernelLevel:
    """Toy actors, no liveness oracle: membership surgery at any ring
    position is comparable between the lane kernel and the spec."""

    @staticmethod
    def ring(sched, size: int = 6) -> list:
        relays = [Relay((i + 1) % size) for i in range(size)]
        for i, relay in enumerate(relays):
            sched.add_actor(i, relay)
        return relays

    def test_target_removed_before_its_lane_step(self):
        lane, spec = ColumnarScheduler(), SynchronousScheduler()
        rings = [self.ring(lane), self.ring(spec)]
        for sched in (lane, spec):
            sched.run(3)
        assert lane.executed_last_round == 0
        for sched in (lane, spec):
            assert sched.post_batch(
                [Envelope(i, i, Token(8)) for i in (1, 4, 5)]
            ) == [True] * 3
            sched.remove_actor(4)  # 4 still holds its token
        for r in range(12):
            for sched in (lane, spec):
                sched.run_round()
            assert [(e.sender, e.target, e.payload) for e in lane.all_pending()] == [
                (e.sender, e.target, e.payload) for e in spec.all_pending()
            ], f"round {r}"
            assert lane.dropped_last_round == spec.dropped_last_round, f"round {r}"
            assert lane.pending_messages() == spec.pending_messages()
            rolling = sum(envelope_fingerprint(e) for e in lane.all_pending()) & HASH_MASK
            assert lane.config_hash()[1] == rolling, f"round {r}"
            # only the heartbeat change around the removal runs the rules
            assert lane.executed_last_round <= (1 if r in (0, 1) else 0), f"round {r}"
        assert [x.seen for x in rings[0]] == [x.seen for x in rings[1]]
        assert rings[0][4].seen == []  # its token died with it
        assert not lane.changed_last_round


class TestLaneContract:
    @DELIVERY_LEGS
    def test_traffic_executes_exactly_the_twins_rule_steps(self, model):
        """Application messages never run the rule pipeline: the join +
        crash campaign executes as many rule steps with the generator
        injecting as with it inactive, round for round — under unit
        delivery and under latency."""

        def campaign(traffic: bool, rounds: int = 40) -> tuple:
            c = Campaign("columnar", seed=21, n=16, rate=6.0)
            if model is not None:
                c.net.set_delivery_model(model)
            c.gen.active = traffic
            rng = random.Random(4)
            steps = []
            while len(steps) < rounds or c.plane.collector.outstanding:
                r = len(steps)
                # unit delivery drains within the 40 rounds; latency may
                # take longer, but never unboundedly
                assert r < (40 if model is None else 200), "the ledger never drained"
                if r == 6:
                    c.net.join(fresh_id(c.net, rng), rng.choice(c.net.peer_ids))
                if r == 14:
                    c.net.crash(rng.choice(c.net.peer_ids))
                if r == 24:
                    c.gen.active = False
                c.plane.run_round()
                executed, replayed = c.net.activity_stats()
                assert executed + replayed == len(c.net.peers)
                steps.append(executed)
            return steps, c.plane.collector.summary()["completed"], c.net.fingerprint()

        busy, completed, busy_fp = campaign(True)
        idle, none, idle_fp = campaign(False, len(busy))
        assert completed > 100 and none == 0
        assert busy == idle
        assert busy[-1] == 0  # back to quiescence
        assert busy_fp == idle_fp

    @DELIVERY_LEGS
    def test_a_dense_join_costs_traffic_no_rule_steps(self, model):
        """A join at small n makes repair rounds dense: both runs take
        them on the columns, under unit delivery or latency, pending
        application mail or not, and a clean receiver runs only its
        handler there — the same rule steps, round for round."""

        def campaign(traffic: bool) -> tuple:
            c = Campaign("columnar", seed=4, n=6, rate=4.0)
            if model is not None:
                c.net.set_delivery_model(model)
            c.gen.active = traffic
            rng = random.Random(2)
            steps = []
            for r in range(30):
                if r == 3:
                    c.net.join(fresh_id(c.net, rng), c.net.peer_ids[0])
                if r == 18:
                    c.gen.active = False
                c.plane.run_round()
                steps.append(c.net.activity_stats()[0])
            return steps, c.plane.collector.summary()["completed"], c.net.fingerprint()

        busy, completed, busy_fp = campaign(True)
        idle, _none, idle_fp = campaign(False)
        assert completed > 40
        assert busy == idle
        assert busy_fp == idle_fp

    def test_tracked_kernel_runs_a_receiver_only_its_handler(self):
        """The lane rule under latency: a clean receiver of application
        mail replays and runs its handler — no rule step for any hop.
        Under a constant two-round delay every hop spends a round on the
        wire and is consumed the next."""
        net = build_random_network(n=12, seed=7)
        net.set_delivery_model(CONSTANT_2)
        net.run_until_stable(max_rounds=5000)
        plane = TrafficPlane(net)
        net.run_round()
        assert net.activity_stats()[0] == 0
        owner = plane.true_owner(key_id("some-key", net.space))
        origin = next(p for p in net.peer_ids if p != owner)
        plane.lookup("some-key", origin)
        rounds = 0
        while plane.collector.outstanding:
            net.run_round()
            rounds += 1
            assert rounds < 64, "the lookup was lost on the wire"
            assert net.activity_stats() == (0, len(net.peers))
        # the origin consumes the post, then two rounds per hop
        assert rounds > 3 and rounds % 2 == 1
        assert plane.collector.summary()["outcomes"] == {"ok": 1}
        for _ in range(3):
            net.run_round()
            assert net.activity_stats()[0] == 0
        assert not net.scheduler.changed_last_round

    def test_lane_only_peers_count_as_replayed(self):
        lane = Campaign("columnar", seed=3, rate=5.0)
        lane.plane.run(6)
        assert lane.sched._lane_targets
        lane.plane.run_round()
        executed, replayed = lane.net.activity_stats()
        assert executed == 0 and replayed == len(lane.net.peers)
        assert lane.sched.changed_last_round  # traffic in flight is a change

    def test_mutating_handler_is_rejected(self):
        """The lane is sound only while handlers leave the overlay alone."""

        class MutatingPlane(TrafficPlane):
            def handle(self, peer, payloads, ctx):
                peer.state.nodes[0].nu.add(self.net.ref(self.net.peer_ids[-1]))
                peer.state.nodes[0].nu.discard(peer.state.nodes[0].ref)
                super().handle(peer, payloads, ctx)

        lane = Campaign("columnar", seed=3, rate=0.0, plane_cls=MutatingPlane)
        lane.net.run_round()
        origin = lane.net.peer_ids[0]
        lane.plane.lookup("k", origin)
        with pytest.raises(RuntimeError) as err:
            lane.net.run_round()
        assert f"peer {origin}" in str(err.value) and "LookupRequest" in str(err.value)

    def test_steady_send_from_a_lane_handler_is_rejected(self):
        """Any steady send from a lane step is refused (application mail
        by ``send()`` is refused earlier still, by the lane contract)."""

        class SteadyPlane(TrafficPlane):
            def handle(self, peer, payloads, ctx):
                ctx.send(peer.state.peer_id, "steady")

        lane = Campaign("columnar", seed=3, rate=0.0, plane_cls=SteadyPlane)
        lane.net.run_round()
        lane.plane.lookup("k", lane.net.peer_ids[0])
        with pytest.raises(RuntimeError, match="send_once"):
            lane.net.run_round()

    def test_lane_mail_without_a_plane_fails_loudly(self):
        net = build_random_network(n=6, seed=3, engine="columnar")
        net.run_until_stable(max_rounds=5000)
        net.run_round()
        origin = net.peer_ids[0]
        req = LookupRequest(op=OP_LOOKUP, op_id=0, origin=origin, kid=1, ttl=8)
        net.scheduler.post(Envelope(origin, origin, req))
        with pytest.raises(TypeError, match="no traffic plane"):
            net.run_round()


class TestTracedRunsUseTheSameKernel:
    def test_telemetry_on_columnar_traffic_run_records_no_kernel_step(self):
        """Regression: attaching a recorder mid-run must not move the
        kernel off its unit path — a traced unit run records the unit
        phases (materialize / execute / patch), never the latency
        regime's ``kernel.step``."""
        lane = Campaign("columnar", seed=3, rate=4.0, telemetry=False)
        lane.plane.run(3)
        rec = lane.net.enable_telemetry()
        lane.plane.run(12)
        assert "kernel.step" not in rec.timers
        assert rec.timers["kernel.execute"][1] > 0
        assert rec.timers["peer.traffic"][1] > 0
        assert rec.counters["rounds"] == 12

    def test_envelope_census_identical_when_attached_mid_run(self):
        """The in-place typed mirror must equal the one a full-scan
        kernel counts, one-shot sends included."""
        censuses = []
        for engine in ("columnar", "full"):
            c = Campaign(engine, seed=5, rate=3.0, telemetry=False)
            c.plane.run(4)
            rec = c.net.enable_telemetry()
            c.plane.run(10)
            censuses.append(c.net.telemetry_census())
        assert censuses[0] == censuses[1]
        assert censuses[0]["messages"]["LookupRequest"] > 0


class TestPostBatch:
    @pytest.mark.parametrize("loop", ["columnar", "filtered"])
    def test_ref_carrying_batch_reaches_the_liveness_flip_query(self, loop):
        """``post_batch`` goes through the kernel's ``post``: a batched
        protocol payload referencing an owner that then crashes wakes its
        receiver exactly like the spec — also with a drop filter
        installed (one that drops nothing), whose pieces the query reads
        as the filter delivers them."""
        nets = []
        for engine in ("columnar", "full"):
            net = build_random_network(n=10, seed=13, engine=engine)
            net.run_until_stable(max_rounds=5000)
            net.run_round()
            if loop == "filtered":
                net.scheduler.set_drop_filter(lambda env: False)
            nets.append(net)
        lane, spec = nets
        sched = lane.scheduler
        a, b, c = lane.peer_ids[0], lane.peer_ids[4], lane.peer_ids[7]
        for net in nets:
            payload = EdgeAdd(net.ref(b), net.ref(c), KIND_UNMARKED)
            assert net.scheduler.post_batch([Envelope(a, b, payload)]) == [True]
        assert b in sched.ref_receivers({c})
        for net in nets:
            net.crash(c)
        # between rounds the in-flight scan waits for the round start
        assert c in lane._level_flips
        lane._drain_level_flips()
        assert b in sched._dirty
        for r in range(12):
            for net in nets:
                net.run_round()
            assert lane.fingerprint() == spec.fingerprint(), f"round {r}"
            assert lane.counters().fires == spec.counters().fires
        assert not sched.ref_receivers({c})

    def test_batch_results_match_per_envelope_posts(self):
        lane = Campaign("columnar", seed=3, rate=0.0)
        lane.net.run_round()
        origin, dead = lane.net.peer_ids[0], lane.net.peer_ids[1]
        lane.net.crash(dead)
        reqs = [
            LookupRequest(op=OP_LOOKUP, op_id=i, origin=o, kid=1, ttl=8)
            for i, o in enumerate((origin, dead, origin))
        ]
        envs = [Envelope(r.origin, r.origin, r) for r in reqs]
        dirty = set(lane.sched._dirty)
        assert lane.sched.post_batch(envs) == [True, False, True]
        assert lane.sched._lane_targets == {origin}
        assert lane.sched._dirty == dirty  # lane posts dirty nobody
