"""The pluggable time model: delivery models, activation daemons, and
the exactness of the simulation kernels under non-unit latency.

Five layers of guarantees:

* **model layer** — delivery models and daemons are deterministic pure
  functions of their seeds and inputs, round-trip through spec dicts,
  and respect their bounds;
* **semantics** — a delay-``k`` send is consumed exactly ``k`` rounds
  later, matured deliveries respect the drop filter, and scheduled
  envelopes are part of the configuration (fingerprints differ by
  maturity);
* **engine equivalence** — the dirty-set kernel stays round-for-round
  equivalent to the full-scan kernel under latency models, daemons, and
  the combined adversity of latency + partition + traffic + churn in
  one seeded run;
* **latency exactness** — a sub-flow change wakes its target for the
  round it arrives in and matured steady mail dirties nobody (the wake
  wheel): a stable network replays everyone under every model, and a
  missed wake would show up as a divergence from the full-scan spec;
* **exact change flag** — ``changed_last_round`` equals a genuine
  full-fingerprint comparison at every boundary while non-unit delivery
  is in effect (O(changed) flags extended by the flux horizon: a change
  front keeps the flag raised while it travels, and for its landing
  boundary iff it is deliverable then).
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.netsim.columnar import ColumnarScheduler
from repro.netsim.messages import AppPayload, Envelope, SubFlow
from repro.netsim.timemodel import (
    DAEMON_KINDS,
    DELIVERY_KINDS,
    LogNormalDelivery,
    TimeModel,
    make_daemon,
    make_delivery_model,
    stable_u64,
)
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT
from repro.workloads.initial import build_random_network, random_peer_ids
from tests.conftest import KERNELS, build

#: non-unit delivery specs exercised throughout
LATENCY_MODELS = (
    {"kind": "constant", "delay": 3},
    {"kind": "slow_links", "fraction": 0.4, "delay": 3, "seed": 11},
    {"kind": "lognormal", "sigma": 0.9, "cap": 5, "seed": 3},
    {"kind": "regions", "regions": 2, "delay": 4, "seed": 5},
    {"kind": "reorder", "bound": 4, "seed": 7},
)


class Recorder:
    """Generic actor: records per-round inboxes, emits nothing."""

    def __init__(self):
        self.seen = []

    def step(self, inbox, ctx):
        self.seen.append([env.payload for env in inbox])


def _attach_traffic(net, seed):
    """A KV workload on ``net`` (same seed, same stream on any engine)."""
    plane = TrafficPlane(net, store=KeyValueStore(ReChordRouter(net)))
    WorkloadGenerator(
        plane,
        rate=1.5,
        op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
        seed=seed,
    )
    return plane


#: between-round events of the latency campaigns; a dict is a model switch
EVENT_KINDS = ("crash", "leave", "join", "filter_on", "filter_off", "unit")
#: the campaigns additionally nap: partial activation for a while
DAEMON_KINDS_ON_OFF = ("daemon_on", "daemon_off")


def _apply_event(net, event, rng) -> None:
    """Apply one between-round event; every choice is drawn from ``rng``
    and the sorted peer ids, so equal-seeded networks stay in lockstep."""
    ids = net.peer_ids
    if isinstance(event, dict) or event == "unit":
        net.set_delivery_model(event)
    elif event in ("crash", "leave"):
        victim = rng.choice(ids)
        if len(ids) > 4:
            getattr(net, event)(victim)
    elif event == "join":
        new_id = random_peer_ids(1, rng, net.space)[0]
        while new_id in net.peers:
            new_id = random_peer_ids(1, rng, net.space)[0]
        net.join(new_id, rng.choice(ids))
    elif event == "filter_on":
        side = frozenset(ids[: len(ids) // 2])
        net.scheduler.set_drop_filter(
            lambda env, _s=side: (env.sender in _s) != (env.target in _s)
        )
    elif event == "filter_off":
        net.scheduler.set_drop_filter(None)
    elif event == "daemon_on":
        net.set_daemon({"kind": "partial", "p": 0.6, "seed": rng.randrange(99)})
    elif event == "daemon_off":
        net.set_daemon("full")
    else:  # pragma: no cover - test bug
        raise ValueError(event)


class TestModels:
    @pytest.mark.parametrize("spec", [{"kind": k} for k in sorted(DELIVERY_KINDS)])
    def test_delivery_spec_round_trip(self, spec):
        model = make_delivery_model(spec)
        again = make_delivery_model(model.to_dict())
        assert again.to_dict() == model.to_dict()

    @pytest.mark.parametrize("spec", [{"kind": k} for k in sorted(DAEMON_KINDS)])
    def test_daemon_spec_round_trip(self, spec):
        daemon = make_daemon(spec)
        assert make_daemon(daemon.to_dict()).to_dict() == daemon.to_dict()

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown delivery model"):
            make_delivery_model("warp")
        with pytest.raises(ValueError, match="unknown daemon"):
            make_daemon("warp")

    @pytest.mark.parametrize("spec", LATENCY_MODELS)
    def test_delays_deterministic_within_bound_and_self_links_unit(self, spec):
        model = make_delivery_model(spec)
        fresh = make_delivery_model(spec)
        bound = model.delay_bound()
        assert bound >= 2 and not model.is_unit
        for s in range(6):
            for t in range(6):
                env = Envelope(s, t, ("payload", s, t))
                d = model.delay(env)
                assert 1 <= d <= bound
                assert d == model.delay(env), "delay not deterministic"
                assert d == fresh.delay(env), "delay depends on instance state"
                if s == t:
                    assert d == 1, "self-links must never be wire-delayed"

    def test_reorder_actually_reorders_within_bound(self):
        model = make_delivery_model({"kind": "reorder", "bound": 4, "seed": 1})
        delays = {
            model.delay(Envelope(1, 2, ("payload", i))) for i in range(32)
        }
        assert len(delays) > 1, "per-envelope jitter never varied"
        assert max(delays) <= 4

    def test_stable_u64_is_process_stable(self):
        # frozen value: a change here breaks every seeded baseline
        assert stable_u64("probe", 1) == stable_u64("probe", 1)
        assert stable_u64("probe", 1) != stable_u64("probe", 2)

    def test_constant_delay_one_counts_as_unit(self):
        assert make_delivery_model({"kind": "constant", "delay": 1}).is_unit
        assert make_daemon({"kind": "partial", "p": 1.0}).is_full
        assert make_daemon({"kind": "round_robin", "groups": 1}).is_full

    def test_time_model_dict_round_trip(self):
        model = TimeModel({"kind": "constant", "delay": 2}, {"kind": "partial", "p": 0.5})
        again = TimeModel.from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()
        assert not model.is_unit and TimeModel.unit().is_unit


class TestDaemons:
    KEYS = list(range(10))

    def test_round_robin_is_exactly_fair(self):
        daemon = make_daemon({"kind": "round_robin", "groups": 3})
        counts = {k: 0 for k in self.KEYS}
        for r in range(9):
            for k in daemon.select(r, self.KEYS):
                counts[k] += 1
        assert all(c == 3 for c in counts.values())

    def test_unfair_bounded_activates_everyone_once_per_window(self):
        daemon = make_daemon({"kind": "unfair", "bound": 4, "seed": 2})
        for window in range(3):
            seen = set()
            for r in range(4 * window, 4 * window + 4):
                seen |= daemon.select(r, self.KEYS)
            assert seen == set(self.KEYS)

    def test_partial_selection_deterministic(self):
        daemon = make_daemon({"kind": "partial", "p": 0.5, "seed": 9})
        again = make_daemon({"kind": "partial", "p": 0.5, "seed": 9})
        for r in range(8):
            assert daemon.select(r, self.KEYS) == again.select(r, self.KEYS)

    def test_scheduler_consults_daemon(self):
        sched = ColumnarScheduler()
        actors = {k: Recorder() for k in range(4)}
        for k, actor in actors.items():
            sched.add_actor(k, actor)
        sched.set_daemon({"kind": "round_robin", "groups": 2})
        sched.run_round()
        sched.run_round()
        assert sched.active_last_round is not None
        stepped = {k for k, a in actors.items() if a.seen}
        assert stepped == set(actors), "round robin must reach everyone in a cycle"
        assert all(len(a.seen) == 1 for a in actors.values())


class TestDeliverySemantics:
    def build(self, model):
        sched = ColumnarScheduler()
        sink = Recorder()
        sched.add_actor("sink", sink)
        sched.add_actor("src", Recorder())
        sched.set_delivery_model(model)
        return sched, sink

    @pytest.mark.parametrize("delay", [2, 4])
    def test_post_consumed_exactly_delay_rounds_later(self, delay):
        sched, sink = self.build({"kind": "constant", "delay": delay})
        assert sched.post(Envelope("src", "sink", "late"))
        assert sched.pending_messages() == 1
        for r in range(delay - 1):
            sched.run_round()
            assert sink.seen[r] == [], f"arrived early at round {r}"
        sched.run_round()
        assert sink.seen[delay - 1] == ["late"]

    def test_matured_delivery_respects_drop_filter(self):
        sched, sink = self.build({"kind": "constant", "delay": 3})
        sched.post(Envelope("src", "sink", "doomed"))
        # the partition arrives while the message is on the wire
        sched.run_round()
        sched.set_drop_filter(lambda env: env.target == "sink")
        sched.run_round()
        sched.run_round()
        assert all(not seen for seen in sink.seen)
        assert sched.pending_messages() == 0

    def test_matured_delivery_to_removed_actor_dropped(self):
        sched, sink = self.build({"kind": "constant", "delay": 3})
        sched.post(Envelope("src", "sink", "late"))
        sched.run_round()
        sched.remove_actor("sink")
        before = sched.dropped_last_round
        sched.run_round()
        sched.run_round()
        assert sched.pending_messages() == 0

    def test_scheduled_envelopes_are_configuration(self):
        """Two networks differing only in message maturity must
        fingerprint different (the remaining-delay component)."""
        a = build_random_network(n=6, seed=2)
        b = build_random_network(n=6, seed=2)
        for net in (a, b):
            net.set_delivery_model({"kind": "constant", "delay": 4})
        a.run_round()
        assert a.fingerprint() != b.fingerprint()
        assert a.scheduler.future_pending(), "no delayed envelope in flight"
        b.run_round()
        assert a.fingerprint() == b.fingerprint()

    def test_unit_time_model_is_bit_identical_to_default(self):
        a = build_random_network(n=8, seed=3)
        b = build_random_network(n=8, seed=3)
        b.set_delivery_model("unit")
        b.set_daemon("full")
        for _ in range(12):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint()
            assert a.incremental_fingerprint() == b.incremental_fingerprint()


class TestEngineEquivalenceUnderLatency:
    """tests/test_engine_equivalence.py extended to non-unit time."""

    @pytest.mark.parametrize("spec", LATENCY_MODELS, ids=lambda s: s["kind"])
    def test_lockstep_fingerprints_and_reports(self, spec):
        a = build_random_network(n=9, seed=6)
        b = build_random_network(n=9, seed=6, engine="full")
        a.set_delivery_model(spec)
        b.set_delivery_model(spec)
        for r in range(40):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint(), f"diverged at round {r}"
            assert a.counters().fires == b.counters().fires, f"counters at {r}"
        ra = a.run_until_stable(max_rounds=6000)
        rb = b.run_until_stable(max_rounds=6000)
        assert ra == rb
        assert a.matches_ideal() and b.matches_ideal()

    @pytest.mark.parametrize(
        "daemon",
        [
            {"kind": "partial", "p": 0.6, "seed": 3},
            {"kind": "round_robin", "groups": 3},
            {"kind": "unfair", "bound": 3, "seed": 1},
        ],
        ids=lambda d: d["kind"],
    )
    def test_daemon_lockstep_and_recovery(self, daemon):
        a = build_random_network(n=9, seed=8)
        b = build_random_network(n=9, seed=8, engine="full")
        a.set_daemon(daemon)
        b.set_daemon(daemon)
        for r in range(50):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint(), f"diverged at round {r}"
        a.set_daemon("full")
        b.set_daemon("full")
        ra = a.run_until_stable(max_rounds=6000)
        rb = b.run_until_stable(max_rounds=6000)
        assert ra == rb
        assert a.matches_ideal()

    @pytest.mark.parametrize("traffic", [False, True], ids=["quiet", "traffic"])
    @pytest.mark.parametrize("spec", LATENCY_MODELS, ids=lambda s: s["kind"])
    def test_change_flag_exact_under_latency(self, spec, traffic):
        """The O(changed) change flag (flow flags + flux horizon) equals
        a genuine full fingerprint comparison at every boundary under
        every model, through crash / leave / join / drop-filter install
        and clear / model switches (back to ``unit`` included).  With
        application mail in flight it may over-report (a dropped
        one-shot still flags its two boundaries, as under unit
        delivery) but is never ``False`` across a changed boundary."""
        net = build_random_network(n=9, seed=4)
        net.set_delivery_model(spec)
        plane = _attach_traffic(net, seed=4) if traffic else None
        rng = random.Random(31)
        schedule = {
            6: "crash", 12: "filter_on", 19: "leave", 24: "filter_off",
            30: "join", 36: {"kind": "constant", "delay": 2}, 44: "unit",
            52: spec, 60: "crash",
        }
        for r in range(90):
            if r in schedule:
                _apply_event(net, schedule[r], rng)
            # events happen between rounds: the comparison starts from
            # the post-event configuration, like a fresh fingerprint
            prev = net.fingerprint()
            (plane or net).run_round()
            changed = net.fingerprint() != prev
            if traffic:
                assert net.scheduler.changed_last_round or not changed, f"round {r}"
            else:
                assert net.scheduler.changed_last_round == changed, f"round {r}"

    def test_change_flag_exact_through_model_switches(self):
        """A model switch is "old-delay flow stops, new-delay flow
        starts" per steady envelope: the flag stays exact while the two
        fronts travel, and after the delivery queue drained."""
        net = build_random_network(n=8, seed=14)
        net.run_until_stable(max_rounds=4000)
        prev = net.fingerprint()
        net.set_delivery_model({"kind": "constant", "delay": 4})
        for r in range(30):
            if r == 15:
                net.set_delivery_model("unit")
            net.run_round()
            cur = net.fingerprint()
            assert net.scheduler.changed_last_round == (cur != prev), f"round {r}"
            prev = cur
        assert not net.scheduler.future_pending()

    def test_combined_adversity_one_seeded_run(self):
        """Columnar-vs-full equivalence with a random
        latency model + drop-filter partition + live KV traffic + churn
        flowing in one seeded run."""

        def build(engine):
            net = build_random_network(n=12, seed=9, engine=engine)
            net.run_until_stable(max_rounds=5000)
            net.set_delivery_model({"kind": "reorder", "bound": 3, "seed": 21})
            kv = KeyValueStore(ReChordRouter(net))
            plane = TrafficPlane(net, store=kv)
            WorkloadGenerator(
                plane,
                rate=1.5,
                op_mix=((OP_LOOKUP, 0.5), (OP_PUT, 0.3), (OP_GET, 0.2)),
                seed=9,
            )
            return net, plane

        a_net, a_plane = build("columnar")
        b_net, b_plane = build("full")
        join_rng = random.Random(77)
        for r in range(48):
            if r == 8:
                victim = a_net.peer_ids[4]
                a_net.crash(victim)
                b_net.crash(victim)
            if r == 14:
                ids = a_net.peer_ids
                side = frozenset(ids[: len(ids) // 2])
                flt = lambda env, _s=side: (env.sender in _s) != (env.target in _s)
                a_net.scheduler.set_drop_filter(flt)
                b_net.scheduler.set_drop_filter(flt)
            if r == 26:
                a_net.scheduler.set_drop_filter(None)
                b_net.scheduler.set_drop_filter(None)
            if r == 30:
                new_id = random_peer_ids(1, join_rng, a_net.space)[0]
                while new_id in a_net.peers:
                    new_id = random_peer_ids(1, join_rng, a_net.space)[0]
                a_net.join(new_id, a_net.peer_ids[0])
                b_net.join(new_id, b_net.peer_ids[0])
            a_plane.run_round()
            b_plane.run_round()
            assert a_net.fingerprint() == b_net.fingerprint(), f"diverged at round {r}"
            assert a_net.counters().fires == b_net.counters().fires, f"counters at {r}"
        assert a_plane.collector.summary() == b_plane.collector.summary()
        assert a_plane.collector.summary()["wire_delay_mean"] > 0


class TestClosureUnderLatency:
    """Closure (a stable configuration steps to itself) costs nothing
    under latency: matured steady mail dirties nobody."""

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("spec", LATENCY_MODELS, ids=lambda s: s["kind"])
    def test_stable_network_replays_everyone(self, spec, engine):
        fast = build(build_random_network, engine, n=9, seed=6)
        full = build_random_network(n=9, seed=6, engine="full")
        for net in (fast, full):
            net.set_delivery_model(spec)
        assert fast.run_until_stable(max_rounds=6000) == full.run_until_stable(
            max_rounds=6000
        )
        n = len(fast.peers)
        for r in range(3 * fast.scheduler.delay_bound()):
            fast.run_round()
            full.run_round()
            assert fast.activity_stats() == (0, n), f"round {r}"
            assert not fast.scheduler.changed_last_round
            assert fast.fingerprint() == full.fingerprint(), f"round {r}"
        assert fast.counters().fires == full.counters().fires

    def test_columnar_reenters_after_switch_back_to_unit(self):
        """Back on unit delivery, the delayed pieces drain within the old
        bound and the unit shortcuts hold again."""
        net = build_random_network(n=9, seed=6, engine="columnar")
        net.run_until_stable(max_rounds=6000)
        sched = net.scheduler
        assert sched._unit_settled()
        net.set_delivery_model({"kind": "reorder", "bound": 4, "seed": 7})
        bound = sched.delay_bound()
        net.run(12)
        assert sched._late_in and not sched._unit_settled()
        net.set_delivery_model("unit")
        for r in range(bound + 2):
            net.run_round()
        assert sched._unit_settled(), "unit delivery did not settle"
        assert not sched._wake and not sched._landing and not sched.future_pending()
        assert not sched._late_in and not sched._patch_at
        report = net.run_until_stable(max_rounds=6000)
        assert net.matches_ideal() and report.rounds_executed >= 1


def _latency_campaign(n, seed, spec, events, traffic, engine):
    """Drive one seeded campaign; returns everything that must be equal
    on every engine: per-round fingerprints and rule counters, the
    final ``run_until_stable`` report and the SLO summary."""
    net = build(build_random_network, engine, n=n, seed=seed)
    net.set_delivery_model(spec)
    plane = _attach_traffic(net, seed) if traffic else None
    rng = random.Random(seed)
    schedule = {3 + 4 * i: event for i, event in enumerate(events)}
    log = []
    for r in range(4 * len(events) + 10):
        if r in schedule:
            _apply_event(net, schedule[r], rng)
        (plane or net).run_round()
        log.append((net.fingerprint(), dict(net.counters().fires)))
    summary = None
    if plane is not None:
        plane.generator.active = False
        plane.drain(max_rounds=4096)
        summary = plane.collector.summary()
    net.scheduler.set_drop_filter(None)
    net.set_daemon("full")
    report = net.run_until_stable(max_rounds=8000)
    return log, summary, report, net.fingerprint()


class TestLatencyCampaigns:
    """One Hypothesis campaign: a missed wake (a target clean in a round
    where its inbox or oracle view differs from its replay baseline)
    surfaces as a fingerprint or counter divergence from the spec."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
        spec=st.sampled_from(LATENCY_MODELS),
        events=st.lists(
            st.one_of(
                st.sampled_from(EVENT_KINDS + DAEMON_KINDS_ON_OFF),
                st.sampled_from(LATENCY_MODELS),
            ),
            max_size=6,
        ),
        traffic=st.booleans(),
        engine=st.sampled_from(KERNELS),
    )
    def test_tracked_engines_match_the_spec(self, n, seed, spec, events, traffic, engine):
        want = _latency_campaign(n, seed, spec, events, traffic, "full")
        got = _latency_campaign(n, seed, spec, events, traffic, engine)
        for r, (a, b) in enumerate(zip(got[0], want[0])):
            assert a[0] == b[0], f"fingerprint diverged at round {r}"
            assert a[1] == b[1], f"rule counters diverged at round {r}"
        assert got[1:] == want[1:]


class Mail(AppPayload):
    """A toy application payload."""

    def __init__(self, tag):
        self.tag = tag

    def canonical(self):
        return ("mail", self.tag)

    def refs(self):
        return ()


class Toy:
    """A probed toy actor: emits ``out`` every step (so it replays when
    left alone), ``once`` a single time, and logs the rounds it ran."""

    def __init__(self):
        self.out = []
        self.once = []
        self.ran = []

    def state_version(self):
        return 0

    def state_token(self):
        return 0

    def step(self, inbox, ctx):
        self.ran.append(ctx.round_no)
        for target, payload in self.out:
            ctx.send(target, payload)
        for target, payload in self.once:
            ctx.send_once(target, payload)
        self.once = []


class TestWakeWheel:
    """Kernel level: who executes when, and when the flag is raised."""

    def build(self, model):
        sched = ColumnarScheduler()
        src, sink = Toy(), Toy()
        sched.add_actor("src", src)
        sched.add_actor("sink", sink)
        sched.set_delivery_model(model)
        return sched, src, sink

    @staticmethod
    def settle(sched, *actors):
        """Run until everyone replays and nothing is in motion."""
        for _ in range(64):
            sched.run_round()
            if (
                not sched.changed_last_round
                and sched.executed_last_round == 0
                and not sched._wake
            ):
                break
        else:  # pragma: no cover - test bug
            raise AssertionError("toy network never settled")
        for actor in actors:
            actor.ran.clear()
        return sched.round_no

    @staticmethod
    def config(sched):
        """A toy full fingerprint: inboxes + scheduled deliveries."""
        pending = sorted((env.target, repr(env.payload)) for env in sched.all_pending())
        future = sorted(
            (rem, env.target, repr(env.payload)) for rem, env in sched.future_pending()
        )
        return pending, future

    def run_checking_flag(self, sched, rounds):
        """Run ``rounds`` rounds; the flag must equal a comparison of
        toy fingerprints at every boundary.  Returns the flags."""
        flags = []
        for _ in range(rounds):
            prev = self.config(sched)
            sched.run_round()
            assert sched.changed_last_round == (self.config(sched) != prev), flags
            flags.append(sched.changed_last_round)
        return flags

    def test_delayed_send_once_runs_target_in_consumption_round_only(self):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        q = self.settle(sched, src, sink)
        src.once = [("sink", Mail(1))]
        sched.mark_dirty("src")
        flags = self.run_checking_flag(sched, 8)
        assert src.ran == [q]
        assert sink.ran == [q + 3]
        # in flight across the boundaries of q .. q+2, consumed in q+3
        assert flags == [True] * 4 + [False] * 4

    def test_delayed_plain_post_runs_target_one_round_longer(self):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        r = self.settle(sched, src, sink)
        assert sched.post(Envelope("src", "sink", "plain"))
        flags = self.run_checking_flag(sched, 8)
        # posted before round r with delay 3: consumed in round r + 2
        assert sink.ran == [r + 2, r + 3]
        assert src.ran == []
        assert flags == [True] * 3 + [False] * 5

    def test_model_switch_is_two_fronts_per_envelope(self):
        sched, src, sink = self.build("unit")
        src.out = [("sink", "steady")]
        sched.mark_dirty("src")
        self.settle(sched, src, sink)
        sched.set_delivery_model({"kind": "constant", "delay": 4})
        # the unit flow stops (one boundary), the delay-4 flow fills its
        # pipe (four boundaries); then the configuration repeats
        assert self.run_checking_flag(sched, 8) == [True] * 4 + [False] * 4
        sched.set_delivery_model({"kind": "constant", "delay": 2})
        assert self.run_checking_flag(sched, 8) == [True] * 4 + [False] * 4
        sched.set_delivery_model("unit")
        assert self.run_checking_flag(sched, 8) == [True] * 2 + [False] * 6

    def test_subflow_change_wakes_target_per_delay_class(self):
        model = {"kind": "reorder", "bound": 3, "seed": 2}
        delay = make_delivery_model(model).delay
        by_delay = {1: [], 3: []}
        for i in range(200):
            d = delay(Envelope("src", "sink", ("p", i)))
            if d in by_delay and len(by_delay[d]) < 2:
                by_delay[d].append(("sink", ("p", i)))
        (near_a, near_b), (far_a, far_b) = by_delay[1], by_delay[3]
        sched, src, sink = self.build(model)
        src.out = [near_a, far_a]
        sched.mark_dirty("src")
        self.settle(sched, src, sink)
        # both delay classes change: the target runs when each arrives
        src.out = [near_b, far_b]
        sched.mark_dirty("src")
        q = sched.round_no
        sched.run(8)
        assert sink.ran == [q + 1, q + 3]
        # only the slow class changes: the fast one still lands as cached
        self.settle(sched, src, sink)
        src.out = [near_b, far_a]
        sched.mark_dirty("src")
        q = sched.round_no
        sched.run(8)
        assert sink.ran == [q + 3]

    @pytest.mark.parametrize("how", ["dead", "filtered"])
    def test_front_to_undeliverable_target_never_lands(self, how):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        src.out = [("sink", "old")]
        sched.mark_dirty("src")
        self.settle(sched, src, sink)
        if how == "dead":
            sched.remove_actor("sink")
        else:
            sched.set_drop_filter(lambda env: env.target == "sink")
        self.settle(sched, src)
        src.out = [("sink", "new")]
        sched.mark_dirty("src")
        q = sched.round_no
        flags = self.run_checking_flag(sched, 6)
        # raised while the front travels (rounds q, q+1 = q+d-2), not at
        # q+d-1: a delivery dropped at maturity never reaches remaining 0
        assert flags == [True, True, False, False, False, False], (q, flags)

    def test_front_to_live_target_lands(self):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        src.out = [("sink", "old")]
        sched.mark_dirty("src")
        self.settle(sched, src, sink)
        src.out = [("sink", "new")]
        sched.mark_dirty("src")
        assert self.run_checking_flag(sched, 6) == [True] * 3 + [False] * 3

    def test_joining_target_runs_again_when_the_waiting_flows_land(self):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        src.out = [("late", "steady")]
        sched.mark_dirty("src")
        r = self.settle(sched, src, sink)
        late = Toy()
        sched.add_actor("late", late)
        sched.run(8)
        # fresh in round r; the sends of rounds r-2 .. r were all
        # scheduled while it was away and land from round r + 1 on
        assert late.ran == [r, r + 1]
        assert src.ran == []

    def test_removed_sender_wakes_receivers_when_its_flow_runs_dry(self):
        sched, src, sink = self.build({"kind": "constant", "delay": 3})
        src.out = [("sink", "steady")]
        sched.mark_dirty("src")
        r = self.settle(sched, src, sink)
        sched.remove_actor("src")
        sched.run(8)
        # last sent in round r - 1, so round r + 3 is the first without it
        assert sink.ran == [r + 3]


class TestTrafficUnderLatency:
    def test_deadline_scales_with_delay_bound(self):
        from repro.experiments.scaling import build_ideal_network

        net = build_ideal_network(8, 1)
        plane = TrafficPlane(net, default_deadline=16)
        assert plane.deadline_for() == 16
        net.set_delivery_model({"kind": "constant", "delay": 3})
        assert plane.deadline_for() == 48

    def test_lookups_complete_late_but_complete(self):
        from repro.experiments.scaling import build_ideal_network

        net = build_ideal_network(16, 2)
        net.set_delivery_model({"kind": "constant", "delay": 3})
        plane = TrafficPlane(net)
        for i in range(6):
            plane.lookup(f"slow{i}", origin=net.peer_ids[i % len(net.peer_ids)])
        plane.drain(max_rounds=512)
        summary = plane.collector.summary()
        assert summary["outcomes"].get("ok", 0) == 6
        forwarded = [c for c in plane.collector.completed if c.hops]
        if forwarded:
            assert summary["wire_delay_max"] > 0


class TestScenarioIntegration:
    def test_spec_level_time_model_round_trips_and_runs(self):
        from repro.scenarios import ScenarioSpec, run_scenario

        spec = ScenarioSpec(
            name="wan",
            n=10,
            seed=4,
            rounds=8,
            latency={"kind": "regions", "regions": 2, "delay": 3, "seed": 1},
            daemon={"kind": "partial", "p": 0.9, "seed": 2},
            max_recovery_rounds=60,
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        a = run_scenario(spec)
        b = run_scenario(spec, engine="full")
        assert a == b

    def test_invalid_spec_models_fail_loudly(self):
        from repro.scenarios import ScenarioSpec

        with pytest.raises(ValueError, match="unknown delivery model"):
            ScenarioSpec(name="x", n=8, seed=1, rounds=4, latency={"kind": "warp"})
        with pytest.raises(ValueError, match="unknown daemon"):
            ScenarioSpec(name="x", n=8, seed=1, rounds=4, daemon={"kind": "warp"})

    def test_latency_scenarios_report_wire_delay(self):
        from repro.scenarios import make_scenario, run_scenario

        report = run_scenario(make_scenario("latency-partition", n=12, seed=5))
        assert report.slo["wire_delay_mean"] > 0
        assert report.stable and report.ideal

    def test_cli_latency_and_daemon_flags(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "scenario",
                    "seam-crash",
                    "--n",
                    "8",
                    "--seed",
                    "3",
                    "--latency-model",
                    "constant:delay=2",
                    "--daemon",
                    "full",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Scenario: seam-crash" in out

    def test_cli_list_mentions_time_model_flags(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "--latency-model" in out and "--daemon" in out
        assert "reorder" in out and "round_robin" in out

    def test_cli_model_arg_parser(self):
        from repro.cli import _parse_model_arg

        assert _parse_model_arg("unit") == {"kind": "unit"}
        assert _parse_model_arg("constant:delay=3") == {"kind": "constant", "delay": 3}
        assert _parse_model_arg("partial:p=0.5,seed=7") == {
            "kind": "partial",
            "p": 0.5,
            "seed": 7,
        }
        assert _parse_model_arg('{"kind": "reorder", "bound": 4}') == {
            "kind": "reorder",
            "bound": 4,
        }


class TestSeededDelayPinning:
    """Regression pins for the seeded delay draws (ISSUE-6 audit).

    Every seed path in :mod:`repro.netsim.timemodel` must flow through
    :func:`stable_u64` (BLAKE2 of canonical reprs) — never through the
    process-randomized builtin ``hash`` and never through an
    iteration-order-dependent structure.  These pins were computed once
    and hold on every machine, Python build, and ``PYTHONHASHSEED``; a
    failure here means a seed path regressed to something process-local.
    """

    #: one pinned cross-peer delay per non-trivial delivery model:
    #: (spec, sender, target, expected delay)
    PINS = [
        ({"kind": "constant", "delay": 3}, 3, 11, 3),
        ({"kind": "slow_links", "fraction": 0.5, "delay": 4, "seed": 7}, 3, 11, 4),
        ({"kind": "slow_links", "fraction": 0.5, "delay": 4, "seed": 7}, 11, 3, 1),
        ({"kind": "lognormal", "mu": 0.0, "sigma": 0.8, "cap": 8, "seed": 7}, 3, 11, 2),
        ({"kind": "regions", "regions": 3, "delay": 4, "seed": 7}, 0, 11, 4),
        ({"kind": "regions", "regions": 3, "delay": 4, "seed": 7}, 1, 11, 1),
        ({"kind": "reorder", "bound": 5, "seed": 7}, 3, 11, 3),
        ({"kind": "cross_cut", "side_a": [3], "delay": 5}, 3, 11, 5),
    ]

    @pytest.mark.parametrize("spec,sender,target,expected", PINS)
    def test_pinned_delay(self, spec, sender, target, expected):
        model = make_delivery_model(dict(spec))
        env = Envelope(sender, target, "probe")
        assert model.delay(env) == expected
        # memoized draws must be stable across repeated queries
        assert model.delay(env) == expected

    def test_stable_u64_pinned(self):
        # the primitive itself: BLAKE2b-8 of 0x1f-joined reprs
        assert stable_u64("lognormal", 7, 3, 11) == 0xB811756A136FE1C3

    def test_fresh_model_instances_agree(self):
        """Per-link memos are caches, not state: a fresh instance draws
        the same delays (nothing depends on query order)."""
        for spec in LATENCY_MODELS:
            a = make_delivery_model(dict(spec))
            b = make_delivery_model(dict(spec))
            pairs = [(1, 2), (2, 1), (5, 9), (17, 4), (4, 17)]
            # query b in reverse order: memo fill order must not matter
            fwd = [a.delay(Envelope(s, t, "x")) for s, t in pairs]
            rev = [b.delay(Envelope(s, t, "x")) for s, t in reversed(pairs)]
            assert fwd == list(reversed(rev)), spec


class CountingLogNormal(LogNormalDelivery):
    """A log-normal model that counts its ``delay()`` calls."""

    calls = 0

    def delay(self, env):
        self.calls += 1
        return super().delay(env)


def _delivery_view(net):
    """Next round's inboxes in delivery order, and the scheduled
    deliveries per (remaining, target) in order: what a kernel must
    reproduce of the spec, message by message."""
    sched = net.scheduler
    now = [(e.sender, e.target, e.payload.canonical()) for e in sched.all_pending()]
    later = {}
    for remaining, e in sched.future_pending():
        later.setdefault((remaining, e.target), []).append((e.sender, e.payload.canonical()))
    return now, later


def _old_fronts(sched, q, stopped, started):
    """The quadratic ``list.remove`` multiset difference ``_fronts`` replaced."""
    started = list(started)
    for pair in stopped:
        try:
            started.remove(pair)
        except ValueError:
            sched._front(q, *pair)
    for pair in started:
        sched._front(q, *pair)


class TestSubFlowDelayCache:
    """Delays are cached per sub-flow and model object: a replayed
    sub-flow costs no ``delay()`` call, and delivery from the cache is
    indistinguishable from the spec's per-envelope delivery."""

    def test_stable_network_replays_without_delay_calls(self):
        net = build_random_network(n=12, seed=6)
        model = CountingLogNormal(sigma=0.9, cap=5, seed=3)
        net.set_delivery_model(model)
        net.run_until_stable(max_rounds=6000)
        n = len(net.peers)
        for _ in range(2 * model.delay_bound()):
            net.run_round()
        assert net.activity_stats() == (0, n)
        model.calls = 0
        for _ in range(3):
            net.run_round()
            assert net.activity_stats() == (0, n)
        assert model.calls == 0

    @pytest.mark.parametrize("engine", KERNELS)
    def test_model_switch_delivers_like_the_spec(self, engine):
        fast = build(build_random_network, engine, n=10, seed=12)
        full = build_random_network(n=10, seed=12, engine="full")
        switches = {
            0: {"kind": "lognormal", "sigma": 0.9, "cap": 5, "seed": 3},
            12: {"kind": "reorder", "bound": 4, "seed": 7},
            24: {"kind": "constant", "delay": 3},
            36: {"kind": "lognormal", "sigma": 0.9, "cap": 5, "seed": 3},
        }
        for r in range(48):
            if r in switches:
                fast.set_delivery_model(switches[r])
                full.set_delivery_model(switches[r])
            fast.run_round()
            full.run_round()
            assert _delivery_view(fast) == _delivery_view(full), f"round {r}"
            assert fast.counters().fires == full.counters().fires, f"round {r}"

    @pytest.mark.parametrize("engine", KERNELS)
    def test_reorder_buckets_with_partition_mid_flight(self, engine):
        fast = build(build_random_network, engine, n=12, seed=9)
        full = build_random_network(n=12, seed=9, engine="full")
        for net in (fast, full):
            net.run_until_stable(max_rounds=5000)
            net.set_delivery_model({"kind": "reorder", "bound": 4, "seed": 21})
        side = frozenset(fast.peer_ids[: len(fast.peer_ids) // 2])
        flt = lambda env: (env.sender in side) != (env.target in side)  # noqa: E731
        for r in range(40):
            if r == 10:
                assert fast.scheduler.future_pending(), "nothing in flight"
                fast.scheduler.set_drop_filter(flt)
                full.scheduler.set_drop_filter(flt)
            if r == 25:
                fast.scheduler.set_drop_filter(None)
                full.scheduler.set_drop_filter(None)
            fast.run_round()
            full.run_round()
            assert _delivery_view(fast) == _delivery_view(full), f"round {r}"
            assert fast.fingerprint() == full.fingerprint(), f"round {r}"
            assert fast.counters().fires == full.counters().fires, f"round {r}"
        multi = [
            sub
            for by_target in fast.scheduler._out_by.values()
            for sub in by_target.values()
            if sub._delays is not None and sub._delays[1].__class__ is tuple
        ]
        assert multi, "no sub-flow was split across delays"
        assert fast.run_until_stable(max_rounds=5000) == full.run_until_stable(max_rounds=5000)

    def test_buckets_partition_the_sub_flow(self):
        envs = [Envelope(1, 2, ("p", i)) for i in range(24)]
        sub = SubFlow(envs)
        reorder = make_delivery_model({"kind": "reorder", "bound": 4, "seed": 1})
        buckets = sub.delay_buckets(reorder)
        assert len(buckets) > 1
        assert [d for d, _ in buckets] == sorted({reorder.delay(e) for e in envs})
        for d, bucket in buckets:
            assert list(bucket) == [e for e in envs if reorder.delay(e) == d]
        assert sub.delay_buckets(reorder) is sub.delay_buckets(reorder)
        # a link-keyed model: one delay, kept as a number
        lognormal = make_delivery_model({"kind": "lognormal", "seed": 4})
        ((d, bucket),) = sub.delay_buckets(lognormal)
        assert bucket is sub and d == lognormal.delay(envs[0])
        assert sub._delays == (lognormal, d)
        assert SubFlow().delay_buckets(lognormal) == ()

    @pytest.mark.parametrize("spec", [{"kind": "reorder", "bound": 4}, {"kind": "lognormal"}])
    def test_cached_buckets_are_never_copied(self, spec):
        model = make_delivery_model(spec)
        sub = SubFlow([Envelope(1, 2, ("p", i)) for i in range(8)])
        sub.delay_buckets(model)
        assert sub._delays[0] is model
        blob = pickle.dumps(sub)
        assert type(model).__name__.encode() not in blob
        for clone in (pickle.loads(blob), copy.deepcopy(sub), copy.copy(sub)):
            assert clone == sub and clone.fp_sum == sub.fp_sum
            assert clone._delays is None

    def test_fronts_match_the_list_remove_difference(self):
        rng = random.Random(5)
        pool = [Envelope(rng.randrange(3), rng.randrange(3), ("p", rng.randrange(4)))
                for _ in range(12)]

        def pairs():
            # equal envelopes as distinct objects, and same-fingerprint
            # envelopes from other senders, with repeated delays
            out = []
            for _ in range(rng.randrange(16)):
                env = rng.choice(pool)
                if rng.random() < 0.5:
                    env = Envelope(env.sender, env.target, env.payload)
                out.append((env, rng.randint(1, 3)))
            return out

        def landing(sched):
            return {t: sorted(map(repr, envs)) for t, envs in sched._landing.items()}

        for q in range(200):
            stopped, started = pairs(), pairs()
            new, old = ColumnarScheduler(), ColumnarScheduler()
            new._fronts(q, stopped, started)
            _old_fronts(old, q, stopped, started)
            assert landing(new) == landing(old), (stopped, started)
            assert new._flux_until == old._flux_until


#: one instance of every delivery kind, with parameters that make its
#: delays differ between links
PER_KIND = {
    "unit": {},
    "constant": {"delay": 3},
    "slow_links": {"fraction": 0.5, "delay": 4, "seed": 7},
    "lognormal": {"sigma": 0.9, "cap": 5, "seed": 3},
    "regions": {"regions": 3, "delay": 4, "seed": 7},
    "reorder": {"bound": 4, "seed": 7},
    "cross_cut": {"side_a": [1, 2, 3], "delay": 5},
}


class TestPerSubFlowDelivery:
    """Under a latency model the sub-flow is the unit of the delay path:
    one ``delay()`` per link where the model declares per-link delays,
    fronts decided from the multiset sum, whole sub-flows handed over."""

    def test_every_kind_is_listed(self):
        assert sorted(PER_KIND) == sorted(DELIVERY_KINDS)

    @pytest.mark.parametrize("kind", sorted(PER_KIND))
    def test_per_link_declaration_holds(self, kind):
        """A model that declares ``per_link`` gives one delay to every
        payload on one link; ``reorder`` does not declare it, and does
        split a link.  The declaration is no parameter."""
        model = make_delivery_model({"kind": kind, **PER_KIND[kind]})
        assert "per_link" not in model.to_dict()
        split_links = 0
        for sender in range(6):
            for target in range(6):
                delays = {model.delay(Envelope(sender, target, ("p", i))) for i in range(24)}
                split_links += len(delays) > 1
        if kind == "reorder":
            assert not model.per_link
            assert split_links
        else:
            assert model.per_link
            assert split_links == 0

    def test_a_changed_sub_flow_costs_one_delay_call(self):
        sched = ColumnarScheduler()
        src, sink = Toy(), Toy()
        sched.add_actor("src", src)
        sched.add_actor("sink", sink)
        model = CountingLogNormal(sigma=0.9, cap=5, seed=3)
        sched.set_delivery_model(model)
        src.out = [("sink", ("p", i)) for i in range(3)]
        sched.mark_dirty("src")
        TestWakeWheel.settle(sched, src, sink)
        model.calls = 0
        src.out = [("sink", ("p", i)) for i in (0, 1, 7)]
        sched.mark_dirty("src")
        sched.run(2 * model.delay_bound())
        assert src.ran and sink.ran
        assert model.calls == 1

    def test_reordered_sub_flow_takes_the_exact_path_and_sends_no_front(self):
        sched, src, sink = TestWakeWheel().build({"kind": "constant", "delay": 3})
        src.out = [("sink", "a"), ("sink", "b")]
        sched.mark_dirty("src")
        TestWakeWheel.settle(sched, src, sink)
        exact = []
        original = sched._fronts

        def spy(q, stopped, started):
            exact.append((q, stopped, started))
            original(q, stopped, started)

        sched._fronts = spy
        src.out = [("sink", "b"), ("sink", "a")]
        sched.mark_dirty("src")
        q = sched.round_no
        flags = TestWakeWheel().run_checking_flag(sched, 6)
        ((_q, stopped, started),) = exact
        assert _q == q and sorted(map(repr, stopped)) == sorted(map(repr, started))
        assert not sched._landing and flags == [False] * 6
        # the inbox order changed: the target runs when the reordered
        # sub-flow lands
        assert sink.ran == [q + 3]

    def test_filter_on_the_wire_lockstep_with_exact_flag(self):
        """Columnar against ``engine="full"`` under lognormal delivery.
        A switch to other per-link delays sends one landing entry per
        moved sub-flow; a filter that drops everything is installed
        while they travel, so the last of them land filtered (that
        boundary does not differ); a switch back sends new ones, and the
        filter is removed before they land; a crash follows.
        Fingerprints and counters agree every round, and the change flag
        equals a fingerprint comparison."""
        spec = {"kind": "lognormal", "sigma": 0.9, "cap": 5, "seed": 3}
        other = {**spec, "seed": 4}
        fast = build_random_network(n=10, seed=6)
        full = build_random_network(n=10, seed=6, engine="full")
        for net in (fast, full):
            net.set_delivery_model(spec)
            net.run_until_stable(max_rounds=6000)
        sched = fast.scheduler
        victim = fast.peer_ids[3]
        schedule = {2: other, 3: "filter_on", 9: spec, 10: "filter_off", 12: "crash"}
        entries = {}
        for r in range(60):
            event = schedule.get(r)
            if event is not None:
                entries[r] = [
                    t - sched.round_no
                    for t, fronts in sched._landing.items()
                    if any(front.__class__ is tuple for front in fronts)
                ]
            for net in (fast, full):
                if isinstance(event, dict):
                    net.set_delivery_model(event)
                elif event == "filter_on":
                    net.scheduler.set_drop_filter(lambda env: True)
                elif event == "filter_off":
                    net.scheduler.set_drop_filter(None)
                elif event == "crash":
                    net.crash(victim)
            prev = fast.fingerprint()
            fast.run_round()
            full.run_round()
            cur = fast.fingerprint()
            assert cur == full.fingerprint(), f"round {r}"
            assert fast.counters().fires == full.counters().fires, f"round {r}"
            assert sched.changed_last_round == (cur != prev), f"round {r}"
        # entries were on the wire when the filter came and when it went
        assert entries[3] and entries[10], entries
        assert fast.run_until_stable(max_rounds=6000) == full.run_until_stable(max_rounds=6000)

    @pytest.mark.parametrize("engine", KERNELS)
    def test_sleepers_keep_their_inbox_order(self, engine):
        """Under partial activation a sleeper keeps its inbox and later
        deliveries append to it: posts made while it slept stay in
        front of the sub-flows delivered after them, message by message
        as in the spec."""
        spec = {"kind": "lognormal", "sigma": 0.9, "cap": 4, "seed": 3}
        fast = build(build_random_network, engine, n=10, seed=12)
        full = build_random_network(n=10, seed=12, engine="full")
        planes = []
        for net in (fast, full):
            net.set_delivery_model(spec)
            net.set_daemon({"kind": "partial", "p": 0.5, "seed": 5})
            planes.append(_attach_traffic(net, seed=12))
        for r in range(30):
            for plane in planes:
                plane.run_round()
            assert _delivery_view(fast) == _delivery_view(full), f"round {r}"
            assert fast.fingerprint() == full.fingerprint(), f"round {r}"

    def test_flow_changes_are_their_own_phase_and_neutral(self):
        from repro.telemetry import TelemetryRecorder

        def run(recorder):
            net = build_random_network(n=9, seed=4)
            net.set_delivery_model({"kind": "lognormal", "sigma": 0.9, "cap": 4, "seed": 2})
            if recorder is not None:
                net.enable_telemetry(recorder)
            net.run(12)
            return net.fingerprint(), net.counters().fires

        recorder = TelemetryRecorder()
        assert run(recorder) == run(None)
        phases = {phase: calls for phase, _seconds, calls in recorder.phase_table()}
        assert phases.get("kernel.flow_changes", 0) > 0
        assert {"kernel.step", "kernel.deliver"} <= phases.keys()
