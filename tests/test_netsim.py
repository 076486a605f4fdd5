"""Synchronous kernel: delivery semantics, per-round rows, seed streams."""

from __future__ import annotations

import copy
import pickle
from types import SimpleNamespace

import pytest

from repro.netsim.columnar import ColumnarScheduler
from repro.netsim.messages import Envelope, envelope_fingerprint
from repro.netsim.rng import SeedSequence
from repro.netsim import scheduler as scheduler_module
from repro.netsim.scheduler import SynchronousScheduler
from repro.netsim.timemodel import ActivationDaemon
from repro.telemetry import TelemetryRecorder
from tests.conftest import general_every_round


def scheduler(tracking: bool) -> SynchronousScheduler:
    """The activity-tracked kernel, or the spec loop."""
    return ColumnarScheduler() if tracking else SynchronousScheduler()


class Echo:
    """Test actor: records inboxes; forwards payloads per a plan."""

    def __init__(self, plan=None):
        self.plan = plan or (lambda inbox, ctx: None)
        self.inboxes = []

    def step(self, inbox, ctx):
        self.inboxes.append([e.payload for e in inbox])
        self.plan(inbox, ctx)


class TestScheduler:
    """Delivery semantics on the spec loop; the subclasses below rerun
    every test on the columnar kernel, with full and with partial
    rounds."""

    kernel = SynchronousScheduler

    def test_message_delivered_next_round(self):
        sched = self.kernel()
        a = Echo(lambda inbox, ctx: ctx.send("b", "hi") if ctx.round_no == 0 else None)
        b = Echo()
        sched.add_actor("a", a)
        sched.add_actor("b", b)
        sched.run_round()
        assert b.inboxes == [[]]  # not visible in the sending round
        sched.run_round()
        assert b.inboxes[1] == ["hi"]

    def test_same_round_send_not_visible(self):
        """Even if the sender steps before the receiver, delivery waits."""
        sched = self.kernel()
        a = Echo(lambda inbox, ctx: ctx.send("z", "x"))
        z = Echo()
        sched.add_actor("a", a)  # "a" sorts before "z"
        sched.add_actor("z", z)
        sched.run_round()
        assert z.inboxes == [[]]

    def test_messages_to_unknown_actor_dropped(self):
        sched = self.kernel()
        sched.add_actor("a", Echo(lambda i, c: c.send("ghost", 1)))
        sched.run_round()
        assert sched.dropped_last_round == 1

    def test_removed_actor_loses_pending(self):
        sched = self.kernel()
        b = Echo()
        sched.add_actor("a", Echo(lambda i, c: c.send("b", 1)))
        sched.add_actor("b", b)
        sched.run_round()
        sched.remove_actor("b")
        sched.add_actor("b", b)
        sched.run_round()
        assert b.inboxes[-1] == []

    def test_duplicate_actor_rejected(self):
        sched = self.kernel()
        sched.add_actor("a", Echo())
        with pytest.raises(KeyError):
            sched.add_actor("a", Echo())

    def test_actor_exists_oracle(self):
        sched = self.kernel()
        seen = []
        sched.add_actor("a", Echo(lambda i, c: seen.append((c.actor_exists("a"), c.actor_exists("x")))))
        sched.run_round()
        assert seen == [(True, False)]

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            self.kernel().run(-1)

    def test_post_injects_for_next_round(self):
        sched = self.kernel()
        b = Echo()
        sched.add_actor("b", b)
        assert sched.post(Envelope("ext", "b", "ping"))
        sched.run_round()
        assert b.inboxes == [["ping"]]

    def test_post_to_missing_actor(self):
        sched = self.kernel()
        assert not sched.post(Envelope("ext", "nope", 1))

    def test_all_pending_snapshot(self):
        sched = self.kernel()
        sched.add_actor("a", Echo(lambda i, c: c.send("b", 1)))
        sched.add_actor("b", Echo())
        sched.run_round()
        pending = sched.all_pending()
        assert len(pending) == 1 and pending[0].payload == 1

    def test_round_counter(self):
        sched = self.kernel()
        sched.add_actor("a", Echo())
        sched.run(5)
        assert sched.round_no == 5


class EveryoneAwake(ActivationDaemon):
    """A partial daemon that wakes every actor: each round is a partial
    round, so the columnar kernel filters its work list every round
    while the delivery semantics stay those of full rounds."""

    kind = "everyone"

    def select(self, round_no, keys):
        return frozenset(keys)


class TestSchedulerTrackedLoop(TestScheduler):
    @staticmethod
    def kernel():
        sched = ColumnarScheduler()
        sched.set_daemon(EveryoneAwake())
        return sched


class TestSchedulerColumnarLoop(TestScheduler):
    kernel = ColumnarScheduler


class TestSchedulerSemanticsRegressions:
    """Kernel contracts that must hold under BOTH engines.

    The activity-tracked kernel replays quiescent actors instead of
    stepping them; these regressions pin the delivery semantics the
    protocols rely on, in both modes.
    """

    @pytest.mark.parametrize("tracking", [True, False])
    def test_post_to_unregistered_returns_false_without_raising(self, tracking):
        sched = scheduler(tracking)
        sched.add_actor("a", Echo())
        assert sched.post(Envelope("ext", "ghost", 1)) is False
        # and the failed post left no residue: the round runs normally
        sched.run_round()
        assert sched.dropped_last_round == 0

    @pytest.mark.parametrize("tracking", [True, False])
    def test_partial_activation_preserves_sleeping_inboxes_exactly(self, tracking):
        sched = scheduler(tracking)
        sleeper = Echo()
        sched.add_actor("talker", Echo(lambda i, c: c.send("sleeper", c.round_no)))
        sched.add_actor("sleeper", sleeper)
        sched.run_round()  # both step; talker's message lands for round 1
        for _ in range(3):
            sched.run_round(active={"talker"})
        # the sleeper stepped once (empty inbox) and then slept; all four
        # messages are waiting, in send order, nothing lost or reordered
        assert sleeper.inboxes == [[]]
        box = [env.payload for env in sched.all_pending() if env.target == "sleeper"]
        assert box == [0, 1, 2, 3]
        sched.run_round()
        assert sleeper.inboxes[-1] == [0, 1, 2, 3]

    def test_replayed_round_preserves_delivery_order(self):
        """Quiescent replays must deliver the same envelopes in the same
        order as executed rounds (sorted-sender concatenation)."""
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=8, seed=5)
        net.run_until_stable(max_rounds=4000)
        before = net.scheduler.all_pending()
        net.run_round()  # fully replayed
        assert net.activity_stats()[0] == 0
        assert net.scheduler.all_pending() == before

    def test_mark_dirty_forces_execution(self):
        from repro.workloads.initial import build_random_network

        net = build_random_network(n=6, seed=9)
        net.run_until_stable(max_rounds=4000)
        victim = net.peer_ids[0]
        net.scheduler.mark_dirty(victim)
        net.run_round()
        executed, replayed = net.activity_stats()
        assert executed == 1 and replayed == len(net.peers) - 1

    def test_dirty_count_reports_registered_only(self):
        sched = ColumnarScheduler()
        sched.add_actor("a", Echo())
        sched.mark_dirty("ghost")
        assert sched.dirty_count() == 1  # "a" only; ghost not registered


class Meddler:
    """A probed toy actor that is clean unless marked dirty; once armed,
    its next step calls ``meddle`` and records that it did."""

    def __init__(self, sched):
        self.sched = sched
        self.meddle = None
        self.meddled = False

    def state_version(self):
        return 0

    def state_token(self):
        return ()

    def step(self, inbox, ctx):
        ctx.send("b", "beat")
        if self.meddle is not None:
            self.meddled = True
            self.meddle(self.sched)


#: every scheduler change, as made from inside a step
CHANGES = {
    "add_actor": lambda s: s.add_actor("new", Echo()),
    "remove_actor": lambda s: s.remove_actor("b"),
    "post": lambda s: s.post(Envelope("a", "b", "x")),
    "post_batch": lambda s: s.post_batch([Envelope("a", "b", "x")]),
    "mark_dirty": lambda s: s.mark_dirty("b"),
    "set_drop_filter": lambda s: s.set_drop_filter(lambda env: True),
    "set_delivery_model": lambda s: s.set_delivery_model({"kind": "constant", "delay": 3}),
    "set_daemon": lambda s: s.set_daemon("full"),
}


def meddling_scheduler(loop: str):
    """A scheduler of four clean actors plus a dirty meddler ("a", armed
    by setting its ``meddle``), whose next round runs in ``loop``: the
    spec, the columnar kernel as shipped, on its general delivery point
    in every round, or under latency."""
    sched = SynchronousScheduler() if loop == "spec" else ColumnarScheduler()
    if loop == "general":
        general_every_round(sched)
    meddler = Meddler(sched)
    sched.add_actor("a", meddler)
    for key in "bcde":
        sched.add_actor(key, Meddler(sched))
    if loop == "latency":
        sched.set_delivery_model({"kind": "constant", "delay": 2})
    sched.run(6)
    if loop != "spec":  # the spec loop steps everyone anyway
        assert sched.executed_last_round == 0  # everyone replays
        sched.mark_dirty("a")
    return sched, meddler


LOOPS = ["spec", "columnar", "general", "latency"]

#: every change in every loop; the spec scheduler has no ``mark_dirty``
GUARD_MATRIX = [
    (call, loop)
    for loop in LOOPS
    for call in sorted(CHANGES)
    if (call, loop) != ("mark_dirty", "spec")
]


class TestRoundsAreAtomic:
    """Nothing changes the scheduler from inside a step: every change
    raises ``RuntimeError`` naming itself, in every loop."""

    @pytest.mark.parametrize("call, loop", GUARD_MATRIX)
    def test_a_change_from_inside_a_step_raises(self, call, loop):
        sched, meddler = meddling_scheduler(loop)
        meddler.meddle = CHANGES[call]
        with pytest.raises(RuntimeError, match=rf"^{call}\(\) called from inside a step"):
            sched.run_round()
        assert meddler.meddled
        # the failed round still ends: the boundary takes the change
        CHANGES[call](sched)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_the_same_changes_between_rounds_go_through(self, loop):
        sched, _ = meddling_scheduler(loop)
        for call, in_loop in GUARD_MATRIX:
            if in_loop == loop:
                CHANGES[call](sched)
                sched.run_round()
        assert sched.has_actor("new") and not sched.has_actor("b")


#: the activity-tracking surface, which only the columnar kernel has
TRACKING_SURFACE = (
    "mark_dirty", "dirty_count", "resync_actor", "ref_receivers",
    "set_batch_stepper", "_unit_settled", "_wake_at", "_wake_everyone", "_front",
    "_one_shot", "_landed", "_probe_refresh", "_post_step", "_check_lane_step",
    "_feed_flow_changes", "_fronts", "_patch", "_gap", "_hold", "_mature",
)


class TestSpecSurface:
    """The spec scheduler is only the spec loop, the guard, the round
    context and the delivery point: the tracking surface lives in the
    columnar kernel."""

    def test_the_spec_defines_none_of_the_tracking_surface(self):
        defined = set(vars(SynchronousScheduler))
        assert defined.isdisjoint(TRACKING_SURFACE)
        assert defined.isdisjoint({"activity_tracking", "noted_version"})
        assert all(name in vars(ColumnarScheduler) for name in TRACKING_SURFACE)
        fields = set(vars(SynchronousScheduler()))
        assert fields.isdisjoint({
            "_dirty", "_dirty_carry", "_probes", "_ver", "_tok", "_out",
            "_out_by", "_flow_flag", "_lane_flag", "_lane_targets",
            "_wake", "_flux_until", "_landing", "_switched_from", "_batch_stepper",
            "_flow_in", "_late_in", "_held", "_patch_at",
        })
        assert not hasattr(scheduler_module, "SerialStepper")


class Canon:
    """Payload that counts its ``canonical()`` calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def canonical(self):
        self.calls += 1
        return ("canon", self.value)

    def __eq__(self, other):
        return isinstance(other, Canon) and other.value == self.value

    def __hash__(self):
        return hash(self.value)


class TestEnvelopeContract:
    """An envelope is immutable, memoizes its fingerprint once, pickles
    without the memo and compares field-wise with envelopes only."""

    @pytest.mark.parametrize("field", ["sender", "target", "payload", "_fp"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        env = Envelope("a", "b", "x")
        with pytest.raises(AttributeError):
            setattr(env, field, "y")
        with pytest.raises(AttributeError):
            delattr(env, field)
        assert (env.sender, env.target, env.payload) == ("a", "b", "x")

    def test_fingerprint_is_memoized_once(self):
        payload = Canon(7)
        env = Envelope("a", "b", payload)
        assert not hasattr(env, "_fp")
        fp = envelope_fingerprint(env)
        assert env._fp == fp and payload.calls == 1
        assert envelope_fingerprint(env) == fp and payload.calls == 1

    @pytest.mark.parametrize("clone", [
        lambda env: pickle.loads(pickle.dumps(env)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copies_drop_the_fingerprint_memo(self, clone):
        env = Envelope("a", "b", Canon(7))
        fp = envelope_fingerprint(env)
        twin = clone(env)
        assert twin == env and hash(twin) == hash(env)
        assert not hasattr(twin, "_fp")
        assert envelope_fingerprint(twin) == fp  # same process, same hash seed
        with pytest.raises(AttributeError):
            twin.payload = "y"

    def test_equality_and_hash_are_field_wise(self):
        env = Envelope("a", "b", "x")
        assert env == Envelope("a", "b", "x") and hash(env) == hash(Envelope("a", "b", "x"))
        assert hash(env) == hash(("a", "b", "x"))
        for other in (Envelope("z", "b", "x"), Envelope("a", "z", "x"), Envelope("a", "b", "z")):
            assert env != other
        for stranger in (("a", "b", "x"), SimpleNamespace(sender="a", target="b", payload="x"), None):
            assert env != stranger and not env == stranger
        assert env.__eq__(("a", "b", "x")) is NotImplemented


class TestTrace:
    """The per-round rows of the telemetry recorder, the kernels' one
    per-round sink: ``(sent, dropped, executed, replayed)``."""

    def test_records_per_round(self):
        for tracking in (False, True):
            rec = TelemetryRecorder()
            sched = scheduler(tracking)
            sched.set_telemetry(rec)
            sched.add_actor("a", Echo(lambda i, c: c.send("a", "x")))
            sched.run(3)
            assert len(rec.rounds) == 3
            assert [sent for sent, _, _, _ in rec.rounds] == [1, 1, 1]
            assert rec.census()["sent"] == 3
            assert max(sent for sent, _, _, _ in rec.rounds) == 1

    def test_rounds_copy(self):
        rec = TelemetryRecorder()
        sched = SynchronousScheduler()
        sched.set_telemetry(rec)
        sched.add_actor("a", Echo(lambda i, c: (c.send("a", "x"), c.send("gone", "y"))))
        sched.run(1)
        sent, dropped, executed, replayed = rec.rounds[0]
        assert (sent, dropped, executed, replayed) == (2, 1, 1, 0)
        # the rows add no kind to the JSONL record set
        assert {r["kind"] for r in rec.records()} == {"census", "kernel", "timer"}


class TestSeedSequence:
    def test_deterministic(self):
        assert SeedSequence(1).child("x", n=2).seed() == SeedSequence(1).child("x", n=2).seed()

    def test_children_differ(self):
        root = SeedSequence(1)
        assert root.child("a").seed() != root.child("b").seed()

    def test_kwargs_order_irrelevant(self):
        root = SeedSequence(9)
        assert root.child(a=1, b=2).seed() == root.child(b=2, a=1).seed()

    def test_root_matters(self):
        assert SeedSequence(1).child("x").seed() != SeedSequence(2).child("x").seed()

    def test_rng_streams_independent(self):
        r1 = SeedSequence(3).child("a").rng()
        r2 = SeedSequence(3).child("b").rng()
        assert [r1.random() for _ in range(3)] != [r2.random() for _ in range(3)]
