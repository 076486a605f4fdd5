"""Differential tests for the batched rule pipeline, rule by rule.

The batched pipeline (:mod:`repro.core.rules_batched`, the fast path
every activity-tracked kernel runs) executes each phase of the rules
across *all* dirty peers of a round before the next phase starts.
Its contract is **observational
identity** with the scalar pipeline in :mod:`repro.core.protocol` that
the full-scan kernel runs — the executable spec: identical fingerprints
(states *and* in-flight messages), identical delivered envelopes in
identical per-sender order, identical rule-firing counters.

Each test here isolates one rule via :meth:`RuleConfig.ablated`, builds
the same adversarial start twice — self-loops, duplicate identifiers in
a tiny id space, empty virtual levels, refs wrapping the id-space origin
— and compares one round (and then the full run) spec vs. fast.
"""

from __future__ import annotations

import pytest

from repro.core.network import ReChordNetwork
from repro.core.noderef import make_ref
from repro.core.rules import RuleConfig
from repro.idspace.ring import IdSpace
from repro.workloads.initial import build_random_network, corrupt_network
from tests.conftest import KERNELS, build, is_fixed_point

#: a config with every rule off — tests switch individual rules back on
ALL_OFF = RuleConfig(
    virtual_nodes=False,
    overlap=False,
    closest_real=False,
    linearize=False,
    ring=False,
    connection=False,
)

#: one entry per pipeline stage: the flags that isolate it
RULE_FLAGS = {
    "purge": {},  # sanitation always runs; no rule flag needed
    "rule1": {"virtual_nodes": True},
    "rule2": {"virtual_nodes": True, "overlap": True},
    "rule3": {"closest_real": True},
    "rule4": {"linearize": True},
    "rule5": {"ring": True},
    "rule6": {"connection": True},
}


def _pair(config: RuleConfig, builder, bits: int = 8):
    """The same hand-built start on the spec (full-scan kernel, scalar
    pipeline) and on the default engine (tracked kernel, batched
    pipeline).

    ``builder(net)`` populates peers and plants the adversarial state;
    it runs identically on both networks.  Freshly registered peers are
    all dirty, so the first round exercises every batched phase on
    every peer.
    """
    nets = []
    for engine in ("full", "columnar"):
        net = ReChordNetwork(space=IdSpace(bits), config=config, engine=engine)
        builder(net)
        nets.append(net)
    return nets


def _delivered(net: ReChordNetwork) -> dict:
    """The post-round inbox contents, keyed by receiver, in inbox order —
    read through ``all_pending()``, which every kernel (and each loop of
    the columnar one) answers in the same order."""
    boxes: dict = {}
    for env in net.scheduler.all_pending():
        boxes.setdefault(env.target, []).append(env)
    return boxes


def assert_one_round_identical(a: ReChordNetwork, b: ReChordNetwork, context: str):
    """One round on each side: states, envelopes, counters equal."""
    a.run_round()
    b.run_round()
    assert a.fingerprint() == b.fingerprint(), f"fingerprint diverged {context}"
    assert _delivered(a) == _delivered(b), f"delivered envelopes diverged {context}"
    assert a.counters().fires == b.counters().fires, f"counters diverged {context}"


def assert_run_identical(a: ReChordNetwork, b: ReChordNetwork, context: str):
    """Run both to the fixpoint round by round, comparing at every boundary."""
    for r in range(600):
        ra = is_fixed_point(a, peek=True)
        rb = is_fixed_point(b, peek=True)
        assert ra == rb, f"fixpoint flags diverged at round {r} {context}"
        if ra:
            break
        assert_one_round_identical(a, b, f"at round {r} {context}")
    else:  # pragma: no cover - defends the test against non-termination
        pytest.fail(f"no fixpoint within 600 rounds {context}")


# ----------------------------------------------------------------------
# adversarial starts
# ----------------------------------------------------------------------

def plant_self_loops(net: ReChordNetwork) -> None:
    """Every neighbor set contains the node's own ref (and a live peer)."""
    ids = [5, 60, 130, 201]
    for pid in ids:
        net.add_peer(pid)
    for pid in ids:
        state = net.peers[pid].state
        other = net.ref(ids[(ids.index(pid) + 1) % len(ids)])
        for level in (0, 1):
            node = state.ensure_level(level)
            node.nu = {node.ref, other}
            node.nr = {node.ref}
            node.nc = {node.ref, other}


def plant_duplicate_ids(net: ReChordNetwork) -> None:
    """Tiny id space: virtual positions collide with real identifiers.

    With 4 bits, level-1 of peer ``u`` sits at ``u + 8`` — choosing
    peers 8 apart makes one peer's virtual node share its identifier
    with another peer's *real* node, the duplicate-id torture case for
    the key order (real sorts before virtual at equal ids).
    """
    ids = [1, 9, 4, 12]
    for pid in ids:
        net.add_peer(pid)
    for pid in ids:
        state = net.peers[pid].state
        node = state.ensure_level(1)  # the colliding virtual node
        node.nu = {net.ref(other) for other in ids if other != pid}
        state.nodes[0].nu = {make_ref(net.space, other, 1) for other in ids}


def plant_empty_levels(net: ReChordNetwork) -> None:
    """Virtual levels with empty neighborhoods between populated ones."""
    ids = [20, 77, 140, 230]
    for pid in ids:
        net.add_peer(pid)
    for pid in ids:
        state = net.peers[pid].state
        for level in (1, 2, 3):
            state.ensure_level(level)  # all sets empty
        state.nodes[0].nu = {net.ref(o) for o in ids if o != pid}


def plant_wraparound(net: ReChordNetwork) -> None:
    """Peers hugging the id-space origin, refs crossing the seam."""
    size = net.space.size
    ids = [0, 2, size - 1, size - 3, size // 2]
    for pid in ids:
        net.add_peer(pid)
    for pid in ids:
        state = net.peers[pid].state
        node = state.nodes[0]
        node.nu = {net.ref(o) for o in ids if o != pid}
        # wrap pointers planted across the seam, some of them wrong side
        node.wrap_rl = net.ref(ids[0]) if pid != ids[0] else net.ref(ids[2])
        node.wrap_rr = net.ref(ids[2]) if pid != ids[2] else net.ref(ids[0])


def plant_phantoms(net: ReChordNetwork) -> None:
    """Refs to dead owners and to levels the owner never created."""
    ids = [10, 50, 90, 170]
    for pid in ids:
        net.add_peer(pid)
    dead = make_ref(net.space, 33, 0)       # owner 33 is not a peer
    dead_v = make_ref(net.space, 33, 2)
    phantom = make_ref(net.space, 50, 5)    # live owner, absent level
    for pid in ids:
        state = net.peers[pid].state
        node = state.nodes[0]
        node.nu = {net.ref(o) for o in ids if o != pid} | {dead, phantom}
        node.nr = {dead_v}
        node.nc = {phantom}
        node.rl = dead
        node.rr = phantom


BUILDERS = {
    "self_loops": plant_self_loops,
    "duplicate_ids": plant_duplicate_ids,
    "empty_levels": plant_empty_levels,
    "wraparound": plant_wraparound,
    "phantoms": plant_phantoms,
}


# ----------------------------------------------------------------------
# the per-rule differential matrix
# ----------------------------------------------------------------------

class TestPerRuleDifferential:
    """rule × adversarial start: one round must be bit-for-bit equal."""

    @pytest.mark.parametrize("rule", sorted(RULE_FLAGS))
    @pytest.mark.parametrize("start", sorted(BUILDERS))
    def test_one_round(self, rule, start):
        config = ALL_OFF.ablated(**RULE_FLAGS[rule])
        bits = 4 if start == "duplicate_ids" else 8
        a, b = _pair(config, BUILDERS[start], bits=bits)
        assert_one_round_identical(a, b, f"({rule} on {start})")

    @pytest.mark.parametrize("rule", sorted(RULE_FLAGS))
    def test_isolated_rule_full_run(self, rule):
        """The isolated rule iterated to its own fixpoint."""
        config = ALL_OFF.ablated(**RULE_FLAGS[rule])
        a, b = _pair(config, plant_phantoms)
        assert_run_identical(a, b, f"({rule} to fixpoint)")


class TestFullPipelineDifferential:
    """All rules on, lockstep comparison round by round."""

    @pytest.mark.parametrize("start", sorted(BUILDERS))
    def test_adversarial_start_lockstep(self, start):
        bits = 4 if start == "duplicate_ids" else 8
        a, b = _pair(RuleConfig(), BUILDERS[start], bits=bits)
        assert_run_identical(a, b, f"(full pipeline on {start})")

    def test_economical_broadcast_lockstep(self):
        """The eco-broadcast memo bookkeeping is pipeline-invariant."""
        config = RuleConfig(economical_broadcast=True)
        a, b = _pair(config, plant_wraparound)
        assert_run_identical(a, b, "(economical broadcast)")

    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_corrupt_random_start_lockstep(self, seed, engine):
        nets = []
        for kind in ("full", engine):
            net = build(build_random_network, kind, n=14, seed=seed)
            corrupt_network(net, seed + 1)
            nets.append(net)
        assert_run_identical(*nets, f"(corrupt seed={seed}, {engine})")


class TestBackendSurface:
    """The pipeline follows the kernel; nothing selects it."""

    def test_full_scan_network_has_no_stepper(self):
        assert not hasattr(ReChordNetwork(engine="full").scheduler, "set_batch_stepper")

    def test_the_tracked_kernel_runs_the_batched_pipeline(self):
        from repro.core.rules_batched import BatchedRuleEngine

        stepper = ReChordNetwork().scheduler._batch_stepper
        assert isinstance(stepper, BatchedRuleEngine)

    def test_rule_backend_parameter_is_gone(self):
        with pytest.raises(TypeError, match="rule_backend"):
            ReChordNetwork(rule_backend="batched")

    def test_rule_backend_flag_is_gone(self, capsys):
        from repro.cli import main

        assert main(["scenario", "flash-crowd", "--rule-backend", "batched"]) == 2
        assert "unrecognized arguments: --rule-backend" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the per-level memo in front of rules 3-6
# ----------------------------------------------------------------------
import copy
import pickle

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.events import EdgeAdd, KIND_UNMARKED, RealCandidate, SIDE_LEFT, SIDE_RIGHT
from repro.core.noderef import NodeRef
from repro.core.protocol import ReChordPeer
from repro.core.rules import RuleCounters
from repro.core.rules_batched import MEMO_RULES, BatchedRuleEngine
from repro.netsim.messages import Envelope
from repro.netsim.scheduler import RoundContext

MEMO_PHASES = ("_phase_rule3", "_phase_rule4", "_phase_rule5", "_phase_rule6")
SCALAR_RULES = (
    ("closest_real", "_rule3_closest_real"),
    ("linearize", "_rule4_linearize"),
    ("ring", "_rule5_ring"),
    ("connection", "_rule6_connection"),
)
SET_SLOTS = ("nu", "nr", "nc")
POINTER_SLOTS = (
    "rl", "rr", "wrap_rl", "wrap_rr",
    "bcast_rl", "bcast_rl_targets", "bcast_rr", "bcast_rr_targets",
)


def _mid_run_states(start: str, config: RuleConfig = RuleConfig(), rounds: int = 2):
    """Peer states of an adversarial start a few rounds in, as
    ``(network, [(peer id, deep copy of its state)])`` — deep copies
    carry no memo, so every test below starts from a cold one."""
    bits = 4 if start == "duplicate_ids" else 8
    net = ReChordNetwork(space=IdSpace(bits), config=config)
    BUILDERS[start](net)
    for _ in range(rounds):
        net.run_round()
    return net, [(pid, copy.deepcopy(net.peers[pid].state)) for pid in net.peer_ids]


def _load(dst, src) -> None:
    """Make ``dst`` hold ``src``'s content through the tracking API,
    keeping ``dst``'s nodes — and with them their memos."""
    for level in list(dst.nodes):
        if level not in src.nodes:
            dst.drop_level(level)
    for level, node in src.nodes.items():
        mine = dst.ensure_level(level)
        for slot in SET_SLOTS:
            setattr(mine, slot, set(getattr(node, slot)))
        for slot in POINTER_SLOTS:
            setattr(mine, slot, getattr(node, slot))


class _Harness:
    """One peer outside any scheduler: rules 3..6 of the batched engine
    (memo kept across calls) next to the scalar rules on a twin."""

    def __init__(self, net: ReChordNetwork, state, config: RuleConfig) -> None:
        self.net = net
        self.engine = BatchedRuleEngine()
        self.config = config
        self.state = copy.deepcopy(state)

    def _ctx(self, state) -> RoundContext:
        return RoundContext(0, state.peer_id, self.net.scheduler)

    def fast(self, upto: int = 3) -> dict:
        """Phases rule 3 .. ``MEMO_PHASES[upto]`` on the kept state;
        reports what the *last* phase did."""
        actor = ReChordPeer(self.state, self.config, lambda ref: "ok", RuleCounters())
        ctx = self._ctx(self.state)
        start = self.engine.memo_counts()
        for name in MEMO_PHASES[:upto]:
            getattr(self.engine, name)([[actor, [], ctx, {}]])
        before = (self.state.canonical(), self.state.version, len(ctx._outbox),
                  dict(actor.counters.fires), self.engine.memo_counts())
        getattr(self.engine, MEMO_PHASES[upto])([[actor, [], ctx, {}]])
        counts = self.engine.memo_counts()
        rule = MEMO_RULES[upto]
        return {
            "slice": ctx._outbox[before[2]:],
            "outbox": list(ctx._outbox),
            "post": self.state.canonical(),
            "fires": {k: v - before[3].get(k, 0) for k, v in actor.counters.fires.items()
                      if v != before[3].get(k, 0)},
            "all_fires": dict(actor.counters.fires),
            "moved": self.state.version != before[1],
            "changed": self.state.canonical() != before[0],
            "hits": counts[rule][0] - before[4][rule][0],
            "misses": counts[rule][1] - before[4][rule][1],
            #: (hits, misses) per rule over the whole call
            "lookups": {r: (counts[r][0] - start[r][0], counts[r][1] - start[r][1])
                        for r in MEMO_RULES},
        }

    def scalar(self, state, upto: int = 3) -> dict:
        """The spec's rules 3 .. upto on a deep copy of ``state``."""
        twin = copy.deepcopy(state)
        actor = ReChordPeer(twin, self.config, lambda ref: "ok", RuleCounters())
        ctx = self._ctx(twin)
        mark = 0
        for flag, method in SCALAR_RULES[: upto + 1]:
            mark = len(ctx._outbox)
            if getattr(self.config, flag):
                getattr(actor, method)(ctx)
        return {
            "slice": ctx._outbox[mark:],
            "outbox": list(ctx._outbox),
            "post": twin.canonical(),
            "all_fires": dict(actor.counters.fires),
        }


class TestMemoHitEqualsMiss:
    """(a) a hit replays exactly what the bare per-level function did."""

    @pytest.mark.parametrize("rule", range(4), ids=MEMO_RULES)
    @pytest.mark.parametrize("start", sorted(BUILDERS))
    @pytest.mark.parametrize("eco", [False, True], ids=["plain", "eco"])
    def test_hit_equals_miss_equals_scalar(self, rule, start, eco):
        config = RuleConfig(economical_broadcast=eco)
        net, states = _mid_run_states(start, config)
        looked_up = 0
        for pid, inputs in states:
            h = _Harness(net, inputs, config)
            # cold memo: every lookup misses and runs ``_ruleN_level``
            miss = h.fast(rule)
            assert miss["hits"] == 0
            # the same inputs again, loaded behind the kept memos
            _load(h.state, inputs)
            assert h.state.canonical() == inputs.canonical()
            hit = h.fast(rule)
            assert hit["misses"] == 0 and hit["hits"] == miss["misses"]
            looked_up += hit["hits"]
            spec = h.scalar(inputs, rule)
            for key in ("slice", "outbox", "post", "all_fires"):
                assert hit[key] == miss[key] == spec[key], f"{key} of peer {pid}"
            assert hit["fires"] == miss["fires"]
            # the version contract: every content change moves it.  A
            # hit restores only what differs, so it never moves it where
            # the body would not (the body may also move it transiently:
            # a discard followed by a re-add)
            assert hit["changed"] == miss["changed"]
            assert hit["moved"] or not hit["changed"]
            assert miss["moved"] or not hit["moved"]
        assert looked_up > 0

    def test_a_hit_leaves_an_unchanged_level_alone(self):
        """Stable network: rule 3/4/5 hits restore nothing, version stays."""
        net = ReChordNetwork(space=IdSpace(8))
        plant_empty_levels(net)
        net.run_until_stable()
        state = net.peers[net.peer_ids[0]].state
        h = _Harness(net, state, RuleConfig())
        h.fast(2)
        _load(h.state, state)
        version = h.state.version
        hit = h.fast(2)
        assert hit["misses"] == 0 and not hit["changed"]
        assert h.state.version == version


#: one perturbation per key component: name -> (rule that must miss, config)
PERTURBATIONS = {
    "nu": (0, RuleConfig()),
    "nr": (2, RuleConfig()),
    "nc": (3, RuleConfig()),
    "rl": (1, RuleConfig(closest_real=False)),
    "rr": (1, RuleConfig(closest_real=False)),
    "wrap_rl": (0, RuleConfig()),
    "wrap_rr": (0, RuleConfig()),
    "bcast_rl": (0, RuleConfig(economical_broadcast=True)),
    "bcast_rr_targets": (0, RuleConfig(economical_broadcast=True)),
    "kmin": (2, RuleConfig()),
    "kmax": (2, RuleConfig()),
    "siblings": (3, RuleConfig()),
    "config": (0, RuleConfig()),
}


#: the components every level of the peer keys on
PEER_WIDE = ("kmin", "kmax", "siblings", "config")


class TestMemoKeyComponents:
    """(b) every key component is load-bearing: perturb one, get a miss
    whose outcome is the scalar rule's."""

    @pytest.mark.parametrize("what", sorted(PERTURBATIONS))
    @given(start=st.sampled_from(sorted(BUILDERS)), data=st.data())
    @settings(max_examples=12)
    def test_one_perturbed_component_misses_and_matches_the_spec(self, what, start, data):
        rule, config = PERTURBATIONS[what]
        net, states = _mid_run_states(start, config)
        everyone = sorted(
            {r for _p, s in states for r in s.knowledge()}, key=lambda r: r.key
        )
        if what in ("kmin", "kmax"):
            # only a peer that has not met the global extreme yet
            extreme = everyone[0] if what == "kmin" else everyone[-1]
            states = [(p, s) for p, s in states if extreme not in s.knowledge()]
            assume(states)
        pid, inputs = data.draw(st.sampled_from(states), label="peer")
        level = data.draw(st.sampled_from(sorted(inputs.nodes)), label="level")
        foreign = [r for r in everyone if r.owner != pid]
        h = _Harness(net, inputs, config)
        h.fast()
        _load(h.state, inputs)
        warm = h.fast()
        assert all(misses == 0 for _hits, misses in warm["lookups"].values())

        changed = copy.deepcopy(inputs)
        node = changed.nodes[level]
        if what in SET_SLOTS:
            refs = getattr(node, what)
            ref = data.draw(st.sampled_from(foreign), label="ref")
            if ref in refs:
                refs.discard(ref)
            else:
                refs.add(ref)
        elif what in ("rl", "rr", "wrap_rl", "wrap_rr", "bcast_rl"):
            reals = [r for r in foreign if r.level == 0 and r != getattr(node, what)]
            setattr(node, what, data.draw(st.sampled_from(reals), label="ref"))
        elif what == "bcast_rr_targets":
            ref = data.draw(st.sampled_from(foreign), label="ref")
            node.bcast_rr_targets = frozenset((node.bcast_rr_targets or frozenset()) ^ {ref})
        elif what in ("kmin", "kmax"):
            node.nc.add(extreme)
        elif what == "siblings":
            top = max(changed.nodes)
            assume(top < net.space.max_level())
            changed.ensure_level(top + 1)
        elif what == "config":
            h.config = config.ablated(wrap_pointers=False)
        assume(what == "config" or changed.canonical() != inputs.canonical())

        _load(h.state, changed)
        got = h.fast()
        hits, misses = got["lookups"][MEMO_RULES[rule]]
        assert misses > 0, (
            f"perturbing {what} at level {level} of peer {pid} still hit {MEMO_RULES[rule]}"
        )
        if what in PEER_WIDE:
            assert hits == 0, f"{what} is in every level's {MEMO_RULES[rule]} key"
        spec = h.scalar(changed)
        assert got["outbox"] == spec["outbox"]
        assert got["post"] == spec["post"]
        assert got["all_fires"] == spec["all_fires"]


class TestMemoLifetime:
    """(c), (d): the memo is derived data tied to the node object."""

    def _warm_pair(self):
        nets = _pair(RuleConfig(), plant_empty_levels)
        for _ in range(4):
            assert_one_round_identical(*nets, "(warm-up)")
        return nets

    def test_recreated_level_starts_with_an_empty_memo(self):
        spec, fast = self._warm_pair()
        pid = fast.peer_ids[0]
        state = fast.peers[pid].state
        top = max(state.nodes)
        assert top >= 1 and state.nodes[top]._memo is not None
        for net in (spec, fast):
            s = net.peers[pid].state
            dropped = s.drop_level(top)
            fresh = s.ensure_level(top)
            assert fresh is not dropped and fresh._memo is None
        assert_run_identical(spec, fast, "(level dropped and re-created)")

    def test_rule1_drop_and_recreate_in_a_run(self):
        """A close joiner deepens a peer's levels, its crash drops them
        again: rule 1 makes and unmakes nodes, spec ≡ fast throughout."""
        nets = []
        for engine in ("full", "columnar"):
            net = ReChordNetwork(space=IdSpace(8), engine=engine)
            plant_empty_levels(net)
            nets.append(net)
        spec, fast = nets
        assert_run_identical(spec, fast, "(before the join)")
        for net in nets:
            net.join(22, 20)
        assert_run_identical(spec, fast, "(after the join)")
        levels = set(fast.peers[20].state.nodes)
        for net in nets:
            net.crash(22)
        assert_run_identical(spec, fast, "(after the crash)")
        assert set(fast.peers[20].state.nodes) != levels

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_drop_the_memo_and_step_like_the_spec(self, how):
        spec, fast = self._warm_pair()
        for pid in fast.peer_ids:
            peer = fast.peers[pid]
            assert any(n._memo is not None for n in peer.state.nodes.values())
            assert any(n._canon is not None for n in peer.state.nodes.values())
            if how == "deepcopy":
                clone = copy.deepcopy(peer.state)
            else:
                clone = pickle.loads(pickle.dumps(peer.state))
            assert clone.canonical() == peer.state.canonical()
            assert clone.version == peer.state.version
            assert all(n._memo is None and n._canon is None for n in clone.nodes.values())
            assert all(n._state is clone for n in clone.nodes.values())
            peer.state = clone
        assert_run_identical(spec, fast, f"(states replaced by {how} copies)")


def plant_loose_refs(net: ReChordNetwork) -> None:
    """Every planted ref is a never-interned copy (``iid == -1``)."""
    def loose(ref):
        return NodeRef(ref.id, ref.owner, ref.level)

    ids = [7, 40, 99, 150, 222]
    for pid in ids:
        net.add_peer(pid)
    for pid in ids:
        state = net.peers[pid].state
        state.nodes[0].nu = {loose(net.ref(o)) for o in ids if o != pid}
        node = state.ensure_level(1)
        node.nu = {loose(net.ref(ids[0])), loose(make_ref(net.space, ids[-1], 1))}
        node.nc = {loose(net.ref(ids[1]))}
        node.nr = {loose(net.ref(ids[2]))}


class TestNeverInternedRefs:
    """(e) loose refs take the value-keyed path, memoized or not."""

    def test_loose_start_lockstep(self):
        a, b = _pair(RuleConfig(), plant_loose_refs)
        assert any(
            r.iid == -1 for p in b.peers.values() for r in p.state.knowledge()
        )
        assert_run_identical(a, b, "(never-interned refs)")
        reused = sum(h + c for h, _m, c in b.scheduler._batch_stepper.memo_counts().values())
        assert reused > 0


def reverse_interned_start(space: IdSpace):
    """A start whose peers, of ids nothing has interned yet, join in
    descending id order, so their ``iid``s run against the key order;
    each peer knows every other.  The ids are chosen once, so both
    networks of a pair get the same peers."""
    from repro.core.noderef import INTERN

    fresh = [p for p in range(space.size - 1, 0, -997) if (p, p, 0) not in INTERN._by_key]
    ids = fresh[:6]

    def plant(net: ReChordNetwork) -> None:
        for pid in ids:
            net.add_peer(pid)
        for pid in ids:
            net.peers[pid].state.nodes[0].nu = {net.ref(o) for o in ids if o != pid}

    return plant


class TestInterningOrder:
    """The batched engine orders refs by key, never by ``iid``."""

    def test_reverse_interned_start_lockstep(self):
        a, b = _pair(RuleConfig(), reverse_interned_start(IdSpace(16)), bits=16)
        refs = sorted((b.ref(pid) for pid in b.peers), key=lambda r: r.iid)
        assert len(refs) == 6
        assert [r.key for r in refs] == sorted((r.key for r in refs), reverse=True)
        assert_run_identical(a, b, "(iids against the key order)")


class TestGroupedCandidateDelivery:
    """(f) apply-inbox's per-(level, side) adoption ≡ ``_deliver_candidate``."""

    def _peer(self, net, pid=100):
        peer = net.peers[pid]
        for level in (1, 2):
            peer.state.ensure_level(level)
        peer.state.nodes[0].rl = net.ref(60)
        peer.state.nodes[0].rr = net.ref(140)
        peer.state.nodes[1].rr = net.ref(250)
        return peer

    def _inbox(self, net, pid=100):
        space = net.space
        me = [make_ref(space, pid, level) for level in (0, 1, 2, 3)]

        def cand(target, ref, side, wrap=False):
            return Envelope(ref.owner, pid, RealCandidate(target, ref, side, wrap))

        r = net.ref
        return [
            cand(me[0], r(80), SIDE_LEFT),                    # improvement
            cand(me[0], r(80), SIDE_LEFT),                    # duplicate: fires twice
            cand(me[0], r(60), SIDE_LEFT),                    # equal to rl: no
            cand(me[0], r(20), SIDE_LEFT),                    # worse than rl: no
            cand(me[0], r(140), SIDE_LEFT),                   # wrong side
            cand(me[0], r(120), SIDE_RIGHT),                  # improvement
            Envelope(80, pid, EdgeAdd(me[0], r(20), KIND_UNMARKED)),
            cand(me[0], make_ref(space, 80, 1), SIDE_LEFT),   # virtual candidate
            cand(me[0], me[0], SIDE_LEFT),                    # self
            cand(me[1], r(20), SIDE_LEFT),                    # no rl at level 1: adopt
            cand(me[1], r(250), SIDE_RIGHT),                  # equal to rr: no
            cand(me[1], r(140), SIDE_RIGHT, wrap=True),       # has rr: no wrap
            cand(me[2], r(140), SIDE_RIGHT, wrap=True),       # wrap path, keeps its
            cand(me[2], r(60), SIDE_RIGHT, wrap=True),        # order: 140 is demoted
            cand(me[2], r(20), SIDE_LEFT, wrap=True),
            cand(me[3], r(250), SIDE_RIGHT),                  # dropped level -> u_m
            cand(me[3], r(20), SIDE_RIGHT),                   # wrong side there too
            cand(me[2], r(60), SIDE_LEFT),
            cand(me[2], r(60), SIDE_LEFT),
        ]

    def _net(self):
        net = ReChordNetwork(space=IdSpace(8))
        for pid in (20, 60, 80, 100, 120, 140, 250):
            net.add_peer(pid)
        return net

    def test_matches_the_scalar_delivery(self):
        results = []
        for grouped in (False, True):
            net = self._net()
            peer = self._peer(net)
            inbox = self._inbox(net)
            if grouped:
                ctx = RoundContext(0, 100, net.scheduler)
                BatchedRuleEngine()._phase_apply_inbox([[peer, [inbox], ctx, {}]])
            else:
                peer._apply_inbox(inbox)
            results.append((peer.state.canonical(), dict(peer.counters.fires)))
        assert results[0] == results[1]
        assert results[0][1]["rule3_adopt"] == 7
        assert results[0][1]["wrap_adopt"] == 3

    def test_misrouted_candidate_raises_like_the_spec(self):
        net = self._net()
        peer = self._peer(net)
        stray = Envelope(80, 100, RealCandidate(net.ref(120), net.ref(80), SIDE_LEFT))
        ctx = RoundContext(0, 100, net.scheduler)
        with pytest.raises(LookupError, match="candidate for"):
            BatchedRuleEngine()._phase_apply_inbox([[peer, [[stray]], ctx, {}]])

    def test_a_repeated_delivery_lands_the_same(self):
        """Duplicates, wrong sides, virtual and self candidates, dropped
        levels: the landing of the same inbox again equals the first."""
        net = self._net()
        peer = self._peer(net)
        before = copy.deepcopy(peer.state)
        inbox = self._inbox(net)
        engine = BatchedRuleEngine()
        ctx = RoundContext(0, 100, net.scheduler)
        engine._phase_apply_inbox([[peer, [inbox], ctx, {}]])
        first = (peer.state.canonical(), dict(peer.counters.fires))
        assert engine.memo_counts()["apply_inbox"] == (0, 3, 0)
        _load(peer.state, before)
        peer.counters = RuleCounters()
        engine._phase_apply_inbox([[peer, [inbox], ctx, {}]])
        assert engine.memo_counts()["apply_inbox"] == (0, 6, 0)
        assert (peer.state.canonical(), dict(peer.counters.fires)) == first


# ----------------------------------------------------------------------
# the per-level apply-inbox landing
# ----------------------------------------------------------------------
from itertools import groupby

from repro.netsim.messages import SubFlow


def _mid_run_inboxes(start: str, config: RuleConfig, rounds: int):
    """A tracked network ``rounds`` rounds into an adversarial start, as
    ``(network, [(peer id, deep copy of its state, the inbox it is about
    to consume)])``."""
    bits = 4 if start == "duplicate_ids" else 8
    net = ReChordNetwork(space=IdSpace(bits), config=config)
    BUILDERS[start](net)
    for _ in range(rounds):
        net.run_round()
    inboxes = _delivered(net)
    return net, [
        (pid, copy.deepcopy(net.peers[pid].state), inboxes.get(pid, []))
        for pid in net.peer_ids
    ]


def _sub_flows(inbox):
    """The inbox as the columnar kernel hands it over: one ``SubFlow``
    per sender, in sender order."""
    return [SubFlow(list(envs)) for _sender, envs in groupby(inbox, key=lambda e: e.sender)]


class _Landing:
    """One peer outside any scheduler: the batched apply-inbox phase
    next to the scalar ``_apply_inbox``."""

    def __init__(self, net: ReChordNetwork, state, config: RuleConfig) -> None:
        self.net = net
        self.engine = BatchedRuleEngine()
        self.config = config
        self.state = copy.deepcopy(state)

    def fast(self, parts) -> dict:
        actor = ReChordPeer(self.state, self.config, lambda ref: "ok", RuleCounters())
        ctx = RoundContext(0, self.state.peer_id, self.net.scheduler)
        canon, version = self.state.canonical(), self.state.version
        landed = self.engine.memo_counts()["apply_inbox"][1]
        self.engine._phase_apply_inbox([[actor, parts, ctx, {}]])
        assert ctx._outbox == []
        return {
            "post": self.state.canonical(),
            "fires": dict(actor.counters.fires),
            "moved": self.state.version != version,
            "changed": self.state.canonical() != canon,
            "landed": self.engine.memo_counts()["apply_inbox"][1] - landed,
        }

    def scalar(self, state, inbox) -> dict:
        twin = copy.deepcopy(state)
        actor = ReChordPeer(twin, self.config, lambda ref: "ok", RuleCounters())
        actor._apply_inbox(inbox)
        return {"post": twin.canonical(), "fires": dict(actor.counters.fires)}


class TestApplyInboxLanding:
    """The per-level landing lands exactly what the scalar loop does,
    and the same inbox on the same state lands the same again."""

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("start", sorted(BUILDERS))
    @pytest.mark.parametrize("wrap", [True, False], ids=["wrap", "nowrap"])
    def test_a_repeated_landing_equals_the_first_and_the_scalar(self, start, wrap, rounds):
        config = RuleConfig(wrap_pointers=wrap)
        net, cases = _mid_run_inboxes(start, config, rounds)
        landed = 0
        for pid, inputs, inbox in cases:
            spec = _Landing(net, inputs, config).scalar(inputs, inbox)
            for parts in ([inbox], _sub_flows(inbox)):
                h = _Landing(net, inputs, config)
                first = h.fast(parts)
                _load(h.state, inputs)
                assert h.state.canonical() == inputs.canonical()
                again = h.fast(parts)
                assert again["landed"] == first["landed"]
                landed += again["landed"]
                for key in ("post", "fires"):
                    assert again[key] == first[key] == spec[key], f"{key} of peer {pid}"
                # every landing only adds: the version moves iff content does
                assert again["moved"] == again["changed"] == first["moved"] == first["changed"]
        assert landed > 0

    def test_sub_flows_are_parsed_once_per_receiver(self):
        net, cases = _mid_run_inboxes("wraparound", RuleConfig(), 2)
        pid, inputs, inbox = max(cases, key=lambda case: len(case[2]))
        parts = _sub_flows(inbox)
        h = _Landing(net, inputs, RuleConfig())
        h.fast(parts)
        forms = [part.parsed for part in parts]
        assert all(form is not None and form[0] == pid for form in forms)
        _load(h.state, inputs)
        h.fast(parts)
        assert all(part.parsed is form for part, form in zip(parts, forms))
        # the parsed form lists every payload once, under its addressed level
        for part, form in zip(parts, forms):
            assert sorted(map(id, (p for _lvl, ps in form[1] for p in ps))) == sorted(
                id(env.payload) for env in part
            )
            assert all(p.target.level == lvl for lvl, ps in form[1] for p in ps)

    def test_a_misaddressed_sub_flow_raises_every_time_and_caches_nothing(self):
        net = TestGroupedCandidateDelivery()._net()
        stray = SubFlow([Envelope(80, 100, EdgeAdd(net.ref(120), net.ref(80), KIND_UNMARKED))])
        engine = BatchedRuleEngine()
        ctx = RoundContext(0, 100, net.scheduler)
        for _ in range(2):
            with pytest.raises(LookupError, match="message for"):
                engine._phase_apply_inbox([[net.peers[100], [stray], ctx, {}]])
            assert stray.parsed is None
        # parsed for its receiver, it is still an error anywhere else
        engine._phase_apply_inbox([[net.peers[120], [stray], ctx, {}]])
        assert stray.parsed[0] == 120
        with pytest.raises(LookupError, match="message for"):
            engine._phase_apply_inbox([[net.peers[100], [stray], ctx, {}]])
        assert stray.parsed[0] == 120

    @pytest.mark.parametrize("first", ["own", "inherited"])
    def test_dropped_level_wrap_candidates_keep_their_inbox_order(self, first):
        """Mail for a dropped level lands on ``u_m`` next to ``u_m``'s
        own; two wrap candidates demote different refs depending on who
        comes first, so the split must follow the inbox, not the parts'
        addressed levels."""
        posts = {}
        for how in ("scalar", "fast"):
            net = TestGroupedCandidateDelivery()._net()
            peer = TestGroupedCandidateDelivery()._peer(net)
            me2, me3 = (make_ref(net.space, 100, level) for level in (2, 3))
            own = Envelope(60, 100, RealCandidate(me2, net.ref(60), SIDE_RIGHT, True))
            inherited = Envelope(140, 100, RealCandidate(me3, net.ref(140), SIDE_RIGHT, True))
            inbox = [own, inherited] if first == "own" else [inherited, own]
            if how == "scalar":
                peer._apply_inbox(inbox)
            else:
                ctx = RoundContext(0, 100, net.scheduler)
                parts = [SubFlow([env]) for env in inbox]
                BatchedRuleEngine()._phase_apply_inbox([[peer, parts, ctx, {}]])
            posts[how] = (peer.state.canonical(), dict(peer.counters.fires))
        assert posts["fast"] == posts["scalar"]
        assert posts["scalar"][1]["wrap_adopt"] == (1 if first == "own" else 2)


#: the inputs of a level's landing, and the sets it only adds to
LANDING_PERTURBATIONS = (
    "payload", "rl", "rr", "wrap_rl", "wrap_rr", "config", "nu", "nr", "nc",
)


class TestApplyInboxInputs:
    """Perturb one input of a landing: it still lands as the spec does."""

    @pytest.mark.parametrize("what", LANDING_PERTURBATIONS)
    @given(start=st.sampled_from(sorted(BUILDERS)), data=st.data())
    @settings(max_examples=12)
    def test_one_perturbed_input_matches_the_spec(self, what, start, data):
        config = RuleConfig()
        net, cases = _mid_run_inboxes(start, config, 2)
        cases = [
            case for case in cases
            if any(type(env.payload) in (EdgeAdd, RealCandidate) for env in case[2])
        ]
        assume(cases)
        pid, inputs, inbox = data.draw(st.sampled_from(cases), label="peer")
        everyone = sorted(
            {r for _p, s, _i in cases for r in s.knowledge()}, key=lambda r: r.key
        )
        foreign = [r for r in everyone if r.owner != pid]
        index = data.draw(
            st.sampled_from(
                [i for i, env in enumerate(inbox)
                 if type(env.payload) in (EdgeAdd, RealCandidate)]
            ),
            label="envelope",
        )
        level = inputs.resolve(inbox[index].payload.target).ref.level

        h = _Landing(net, inputs, config)
        h.fast(_sub_flows(inbox))

        changed = copy.deepcopy(inputs)
        node = changed.nodes[level]
        if what == "payload":
            env = inbox[index]
            old = env.payload
            ref = data.draw(st.sampled_from(foreign), label="ref")
            if type(old) is EdgeAdd:
                assume(ref != old.endpoint)
                new = EdgeAdd(old.target, ref, old.kind)
            else:
                assume(ref != old.candidate)
                new = RealCandidate(old.target, ref, old.side, old.wrap)
            inbox = inbox[:index] + [Envelope(env.sender, env.target, new)] + inbox[index + 1:]
        elif what in SET_SLOTS:
            refs = getattr(node, what)
            ref = data.draw(st.sampled_from(foreign), label="ref")
            if ref in refs:
                refs.discard(ref)
            else:
                refs.add(ref)
        elif what == "config":
            h.config = config.ablated(wrap_pointers=False)
        else:
            reals = [None] + [r for r in foreign if r.level == 0]
            value = data.draw(st.sampled_from(reals), label="ref")
            assume(value != getattr(node, what))
            setattr(node, what, value)

        _load(h.state, changed)
        got = h.fast(_sub_flows(inbox))
        spec = h.scalar(changed, inbox)
        assert got["post"] == spec["post"]
        assert got["fires"] == spec["fires"]


# ----------------------------------------------------------------------
# purge verdicts kept across rounds, per oracle epoch
# ----------------------------------------------------------------------
from repro.core.protocol import REF_OK

#: peer ids of the verdict-cache networks (8-bit id space)
_IDS = (20, 77, 140, 230)
_HOLDER, _SUBJECT, _FRESH = 20, 140, 101


def _top(net: ReChordNetwork) -> int:
    return max(net.peers[_SUBJECT].state.nodes)


#: event -> (what it does to a network, the ref whose verdict it flips —
#: evaluated *before* the event)
ORACLE_EVENTS = {
    "join": (lambda net: net.join(_FRESH, 77), lambda net: net.ref(_FRESH)),
    "crash": (lambda net: net.crash(_SUBJECT), lambda net: net.ref(_SUBJECT)),
    "leave": (lambda net: net.leave(_SUBJECT), lambda net: net.ref(_SUBJECT)),
    "level_flip": (
        lambda net: net.peers[_SUBJECT].state.drop_level(_top(net)),
        lambda net: net.ref(_SUBJECT, _top(net)),
    ),
    "ensure_virtual": (
        lambda net: net.ensure_virtual(_SUBJECT, _top(net) + 1),
        lambda net: net.ref(_SUBJECT, _top(net) + 1),
    ),
    "add_initial_edge": (
        lambda net: net.add_initial_edge(net.ref(_SUBJECT, _top(net) + 1), net.ref(77)),
        lambda net: net.ref(_SUBJECT, _top(net) + 1),
    ),
}


def _assert_verdicts_truthful(net: ReChordNetwork) -> None:
    """Whatever purge would reuse is what the oracle says now."""
    engine, oracle = net.scheduler._batch_stepper, net._ref_alive
    if engine._verdict_epoch != net.oracle_epoch():
        return  # dropped at the next purge
    for ref, verdict in engine._verdicts.items():
        assert verdict == oracle(ref), f"stale verdict for {ref!r}"
    assert engine._ok == {r for r, v in engine._verdicts.items() if v == REF_OK}


def _round_in_lockstep(spec: ReChordNetwork, fast: ReChordNetwork, context: str) -> None:
    """One round each; the columnar kernel keeps no physical inboxes, so
    the in-flight messages are compared through the fingerprint."""
    spec.run_round()
    fast.run_round()
    assert spec.fingerprint() == fast.fingerprint(), f"fingerprint diverged {context}"
    assert spec.counters().fires == fast.counters().fires, f"counters diverged {context}"


class TestPurgeVerdictCache:
    @pytest.mark.parametrize("engine", KERNELS)
    @pytest.mark.parametrize("event", sorted(ORACLE_EVENTS))
    def test_every_oracle_write_invalidates_the_verdicts(self, event, engine):
        """A probe ref held by a bystander is judged (and cached) before
        the event and judged again after it: spec ≡ fast throughout, and
        the epoch moved by the time purge runs again."""
        apply, probe_of = ORACLE_EVENTS[event]
        nets = []
        for kind in ("full", engine):
            net = build(ReChordNetwork, kind, space=IdSpace(8))
            for pid in _IDS:
                net.add_peer(pid)
            for a, b in zip(_IDS, _IDS[1:]):
                net.add_initial_edge(net.ref(a), net.ref(b))
            net.run_until_stable()
            nets.append(net)
        spec, fast = nets
        probe = probe_of(fast)
        assert probe == probe_of(spec)
        for net in nets:
            net.peers[_HOLDER].state.nodes[0].nu.add(probe)
        for r in range(3):
            _round_in_lockstep(spec, fast, f"(probe planted, round {r})")
            _assert_verdicts_truthful(fast)
        engine_obj = fast.scheduler._batch_stepper
        assert probe in engine_obj._verdicts
        before = (fast._ref_alive(probe), fast.oracle_epoch())
        for net in nets:
            apply(net)
            net.peers[_HOLDER].state.nodes[0].nu.add(probe)
        for r in range(6):
            _round_in_lockstep(spec, fast, f"(after {event}, round {r})")
            _assert_verdicts_truthful(fast)
            if r == 0:
                assert fast.oracle_epoch() != before[1]
                assert fast._ref_alive(probe) != before[0]

    def test_a_peer_of_another_oracle_shares_nothing(self):
        spec, fast = _pair(RuleConfig(), plant_phantoms)
        engine = fast.scheduler._batch_stepper
        stranger = fast.peers[10]
        stranger._ref_alive = lambda ref: "dead"
        spec.peers[10]._ref_alive = stranger._ref_alive
        for r in range(4):
            assert_one_round_identical(spec, fast, f"(foreign oracle, round {r})")
            _assert_verdicts_truthful(fast)
        assert not stranger.state.nodes[0].nu
        assert any(p.state.nodes[0].nu for p in fast.peers.values())


# ----------------------------------------------------------------------
# carrying: every coupling between levels sends a carried level back to
# work, and the step still equals the spec's
# ----------------------------------------------------------------------
import random

from repro.experiments.scaling import build_ideal_network

#: coupling -> (n, seed, event, what the fast engine must have done
#: in a round that also carried levels)
COUPLINGS = {
    # a sibling's rule-2 move lands in a carried level, before its own
    # turn and after it
    "rule2_move": (8, 2, "join", {("rule2", "_execute_level"), ("rule2", "_resume")}),
    # a new real moves a carried level's closest pair (rl, rr)
    "closest_pair": (12, 2, "join", {("rule3", "_resume")}),
    # rule 5's peer-wide extremes move under a carried level
    "ring_extremes": (12, 1, "join", {("rule5", "_reopen")}),
    # a carried level holds a ref whose owner the oracle flipped
    "oracle_flip": (8, 1, "crash", {("oracle", "moved")}),
    # rule 1 creates or drops a level: the whole peer executes
    "level_set": (8, 5, "join", {("rule1", "_execute_level")}),
    # mail for a level the peer does not simulate lands on u_m [D8]:
    # the whole peer executes (posted to a stable network next to a
    # harmless post that makes a second peer execute and carry)
    "dropped_level_mail": (8, 1, "post", {("apply_inbox", "_resolve_levels")}),
}


def _repeat_a_held_edge(net: ReChordNetwork, pid: int) -> None:
    """Post ``pid``'s real node an edge it already holds: the peer
    executes, and its levels stay as they are."""
    node = net.peers[pid].state.nodes[0]
    held = min(node.nu, key=lambda r: r.key)
    net.scheduler.post(Envelope(held.owner, pid, EdgeAdd(node.ref, held, KIND_UNMARKED)))


def _post_dropped_level_mail(net: ReChordNetwork) -> None:
    """On a stable network, two peers execute a step that leaves them
    as they are (so every level of theirs may be carried next), then the
    first gets an edge for the level above its top one, whose endpoint
    that top level does not know, and the second its repeat again."""
    first, second = net.peer_ids[:2]
    for _ in range(2):
        _repeat_a_held_edge(net, first)
        _repeat_a_held_edge(net, second)
        net.run_round()
    state = net.peers[first].state
    top = max(state.nodes)
    known = state.nodes[top].nu
    endpoint = next(net.ref(p) for p in net.peer_ids if net.ref(p) not in known and p != first)
    net.scheduler.post(
        Envelope(second, first, EdgeAdd(net.ref(first, top + 1), endpoint, KIND_UNMARKED))
    )
    _repeat_a_held_edge(net, second)


@pytest.fixture
def couplings(monkeypatch):
    """What the fast engine did that a carried level reacts to, as
    ``(phase, what)`` counts (phases name the pipeline step), and under
    ``"carried"`` the levels the round set out to carry."""
    seen: dict = {}
    phase = [None]

    def note(key):
        seen[key] = seen.get(key, 0) + 1

    for name in ("_phase_apply_inbox", "_phase_rule1", "_phase_rule2",
                 "_phase_rule3", "_phase_rule5"):
        def run(self, peers, _orig=getattr(BatchedRuleEngine, name), _name=name):
            phase[0] = _name.rsplit("_", 1)[1] if "rule" in _name else "apply_inbox"
            try:
                return _orig(self, peers)
            finally:
                phase[0] = None
                if _name == "_phase_apply_inbox":
                    # the levels the step set out to carry
                    seen["carried"] = sum(len(it[4].carried) for it in peers)
        monkeypatch.setattr(BatchedRuleEngine, name, run)
    for name in ("_execute_level", "_resume", "_reopen"):
        def promote(self, *args, _orig=getattr(BatchedRuleEngine, name), _name=name):
            note((phase[0], _name))
            return _orig(self, *args)
        monkeypatch.setattr(BatchedRuleEngine, name, promote)
    stand, resolve = BatchedRuleEngine._verdicts_stand, BatchedRuleEngine._resolve_levels

    def verdicts_stand(rec, node, epoch, moved):
        held = stand(rec, node, epoch, moved)
        if not held:
            note(("oracle", "moved"))
        return held

    def resolve_levels(parts, nodes):
        note((phase[0], "_resolve_levels"))
        return resolve(parts, nodes)

    monkeypatch.setattr(BatchedRuleEngine, "_verdicts_stand", staticmethod(verdicts_stand))
    monkeypatch.setattr(BatchedRuleEngine, "_resolve_levels", staticmethod(resolve_levels))
    return seen


class TestCarryCouplings:
    """Per coupling: a stable network, one event (a join, a crash, or
    posted mail), then spec and fast in lockstep to the fixpoint —
    states, delivered envelopes and counters equal every round — and at
    least one round in which the coupling fired while the round carried
    levels.  Each case fails when its coupling is dropped from the carry
    rule."""

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_spec_equals_fast_while_the_coupling_fires(self, coupling, couplings):
        n, seed, event, wanted = COUPLINGS[coupling]
        spec, fast = (build_ideal_network(n, seed, engine=e) for e in ("full", "columnar"))
        rng = random.Random(seed)
        if event == "join":
            new = next(c for c in iter(lambda: rng.randrange(fast.space.size), None)
                       if c not in fast.peers)
            gateway = rng.choice(fast.peer_ids)
            for net in (spec, fast):
                net.join(new, gateway)
        elif event == "crash":
            victim = rng.choice(fast.peer_ids)
            for net in (spec, fast):
                net.crash(victim)
        else:
            for net in (spec, fast):
                net.run_until_stable()
                _post_dropped_level_mail(net)
        fired = set()
        for r in range(200):
            couplings.clear()
            assert_one_round_identical(spec, fast, f"(round {r} after the {event})")
            if couplings.get("carried"):
                fired |= wanted & set(couplings)
            if not fast.scheduler.changed_last_round:
                break
        assert is_fixed_point(spec, peek=True)
        assert fired == wanted, f"{coupling}: {sorted(wanted - fired)} never fired next to a carry"
