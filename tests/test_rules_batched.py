"""Differential tests for the batched rule pipeline, rule by rule.

The batched pipeline (:mod:`repro.core.rules_batched`, the fast path
every activity-tracked kernel runs) executes each phase of the rules
across *all* dirty peers of a round before the next phase starts,
sorting by precomputed global ranks over the intern table's flat columns
instead of per-peer key sorts.  Its contract is **observational
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
    for engine in ("full", None):
        net = ReChordNetwork(space=IdSpace(bits), config=config, engine=engine)
        builder(net)
        nets.append(net)
    return nets


def _delivered(net: ReChordNetwork):
    """The post-round inbox contents, keyed by receiver."""
    return {k: list(box) for k, box in net.scheduler._inboxes.items() if box}


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
        ra = a.is_fixed_point(peek=True)
        rb = b.is_fixed_point(peek=True)
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
    rank-based ordering (real sorts before virtual at equal ids).
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

    @pytest.mark.parametrize("seed", [3, 17])
    def test_corrupt_random_start_lockstep(self, seed):
        nets = []
        for engine in ("full", None):
            net = build_random_network(n=14, seed=seed, engine=engine)
            corrupt_network(net, seed + 1)
            nets.append(net)
        assert_run_identical(*nets, f"(corrupt seed={seed})")


class TestBackendSurface:
    """The pipeline follows the kernel; nothing selects it."""

    def test_full_scan_network_has_no_stepper(self):
        assert ReChordNetwork(engine="full").scheduler._batch_stepper is None

    @pytest.mark.parametrize("engine", [None, "incremental", "columnar"])
    def test_tracked_engines_run_the_batched_pipeline(self, engine):
        from repro.core.rules_batched import BatchedRuleEngine

        stepper = ReChordNetwork(engine=engine).scheduler._batch_stepper
        assert isinstance(stepper, BatchedRuleEngine)

    def test_rule_backend_parameter_is_gone(self):
        with pytest.raises(TypeError, match="rule_backend"):
            ReChordNetwork(rule_backend="batched")

    def test_rule_backend_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "flash-crowd", "--rule-backend", "batched"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --rule-backend" in capsys.readouterr().err

    def test_batched_pure_fallback_matches(self):
        """Forcing the pure-``array`` path (no numpy) changes nothing."""
        from repro.core.rules_batched import BatchedRuleEngine

        a = ReChordNetwork(space=IdSpace(8), engine="full")
        b = ReChordNetwork(space=IdSpace(8))
        b.scheduler.set_batch_stepper(BatchedRuleEngine(use_numpy=False))
        plant_phantoms(a)
        plant_phantoms(b)
        assert_run_identical(a, b, "(pure fallback)")
