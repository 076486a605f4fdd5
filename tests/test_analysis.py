"""Phase instrumentation."""

from __future__ import annotations

import pytest

from repro.analysis.phases import (
    PHASES,
    PhaseTracker,
    phase_predicates,
)
from repro.core.ideal import compute_ideal
from repro.workloads.initial import build_random_network
from tests.conftest import stabilized


class TestPhasePredicates:
    def test_all_hold_in_stable_state(self):
        net = stabilized(10, seed=0)
        ideal = compute_ideal(net.space, net.peer_ids)
        for name, predicate in phase_predicates().items():
            assert predicate(net, ideal), f"phase {name} must hold when stable"

    def test_initial_state_fails_later_phases(self):
        net = build_random_network(n=10, seed=0)
        ideal = compute_ideal(net.space, net.peer_ids)
        preds = phase_predicates()
        assert not preds["linearize"](net, ideal)
        assert not preds["ring"](net, ideal)
        assert not preds["cleanup"](net, ideal)

    def test_singleton_trivially_ringless_phases(self):
        net = build_random_network(n=1, seed=0)
        net.run_until_stable(max_rounds=100)
        ideal = compute_ideal(net.space, net.peer_ids)
        for name, predicate in phase_predicates().items():
            assert predicate(net, ideal)



def _simulated(net):
    """Every simulated node of ``net``, in global sorted order."""
    nodes = [node for p in net.peers.values() for node in p.state.nodes.values()]
    return sorted(nodes, key=lambda node: node.ref.key)


def _cut_a_linear_edge(net):
    lo, hi = _simulated(net)[3:5]
    lo.nu.discard(hi.ref)


def _cut_the_ring(net):
    nodes = _simulated(net)
    nodes[0].nr.discard(nodes[-1].ref)


def _misplace_a_closest_real(net):
    nodes = _simulated(net)
    node = next(n for n in nodes if n.rr is not None)
    node.rr = node.ref


def _drop_a_virtual_level(net):
    state = next(p.state for p in net.peers.values() if len(p.state.nodes) > 1)
    state.drop_level(max(state.nodes))


def _add_a_redundant_edge(net):
    nodes = _simulated(net)
    nodes[0].nu.add(nodes[len(nodes) // 2].ref)


def _isolate_a_node(net):
    # no unmarked edge into or out of the second node: the ring and
    # connection edges it keeps do not count for phase 1
    victim = _simulated(net)[1]
    victim.nu.clear()
    for node in _simulated(net):
        node.nu.discard(victim.ref)


class TestPhasePerturbations:
    """A targeted fault in a stable network breaks its own phase and the
    phases that build on it, and no phase before it."""

    @pytest.mark.parametrize(
        "perturb, broken",
        [
            (_isolate_a_node, {"connection", "linearize", "cleanup"}),
            (_cut_a_linear_edge, {"linearize", "cleanup"}),
            (_cut_the_ring, {"ring", "cleanup"}),
            (_misplace_a_closest_real, {"closest_real", "cleanup"}),
            # the nodes either side of the dropped one are left unlinked
            (_drop_a_virtual_level, {"linearize", "closest_real", "cleanup"}),
            (_add_a_redundant_edge, {"cleanup"}),
        ],
        ids=["isolate", "cut-linear", "cut-ring", "misplace-real", "drop-level", "redundant"],
    )
    def test_exactly_the_expected_phases_fail(self, perturb, broken):
        net = stabilized(10, seed=7)
        ideal = compute_ideal(net.space, net.peer_ids)
        perturb(net)
        failing = {name for name, holds in phase_predicates().items() if not holds(net, ideal)}
        assert failing == broken

    def test_predicates_are_listed_in_proof_order(self):
        assert tuple(phase_predicates()) == PHASES


class TestPhaseTracker:
    def test_completion_order_matches_proof(self):
        """Later phases cannot complete before the cleanup phase begins
        to hold; cleanup coincides with full stabilization."""
        net = build_random_network(n=14, seed=1)
        tracker = PhaseTracker(net)
        report = tracker.run_until_stable(max_rounds=5000)
        for name in PHASES:
            assert report.completion[name] is not None
        # cleanup is the last phase to complete
        cleanup = report.completion["cleanup"]
        for name in PHASES:
            assert report.completion[name] <= cleanup

    def test_connection_before_cleanup(self):
        net = build_random_network(n=14, seed=2)
        tracker = PhaseTracker(net)
        report = tracker.run_until_stable(max_rounds=5000)
        assert report.completion["connection"] <= report.completion["cleanup"]

    def test_series_lengths_match_rounds(self):
        net = build_random_network(n=8, seed=3)
        tracker = PhaseTracker(net)
        report = tracker.run_until_stable(max_rounds=5000)
        for name in PHASES:
            assert len(tracker._series[name]) == report.rounds_executed + 1

    def test_as_row_is_numeric(self):
        net = build_random_network(n=8, seed=4)
        tracker = PhaseTracker(net)
        report = tracker.run_until_stable(max_rounds=5000)
        row = report.as_row()
        assert set(row) == set(PHASES)
        assert all(isinstance(v, float) for v in row.values())

    def test_budget_exceeded_raises(self):
        net = build_random_network(n=10, seed=5)
        tracker = PhaseTracker(net)
        with pytest.raises(RuntimeError):
            tracker.run_until_stable(max_rounds=1)


class TestPhasesExperiment:
    def test_run_phases_tiny(self):
        from repro.experiments.phases import format_phases, run_phases

        result = run_phases(sizes=(6,), seeds=2)
        row = result[6]
        for name in PHASES:
            assert row[name].mean >= 0
        assert "Lemmas" in format_phases(result)
