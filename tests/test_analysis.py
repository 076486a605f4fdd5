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
            assert len(tracker.series(name)) == report.rounds_executed + 1

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
