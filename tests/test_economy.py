"""Economical-broadcast extension: equivalence and savings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import RuleConfig
from repro.workloads.initial import build_random_network

ECO = RuleConfig(economical_broadcast=True)


class TestEquivalence:
    @pytest.mark.parametrize("n,seed", [(4, 0), (10, 1), (18, 2)])
    def test_converges_to_same_ideal(self, n, seed):
        net = build_random_network(n=n, seed=seed, config=ECO)
        net.run_until_stable(max_rounds=5000)
        assert net.matches_ideal(), net.ideal_mismatches(limit=3)

    def test_round_counts_match_faithful_mode(self):
        """Suppressing redundant announcements must not slow convergence
        (the receiver would have discarded them anyway)."""
        for n, seed in [(8, 3), (16, 4)]:
            a = build_random_network(n=n, seed=seed)
            b = build_random_network(n=n, seed=seed, config=ECO)
            ra = a.run_until_stable(max_rounds=5000)
            rb = b.run_until_stable(max_rounds=5000)
            assert rb.rounds_to_stable <= ra.rounds_to_stable + 2

    def test_stable_state_is_fixed_point(self):
        net = build_random_network(n=10, seed=5, config=ECO)
        net.run_until_stable(max_rounds=5000)
        fp = net.fingerprint()
        net.run(3)
        assert net.fingerprint() == fp

    def test_churn_still_repairs(self):
        net = build_random_network(n=10, seed=6, config=ECO)
        net.run_until_stable(max_rounds=5000)
        net.crash(net.peer_ids[4])
        net.run_until_stable(max_rounds=5000)
        assert net.matches_ideal()

    @given(n=st.integers(2, 6), seed=st.integers(0, 2000))
    @settings(max_examples=15)
    def test_property_still_self_stabilizing(self, n, seed):
        net = build_random_network(n=n, seed=seed, config=ECO)
        net.run_until_stable(max_rounds=2000)
        assert net.matches_ideal()


class TestSavings:
    def test_steady_state_messages_reduced(self):
        full = build_random_network(n=16, seed=7)
        full.enable_telemetry()
        full.run_until_stable(max_rounds=5000)
        full.run(2)
        eco = build_random_network(n=16, seed=7, config=ECO)
        eco.enable_telemetry()
        eco.run_until_stable(max_rounds=5000)
        eco.run(2)
        assert eco.telemetry.rounds[-1][0] < full.telemetry.rounds[-1][0]

    def test_experiment_module(self):
        from repro.experiments.economy import format_economy, run_economy

        result = run_economy(sizes=(8,), seeds=2)
        row = result[8]
        assert row["steady_saving"].mean > 0.0
        assert "economical" in format_economy(result)
