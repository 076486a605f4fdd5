"""E10 — rule ablations.

Regenerates the ablation table and benchmarks the full-rule
configuration against the cheapest ablation (no_overlap) at n = 32 —
rule 2 is a shortcut whose removal slows convergence, visible directly
in the two timings.
"""

from __future__ import annotations

from conftest import BENCH_SEEDS, emit

from repro.core.rules import RuleConfig
from repro.experiments.ablation import format_ablation, run_ablation
from repro.workloads.initial import build_random_network


def stabilize_with(config: RuleConfig) -> int:
    net = build_random_network(n=32, seed=2011, config=config)
    return net.run_until_stable(max_rounds=20_000).rounds_to_stable


def test_ablation_rules(benchmark):
    rows = run_ablation(n=32, seeds=BENCH_SEEDS, budget_rounds=3000)
    emit("ablation_rules", format_ablation(rows))
    by_name = {r.variant: r for r in rows}
    assert by_name["full"].ideal_fraction == 1.0
    assert by_name["no_ring"].ideal_fraction == 0.0  # list, not ring
    assert by_name["no_ring"].chord_coverage.mean < 1.0
    assert by_name["no_overlap"].rounds.mean >= by_name["full"].rounds.mean

    benchmark.pedantic(stabilize_with, args=(RuleConfig(),), rounds=3, iterations=1)
