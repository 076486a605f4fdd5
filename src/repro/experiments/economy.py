"""Economical-broadcast extension (paper §6: "more efficient rules").

Compares the paper-faithful rule 3 (re-announce closest reals every
round) against the economical variant (announce only changes and new
neighbors) on three axes: convergence rounds, total messages to
stabilization, and steady-state messages per round.  Self-stabilization
is preserved (asserted per run); the savings come purely from removing
redundant announcements.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.rules import RuleConfig
from repro.experiments.runner import (
    DEFAULT_ROOT_SEED,
    MeanStd,
    format_sweep,
    sweep_sizes,
)
from repro.workloads.initial import build_random_network

DEFAULT_SIZES = (8, 16, 32, 64)


def _run(config: RuleConfig, n: int, seed: int, max_rounds: int) -> Dict[str, float]:
    net = build_random_network(n=n, seed=seed, config=config)
    telemetry = net.enable_telemetry()
    report = net.run_until_stable(max_rounds=max_rounds)
    if not net.matches_ideal():
        raise AssertionError("variant failed to reach the ideal topology")
    total = telemetry.counters["sent"]
    net.run(2)
    steady = telemetry.rounds[-1][0]
    return {
        "rounds": report.rounds_to_stable,
        "total_msgs": total,
        "steady_msgs": steady,
    }


def measure_one(n: int, seed: int, max_rounds: int = 20_000) -> Dict[str, float]:
    """Paired comparison for one (size, seed) cell."""
    faithful = _run(RuleConfig(), n, seed, max_rounds)
    eco = _run(RuleConfig(economical_broadcast=True), n, seed, max_rounds)
    return {
        "rounds_full": faithful["rounds"],
        "rounds_eco": eco["rounds"],
        "steady_full": faithful["steady_msgs"],
        "steady_eco": eco["steady_msgs"],
        "steady_saving": 1.0 - eco["steady_msgs"] / max(1.0, faithful["steady_msgs"]),
        "total_saving": 1.0 - eco["total_msgs"] / max(1.0, faithful["total_msgs"]),
    }


def run_economy(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: int = 5,
    root_seed: int = DEFAULT_ROOT_SEED,
) -> Dict[int, Dict[str, MeanStd]]:
    """The broadcast-economy sweep."""
    return sweep_sizes(measure_one, sizes, seeds, root_seed, label="economy")


def format_economy(result: Dict[int, Dict[str, MeanStd]]) -> str:
    """Economy table."""
    return format_sweep(
        result,
        columns=(
            "rounds_full",
            "rounds_eco",
            "steady_full",
            "steady_eco",
            "steady_saving",
        ),
        title="§6 extension — economical rule-3 broadcast vs the paper's rules",
    )
