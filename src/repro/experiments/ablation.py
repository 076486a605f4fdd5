"""Rule ablations (E10) — what each rule buys.

Each variant disables one rule and stabilizes random networks under a
round budget.  Reported per variant: whether a fixed point was reached,
whether it equals the ideal topology, the Chord-subgraph coverage of the
final state, and the rounds spent.  Expected qualitative outcomes:

* ``no_ring``       — converges to the sorted *list*: fixed point but no
  ring edges and no wrap pointers, so Chord coverage drops;
* ``no_wrap``       — the paper's literal rule set: stabilizes, but the
  wrapped fingers are missing (coverage < 1) — the motivation for [D6];
* ``no_overlap``    — still correct, possibly slower (rule 2 is a
  shortcut, not a correctness requirement on these workloads);
* ``no_connection`` — risks losing sibling connectivity from adversarial
  states; on random starts it typically still converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.ideal import chord_edges
from repro.core.network import NotStableError
from repro.core.rules import RuleConfig
from repro.experiments.runner import DEFAULT_ROOT_SEED, MeanStd, mean_std
from repro.netsim.rng import SeedSequence
from repro.workloads.initial import build_random_network

#: variant name -> RuleConfig
VARIANTS: Dict[str, RuleConfig] = {
    "full": RuleConfig(),
    "no_ring": RuleConfig().ablated(ring=False),
    "no_wrap": RuleConfig().ablated(wrap_pointers=False),
    "no_overlap": RuleConfig().ablated(overlap=False),
    "no_connection": RuleConfig().ablated(connection=False),
}


@dataclass(frozen=True)
class AblationRow:
    """Aggregated outcome of one variant."""

    variant: str
    stabilized_fraction: float
    ideal_fraction: float
    chord_coverage: MeanStd
    rounds: MeanStd


def measure_variant(
    variant: str,
    config: RuleConfig,
    n: int,
    seeds: int,
    root_seed: int,
    budget_rounds: int,
) -> AblationRow:
    """Run one variant over ``seeds`` random networks of size ``n``."""
    root = SeedSequence(root_seed)
    stabilized = []
    ideal = []
    coverage = []
    rounds = []
    for rep in range(seeds):
        seed = root.child("ablation", variant, n=n, rep=rep).seed()
        net = build_random_network(n=n, seed=seed, config=config)
        try:
            report = net.run_until_stable(max_rounds=budget_rounds)
            stabilized.append(1.0)
            rounds.append(report.rounds_to_stable)
        except NotStableError:
            stabilized.append(0.0)
            rounds.append(budget_rounds)
        ideal.append(1.0 if net.matches_ideal() else 0.0)
        want = chord_edges(net.space, net.peer_ids)
        have = net.rechord_projection()
        coverage.append(sum(1 for e in want if e in have) / len(want) if want else 1.0)
    return AblationRow(
        variant=variant,
        stabilized_fraction=sum(stabilized) / len(stabilized),
        ideal_fraction=sum(ideal) / len(ideal),
        chord_coverage=mean_std(coverage),
        rounds=mean_std(rounds),
    )


def run_ablation(
    n: int = 32,
    seeds: int = 5,
    root_seed: int = DEFAULT_ROOT_SEED,
    budget_rounds: int = 2000,
    variants: Sequence[str] = tuple(VARIANTS),
) -> Tuple[AblationRow, ...]:
    """All ablation variants at one size."""
    return tuple(
        measure_variant(v, VARIANTS[v], n, seeds, root_seed, budget_rounds)
        for v in variants
    )


def format_ablation(rows: Sequence[AblationRow]) -> str:
    """Ablation table."""
    lines = [
        "E10 — rule ablations",
        "====================",
        f"{'variant':<14} {'stabilized':>10} {'ideal':>6} {'chord-cov':>10} {'rounds':>12}",
        "-" * 56,
    ]
    for r in rows:
        rounds = f"{r.rounds.mean:.1f}±{r.rounds.std:.1f}"
        lines.append(
            f"{r.variant:<14} {r.stabilized_fraction:>10.2f} {r.ideal_fraction:>6.2f} "
            f"{r.chord_coverage.mean:>10.3f} {rounds:>12}"
        )
    return "\n".join(lines)
