"""Theorem 1.1 — stabilization-time scaling, plus engine-scaling paths.

The theorem bounds self-stabilization by O(n log n) rounds w.h.p.; the
paper's simulations observe sublinear-to-linear growth and conclude the
bound is probably not tight.  ``run_scaling`` measures rounds-to-stable
over a geometric size ladder and reports the growth against three
reference shapes (log n, n, n log n) so the conclusion can be checked at
a glance: the normalized ``rounds / n log n`` column must *decrease* if
the paper's observation holds.

Large-N engine path
-------------------

Post-churn recovery is *local* (Theorems 4.1/4.2: a join touches a
O(log² n)-round neighborhood), which is exactly what the
activity-tracked kernel exploits.  To measure that at sizes where
stabilizing from a random start would take hours, ``build_ideal_network``
constructs the unique stable topology directly from
:func:`repro.core.ideal.compute_ideal` and lets the constant message
flow settle in a handful of rounds.  ``run_engine_comparison`` then
drives the same single-join re-stabilization through both kernels
(the full-scan spec vs. the default columnar kernel) and reports
rounds/sec side by side —
the regression benchmark behind ``benchmarks/bench_engine_throughput.py``
and the CI smoke gate.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.ideal import compute_ideal
from repro.core.network import ReChordNetwork, StabilizationReport
from repro.core.rules import RuleConfig
from repro.experiments.runner import (
    DEFAULT_ROOT_SEED,
    MeanStd,
    format_sweep,
    sweep_sizes,
)
from repro.idspace.ring import IdSpace
from repro.netsim.gcpause import gc_batched
from repro.netsim.rng import SeedSequence
from repro.workloads.initial import build_random_network, random_peer_ids

DEFAULT_SIZES = (8, 16, 32, 64, 128)

#: size ladder of the engine-throughput comparison (quick / full)
ENGINE_SIZES_QUICK = (64, 256)
ENGINE_SIZES_FULL = (64, 256, 1024, 4096)


def measure_one(n: int, seed: int, max_rounds: int = 20_000) -> Dict[str, float]:
    """Rounds to stable for one random start, plus normalized forms."""
    net = build_random_network(n=n, seed=seed)
    report = net.run_until_stable(max_rounds=max_rounds)
    rounds = report.rounds_to_stable
    return {
        "rounds": rounds,
        "rounds_over_logn": rounds / math.log2(max(2, n)),
        "rounds_over_n": rounds / n,
        "rounds_over_nlogn": rounds / (n * math.log2(max(2, n))),
    }


def run_scaling(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: int = 5,
    root_seed: int = DEFAULT_ROOT_SEED,
) -> Dict[int, Dict[str, MeanStd]]:
    """The Theorem 1.1 scaling sweep."""
    return sweep_sizes(measure_one, sizes, seeds, root_seed, label="scaling")


def format_scaling(result: Dict[int, Dict[str, MeanStd]]) -> str:
    """Scaling table with normalized columns."""
    return format_sweep(
        result,
        columns=("rounds", "rounds_over_logn", "rounds_over_n", "rounds_over_nlogn"),
        title="Theorem 1.1 — stabilization rounds vs. n (O(n log n) bound)",
    )


# ----------------------------------------------------------------------
# large-N stable-network construction
# ----------------------------------------------------------------------
def build_ideal_network(
    n: int,
    seed: int,
    space: Optional[IdSpace] = None,
    config: Optional[RuleConfig] = None,
    settle_rounds: Optional[int] = None,
    engine: str = "columnar",
) -> ReChordNetwork:
    """A network *constructed in* its unique stable topology.

    Peer states are written directly from :func:`compute_ideal` (same
    state the protocol would converge to); the stable configuration also
    contains a constant in-flight message flow, so a short
    ``run_until_stable`` lets that flow establish itself — a handful of
    rounds instead of a full O(n)-peer stabilization.  This is the only
    practical way to obtain stable networks at n ≥ 1024 for the
    post-churn engine benchmarks.

    ``settle_rounds`` defaults to ``max(64, 12·log2 n)``: the rule-3
    candidate waves started by the freshly written states take slightly
    longer to die out at larger n (measured: ~70 rounds at n=4096,
    seed-dependent), and an unused bound costs nothing.  The
    settle loop runs under :func:`gc_batched` — every peer executes
    every round until the flow settles, and the allocation storm would
    otherwise hand the collector about half the build wall-clock.
    """
    space = space if space is not None else IdSpace()
    if settle_rounds is None:
        settle_rounds = max(64, 12 * int(math.log2(max(2, n))))
    rng = random.Random(seed)
    ids = random_peer_ids(n, rng, space)
    net = ReChordNetwork(space, config, engine=engine)
    ideal = compute_ideal(space, ids)
    for pid in ids:
        peer = net.add_peer(pid)
        state = peer.state
        for level in range(0, ideal.m_star[pid] + 1):
            node = state.ensure_level(level)
            ref = node.ref
            node.nu = set(ideal.nu[ref])
            node.nr = set(ideal.nr[ref])
            node.rl = ideal.rl[ref]
            node.rr = ideal.rr[ref]
            node.wrap_rl = ideal.wrap_rl[ref]
            node.wrap_rr = ideal.wrap_rr[ref]
    # raises RuntimeError if the constructed state is not within a few
    # rounds of the true fixpoint (i.e. compute_ideal and the rules
    # disagree) — the loud failure mode we want here
    with gc_batched():
        net.run_until_stable(max_rounds=settle_rounds)
    return net


# ----------------------------------------------------------------------
# engine-throughput comparison (full-scan spec vs. the default kernel)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineRow:
    """One size of the engine comparison.

    ``full_rounds_per_sec`` is ``None`` above the ``full_limit`` cutoff
    of :func:`measure_engine_pair` — the full-scan engine needs tens of
    minutes per re-stabilization at n ≥ 1024, so large sizes time the
    default kernel only.
    """

    n: int
    rounds: int                 #: rounds the re-stabilization took
    full_rounds_per_sec: Optional[float]
    rounds_per_sec: float       #: the default kernel
    executed_fraction: float    #: mean executed/peers per round (default kernel)

    @property
    def speedup(self) -> Optional[float]:
        """Default kernel over full-scan throughput (None when full skipped)."""
        if self.full_rounds_per_sec is None:
            return None
        if self.full_rounds_per_sec <= 0:
            return float("inf")
        return self.rounds_per_sec / self.full_rounds_per_sec


def _post_churn_restabilize(
    net: ReChordNetwork, join_id: int, gateway: int, max_rounds: int
) -> Tuple[StabilizationReport, float, float]:
    """Join one peer into an activity-tracked network and time the
    re-stabilization.

    Returns ``(report, seconds, mean_executed_fraction)`` where the
    executed fraction is the share of peers that actually ran rules per
    round (the rest were replayed from the steady-emission cache).

    The timed loop runs under :func:`gc_batched` — collector pauses
    would otherwise dominate the measurement at n ≥ 1k (and land on
    whichever engine happens to cross an allocation threshold), so
    batching them makes the engine comparison honest.
    """
    net.join(join_id, gateway)
    executed_total = 0
    rounds = 0
    stable = False
    with gc_batched():
        t0 = time.perf_counter()
        # inline run_until_stable so the per-round executed split is sampled
        for _ in range(max_rounds):
            net.run_round()
            rounds += 1
            executed, _replayed = net.activity_stats()
            executed_total += executed
            if not net.scheduler.changed_last_round:
                stable = True
                break
        elapsed = time.perf_counter() - t0
    if not stable:
        # a silent non-converged "report" would poison every downstream
        # rounds/sec comparison; fail like run_until_stable does
        raise RuntimeError(f"network not stable within {max_rounds} rounds")
    report = StabilizationReport(rounds - 1, None, rounds)
    frac = executed_total / max(1, rounds * len(net.peers))
    return report, elapsed, frac


def measure_engine_pair(
    n: int, seed: int, max_rounds: int = 6_000, full_limit: int = 512
) -> EngineRow:
    """Single-join re-stabilization, timed through both kernels.

    The default kernel runs first and establishes the exact number of
    re-stabilization rounds from its change flag; the full-scan engine
    then executes the *same* number of rounds on the same input, so both
    timings cover identical work (the full-scan engine would need O(n)
    fingerprints on top to even detect stability — deliberately excluded
    to keep the comparison conservative), and the two end states are
    asserted fingerprint-identical.  Above ``full_limit`` peers the
    full-scan leg is skipped entirely (it needs tens of minutes per
    re-stabilization there).
    """
    seq = SeedSequence(seed).child("engine", n=n)
    build_seed = seq.child("build").seed()
    rng = seq.child("join").rng()

    net = build_ideal_network(n, build_seed)
    space = net.space
    join_id = random_peer_ids(1, rng, space)[0]
    while join_id in net.peers:
        join_id = random_peer_ids(1, rng, space)[0]
    gateway = rng.choice(net.peer_ids)

    report, secs, frac = _post_churn_restabilize(net, join_id, gateway, max_rounds)
    rounds = report.rounds_executed

    full_rps: Optional[float] = None
    if n <= full_limit:
        full = build_ideal_network(n, build_seed, engine="full")
        full.join(join_id, gateway)
        with gc_batched():
            t0 = time.perf_counter()
            full.run(rounds)
            full_secs = time.perf_counter() - t0
        if net.fingerprint() != full.fingerprint():  # pragma: no cover - guarded by tests
            raise AssertionError(f"engine divergence at n={n}, seed={seed}")
        full_rps = rounds / full_secs if full_secs > 0 else float("inf")

    return EngineRow(
        n=n,
        rounds=rounds,
        full_rounds_per_sec=full_rps,
        rounds_per_sec=rounds / secs if secs > 0 else float("inf"),
        executed_fraction=frac,
    )


def run_engine_comparison(
    sizes: Sequence[int] = ENGINE_SIZES_QUICK,
    seed: int = DEFAULT_ROOT_SEED,
    max_rounds: int = 6_000,
    full_limit: int = 512,
) -> Dict[int, EngineRow]:
    """The old-vs-new kernel comparison over a size ladder."""
    return {n: measure_engine_pair(n, seed, max_rounds, full_limit) for n in sizes}


def format_engine_comparison(rows: Dict[int, EngineRow]) -> str:
    """Rounds/sec table: full-scan spec vs. the default kernel."""
    lines = [
        "Engine throughput — post-churn re-stabilization (single join into a stable network)",
        f"{'n':>6} {'rounds':>7} {'full r/s':>10} {'r/s':>10} {'speedup':>8} {'exec%':>6}",
    ]
    for n in sorted(rows):
        r = rows[n]
        full_rps = f"{r.full_rounds_per_sec:>10.2f}" if r.full_rounds_per_sec is not None else f"{'—':>10}"
        speedup = f"{r.speedup:>7.1f}x" if r.speedup is not None else f"{'—':>8}"
        lines.append(
            f"{r.n:>6} {r.rounds:>7} {full_rps} {r.rounds_per_sec:>10.2f} "
            f"{speedup} {100 * r.executed_fraction:>5.1f}%"
        )
    return "\n".join(lines)
