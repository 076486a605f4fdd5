"""Theorem 1.1 — stabilization-time scaling, plus the large-N build path.

The theorem bounds self-stabilization by O(n log n) rounds w.h.p.; the
paper's simulations observe sublinear-to-linear growth and conclude the
bound is probably not tight.  ``run_scaling`` measures rounds-to-stable
over a geometric size ladder and reports the growth against three
reference shapes (log n, n, n log n) so the conclusion can be checked at
a glance: the normalized ``rounds / n log n`` column must *decrease* if
the paper's observation holds.

Large-N path
------------

Post-churn recovery is *local* (Theorems 4.1/4.2: a join touches a
O(log² n)-round neighborhood), which is exactly what the
activity-tracked kernel exploits.  To measure that at sizes where
stabilizing from a random start would take hours, ``build_ideal_network``
constructs the unique stable topology directly from
:func:`repro.core.ideal.compute_ideal` and lets the constant message
flow settle in a handful of rounds.  ``_post_churn_restabilize`` then
times one single-join re-stabilization on it — the unit behind the
``restabilize_*`` cases of ``benchmarks/gates.py``.  Kernel throughput
over time is tracked by the ``bench/`` ledger.
"""

from __future__ import annotations

import math
import random
import time
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
from repro.workloads.initial import build_random_network, random_peer_ids

DEFAULT_SIZES = (8, 16, 32, 64, 128)


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
# post-churn re-stabilization (the gate cases' timed unit)
# ----------------------------------------------------------------------
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
    whichever run happens to cross an allocation threshold), so
    batching them keeps the timing comparable across runs.
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
