"""Routability during convergence — when does the overlay become usable?

Fig. 6 distinguishes the "almost stable" state from full stability; the
practical question behind it: how early can applications *route*?  Each
round during stabilization we attempt a fixed sample of greedy lookups
over the current projection and record the success fraction (a lookup
succeeds if it terminates at the peer responsible for the key).  The
expected shape: routability hits 1.0 around the almost-stable round,
well before the configuration fixpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.chord.routing import RoutingError, route_greedy
from repro.core.ideal import chord_successor
from repro.core.network import StabilityWatch
from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.netsim.rng import SeedSequence
from repro.workloads.initial import build_random_network


@dataclass(frozen=True)
class UsabilityProfile:
    """Per-round lookup success fractions for one stabilization run."""

    n: int
    series: Tuple[float, ...]
    rounds_to_stable: int
    rounds_to_almost: int

    def first_full_routability(self) -> int:
        """First round from which every sampled lookup succeeds."""
        last_bad = -1
        for idx, value in enumerate(self.series):
            if value < 1.0:
                last_bad = idx
        return last_bad + 1


def _success_fraction(net, samples: List[Tuple[int, int]]) -> float:
    views = {pid: set() for pid in net.peer_ids}
    for src, dst in net.rechord_projection():
        views[src].add(dst)
    good = 0
    for start, key in samples:
        if start not in views:
            continue
        want = chord_successor(net.space, net.peer_ids, key)
        try:
            res = route_greedy(net.space, net.peer_ids, lambda u: views[u], start, key, max_hops=128)
        except RoutingError:
            continue
        if res.owner == want:
            good += 1
    return good / len(samples)


def run_usability(
    n: int = 24,
    seed: int | None = None,
    samples: int = 30,
    root_seed: int = DEFAULT_ROOT_SEED,
    max_rounds: int = 20_000,
) -> UsabilityProfile:
    """Trace lookup success over one stabilization run."""
    if seed is None:
        seed = SeedSequence(root_seed).child("usability", n=n).seed()
    net = build_random_network(n=n, seed=seed)
    rng = random.Random(seed ^ 0x5A5A)
    sample_pairs = [
        (rng.choice(net.peer_ids), rng.randrange(net.space.size)) for _ in range(samples)
    ]
    from repro.core.ideal import compute_ideal

    ideal = compute_ideal(net.space, net.peer_ids)
    series: List[float] = [_success_fraction(net, sample_pairs)]
    almost: int | None = None
    watch = StabilityWatch(net)
    for executed in watch.run(max_rounds):
        series.append(_success_fraction(net, sample_pairs))
        if almost is None and net._almost_stable(ideal):
            almost = executed
    return UsabilityProfile(
        n=n,
        series=tuple(series),
        rounds_to_stable=watch.stable_from,
        rounds_to_almost=almost if almost is not None else watch.stable_from,
    )


def format_usability(profile: UsabilityProfile) -> str:
    """Routability-over-time report with a sparkline."""
    blocks = " ▁▂▃▄▅▆▇█"
    spark = "".join(blocks[min(8, int(v * 8.999))] for v in profile.series)
    return "\n".join(
        [
            f"Routability during convergence (n={profile.n})",
            "=" * 44,
            f"first full routability : round {profile.first_full_routability()}",
            f"almost stable          : round {profile.rounds_to_almost}",
            f"stable                 : round {profile.rounds_to_stable}",
            f"success fraction/round : {spark}",
        ]
    )
