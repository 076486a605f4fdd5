"""Experiment E8 — classic Chord is not self-stabilizing; Re-Chord is.

Three measurements per size:

* ``chord_tworing_recovered`` — fraction of runs in which classic
  Chord's maintenance repaired the two-ring state (provably 0: the state
  is a fixed point of stabilize/notify/fix_fingers);
* ``chord_random_recovered`` — fraction of runs recovering the correct
  ring from a random weakly connected successor map within the round
  budget;
* ``rechord_recovered`` — Re-Chord from the same adversarial situation
  (two interleaved rings / random graphs), which Theorem 1.1 says is
  always 1.0.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from repro.chord.network import ChordNetwork
from repro.core.network import NotStableError, ReChordNetwork
from repro.experiments.runner import (
    DEFAULT_ROOT_SEED,
    MeanStd,
    format_sweep,
    sweep_sizes,
)
from repro.workloads.initial import (
    build_random_network,
    build_two_rings_network,
    random_peer_ids,
)

DEFAULT_SIZES = (8, 16, 32)


def measure_one(n: int, seed: int, budget_rounds: int = 400) -> Dict[str, float]:
    """Recovery comparison at size ``n`` (one seed)."""
    rng = random.Random(seed)
    from repro.idspace.ring import IdSpace

    space = IdSpace()
    ids = random_peer_ids(n, rng, space)

    # classic Chord, two-ring state: run generously, check ring
    chord = ChordNetwork.two_rings(ids, space, fingers_per_round=2)
    chord.run(budget_rounds)
    tworing_recovered = 1.0 if chord.ring_correct() else 0.0

    # classic Chord, random weakly connected successor map
    succ = {}
    order = list(ids)
    rng.shuffle(order)
    for i, u in enumerate(order):
        # successor = random earlier node (weakly connected by induction)
        succ[u] = order[rng.randrange(i)] if i else order[min(1, len(order) - 1)]
    chord2 = ChordNetwork.from_successor_map(succ, space, fingers_per_round=2)
    chord2.run(budget_rounds)
    random_recovered = 1.0 if chord2.ring_correct() else 0.0

    # Re-Chord from the two-ring-plus-bridge state
    rechord = build_two_rings_network(ids, space)
    try:
        rechord.run_until_stable(max_rounds=budget_rounds * 10)
        rechord_recovered = 1.0 if rechord.matches_ideal() else 0.0
    except NotStableError:
        rechord_recovered = 0.0

    # Re-Chord from a plain random weakly connected graph (sanity)
    rnet = build_random_network(n=n, seed=seed, space=space)
    try:
        rnet.run_until_stable(max_rounds=budget_rounds * 10)
        rechord_random = 1.0 if rnet.matches_ideal() else 0.0
    except NotStableError:
        rechord_random = 0.0

    return {
        "chord_tworing_recovered": tworing_recovered,
        "chord_random_recovered": random_recovered,
        "rechord_tworing_recovered": rechord_recovered,
        "rechord_random_recovered": rechord_random,
    }


def run_baseline(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: int = 5,
    root_seed: int = DEFAULT_ROOT_SEED,
) -> Dict[int, Dict[str, MeanStd]]:
    """The self-stabilization comparison sweep."""
    return sweep_sizes(measure_one, sizes, seeds, root_seed, label="baseline")


def format_baseline(result: Dict[int, Dict[str, MeanStd]]) -> str:
    """Recovery-rate table (fractions of runs)."""
    return format_sweep(
        result,
        columns=(
            "chord_tworing_recovered",
            "chord_random_recovered",
            "rechord_tworing_recovered",
            "rechord_random_recovered",
        ),
        title="E8 — recovery rate from adversarial states (classic Chord vs Re-Chord)",
    )
