"""Fair partial activation — robustness beyond the synchronous model.

The paper assumes fully synchronous rounds.  Practical systems are not
synchronous; the standard bridge is *fair scheduling*: in each round an
adversary picks which peers execute, subject to every peer being
activated infinitely often.  Self-stabilization should survive —
convergence just stretches by roughly ``1/p`` — because a sleeping
peer's state and inbox are simply frozen.

The activation adversary is a
:class:`repro.netsim.timemodel.SeededPartialActivation` daemon
installed on the network's time model: the scheduler consults it every
round, so the experiment contains no activation plumbing of its own
(and the same daemon drives both simulation kernels identically; the
``unfair`` and ``round_robin`` daemons are available for harsher or
perfectly fair adversaries).

The metric is the first round at which the ideal topology holds, an
oracle check.  ``run_until_stable`` works under these daemons too (its
:class:`repro.core.network.StabilityWatch` judges a partial daemon over
a window in which every peer was activated), but it reports stability
only once such a window has closed: that measures detection as well as
repair, so the table keeps the oracle.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.ideal import compute_ideal
from repro.experiments.runner import (
    DEFAULT_ROOT_SEED,
    MeanStd,
    format_sweep,
    sweep_sizes,
)
from repro.workloads.initial import build_random_network

#: activation probabilities exercised by the sweep
ACTIVATIONS = (1.0, 0.7, 0.4)

DEFAULT_SIZES = (8, 16, 32)


def rounds_to_ideal_under_activation(
    n: int,
    seed: int,
    activation: float,
    max_rounds: int = 50_000,
) -> int:
    """Rounds until the ideal topology is reached with activation ``p``.

    The daemon's coin flips are seeded, so every cell is reproducible.
    """
    if not 0.0 < activation <= 1.0:
        raise ValueError(f"activation must be in (0, 1], got {activation}")
    net = build_random_network(n=n, seed=seed)
    ideal = compute_ideal(net.space, net.peer_ids)
    if activation < 1.0:
        net.set_daemon(
            {"kind": "partial", "p": activation, "seed": (seed * 1_000_003) ^ 0xA5}
        )
    for executed in range(1, max_rounds + 1):
        net.run_round()
        if net.matches_ideal(ideal):
            return executed
    raise RuntimeError(f"ideal not reached within {max_rounds} rounds (p={activation})")


def measure_one(n: int, seed: int) -> Dict[str, float]:
    """All activation levels for one (size, seed) cell."""
    out: Dict[str, float] = {}
    for p in ACTIVATIONS:
        rounds = rounds_to_ideal_under_activation(n, seed, p)
        out[f"rounds_p{int(p * 100)}"] = rounds
    # stretch factor relative to the synchronous run
    base = out["rounds_p100"]
    for p in ACTIVATIONS:
        if p < 1.0:
            out[f"stretch_p{int(p * 100)}"] = out[f"rounds_p{int(p * 100)}"] / max(1.0, base)
    return out


def run_asynchrony(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: int = 3,
    root_seed: int = DEFAULT_ROOT_SEED,
) -> Dict[int, Dict[str, MeanStd]]:
    """The fair-activation sweep."""
    return sweep_sizes(measure_one, sizes, seeds, root_seed, label="asynchrony")


def format_asynchrony(result: Dict[int, Dict[str, MeanStd]]) -> str:
    """Activation-robustness table."""
    return format_sweep(
        result,
        columns=(
            "rounds_p100",
            "rounds_p70",
            "rounds_p40",
            "stretch_p70",
            "stretch_p40",
        ),
        title="Fair partial activation — rounds to the ideal topology",
    )
