"""Message complexity over time (E12).

The synchronous model hides message costs from the round counts, so this
experiment surfaces them: per-round message counts during stabilization
and the steady-state rate once stable (the stable state is a constant
flow — connection-edge streams, candidate announcements, ring re-issues
— whose volume is part of the protocol's operating cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.netsim.rng import SeedSequence
from repro.workloads.initial import build_random_network


@dataclass(frozen=True)
class MessageProfile:
    """Per-round message series for one stabilization run.

    ``executed`` is the per-round executed-actor series; entries are
    ``None`` under the full-scan engine, which steps everyone and so
    has no execute/replay split, and ``None`` entries are excluded from
    all series arithmetic.
    """

    n: int
    series: Tuple[int, ...]
    rounds_to_stable: int
    executed: Tuple[Optional[int], ...] = ()

    @property
    def peak(self) -> int:
        """Largest per-round message count."""
        return max(self.series, default=0)

    @property
    def steady_rate(self) -> int:
        """Messages per round in the stable state (last recorded round)."""
        return self.series[-1] if self.series else 0

    @property
    def total(self) -> int:
        """Total messages until stabilization."""
        return sum(self.series)

    @property
    def executed_mean(self) -> Optional[float]:
        """Mean executed actors per round over reporting rounds.

        ``None`` when no round reported a split (full-scan engine).
        """
        known = [e for e in self.executed if e is not None]
        if not known:
            return None
        return sum(known) / len(known)

    @property
    def executed_steady(self) -> Optional[int]:
        """Executed actors in the last recorded round (``None`` if n/a)."""
        return self.executed[-1] if self.executed else None


def run_messages(
    n: int = 32,
    seed: int | None = None,
    root_seed: int = DEFAULT_ROOT_SEED,
    engine: str = "columnar",
) -> MessageProfile:
    """Trace one stabilization run's message counts.

    ``engine`` selects the simulation kernel (``columnar`` or ``full``)
    — the message series is engine-invariant, the executed-actor series
    reports ``n/a`` under the full-scan kernel.
    """
    if seed is None:
        seed = SeedSequence(root_seed).child("messages", n=n).seed()
    net = build_random_network(n=n, seed=seed, engine=engine)
    rounds = net.enable_telemetry().rounds
    report = net.run_until_stable(max_rounds=20_000)
    # two extra rounds past stability to sample the steady-state rate
    net.run(2)
    return MessageProfile(
        n=n,
        series=tuple(sent for sent, _, _, _ in rounds),
        rounds_to_stable=report.rounds_to_stable,
        executed=tuple(
            None if engine == "full" else executed for _, _, executed, _ in rounds
        ),
    )


def format_messages(profile: MessageProfile) -> str:
    """Message-complexity report with a small ASCII sparkline."""
    peak = max(1, profile.peak)
    blocks = " ▁▂▃▄▅▆▇█"
    spark = "".join(blocks[min(8, (9 * v) // (peak + 1))] for v in profile.series)
    mean = profile.executed_mean
    steady = profile.executed_steady
    executed = (
        "n/a (kernel reports no execute/replay split)"
        if mean is None
        else f"mean {mean:.1f}, steady {steady if steady is not None else 'n/a'}"
    )
    return "\n".join(
        [
            f"E12 — message complexity (n={profile.n})",
            "=" * 40,
            f"rounds to stable : {profile.rounds_to_stable}",
            f"peak msgs/round  : {profile.peak}",
            f"steady msgs/round: {profile.steady_rate}",
            f"total msgs       : {profile.total}",
            f"executed actors  : {executed}",
            f"per-round series : {spark}",
        ]
    )
