"""The named scenario library.

Each entry composes the event vocabulary into one reusable adversity
campaign: a short name, a default size, the timeline, and the workload
riding it.  ``docs/SCENARIOS.md`` documents the adversary model, the
expected recovery behavior and the paper claim each scenario probes;
the CLI (``rechord scenario``) and the sweep experiment
(:mod:`repro.experiments.scenarios`) both resolve names here.

Use :func:`make_scenario` to instantiate one at a chosen size/seed::

    >>> from repro.scenarios import make_scenario
    >>> spec = make_scenario("flash-crowd", n=16, seed=3)
    >>> (spec.name, spec.n, len(spec.events) > 0)
    ('flash-crowd', 16, True)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.scenarios.spec import EventSpec, ScenarioSpec, TrafficSpec
from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT

#: name -> (description, builder(n, seed) -> ScenarioSpec)
_REGISTRY: Dict[str, Tuple[str, Callable[[int, int], ScenarioSpec]]] = {}

#: default campaign size (overridable per scenario via make_scenario)
DEFAULT_N = 32

#: the default mixed workload (lookups dominate, KV keeps a store hot)
MIXED_TRAFFIC = TrafficSpec(
    rate=2.0,
    op_mix=((OP_LOOKUP, 0.6), (OP_GET, 0.2), (OP_PUT, 0.2)),
    popularity="zipf",
)


def scenario(name: str, description: str) -> Callable:
    """Decorator registering a named scenario builder."""

    def register(fn: Callable[[int, int], ScenarioSpec]) -> Callable:
        _REGISTRY[name] = (description, fn)
        return fn

    return register


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_description(name: str) -> str:
    """The one-line adversary summary of a named scenario."""
    return _get(name)[0]


def _get(name: str) -> Tuple[str, Callable[[int, int], ScenarioSpec]]:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        )
    return entry


def make_scenario(name: str, n: int = DEFAULT_N, seed: int = 1, **overrides) -> ScenarioSpec:
    """Instantiate a named scenario at the given size and seed."""
    description, builder = _get(name)
    spec = builder(n, seed)
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


# ----------------------------------------------------------------------
# membership adversaries
# ----------------------------------------------------------------------
@scenario(
    "flash-crowd",
    "25% of the network joins at once through a single gateway peer",
)
def _flash_crowd(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="flash-crowd",
        n=n,
        seed=seed,
        start="ideal",
        rounds=28,
        events=(
            EventSpec(
                at=6,
                kind="flash_crowd",
                params={"fraction": 0.25, "gateway": "single"},
            ),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "A stable overlay is hit by a join burst funneled through one "
            "gateway — the hotspot version of Theorem 4.1's isolated join."
        ),
    )


@scenario(
    "crash-wave",
    "a correlated crash of 25% consecutive peers (a whole ring neighborhood)",
)
def _crash_wave(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="crash-wave",
        n=n,
        seed=seed,
        start="ideal",
        rounds=28,
        events=(
            EventSpec(
                at=6,
                kind="crash_wave",
                params={"fraction": 0.25, "targeting": "clustered"},
            ),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "Correlated failure of consecutive identifiers — successor "
            "knowledge of a whole arc vanishes at once (Theorem 4.2, en "
            "masse, the failure mode successor lists exist for)."
        ),
    )


@scenario(
    "seam-crash",
    "both ring-seam extremes crash simultaneously (wrap-pointer holders)",
)
def _seam_crash(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="seam-crash",
        n=n,
        seed=seed,
        start="ideal",
        rounds=24,
        events=(
            EventSpec(
                at=6,
                kind="crash_wave",
                params={"count": 2, "targeting": "extremes"},
            ),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "The minimum and maximum identifiers crash together: the seam "
            "ring edge and both wrap pointers [D6] die in one round — the "
            "hardest two-peer loss on the circle."
        ),
    )


@scenario(
    "churn-storm",
    "five back-to-back random churn bursts while traffic keeps flowing",
)
def _churn_storm(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="churn-storm",
        n=n,
        seed=seed,
        start="ideal",
        rounds=40,
        events=tuple(
            EventSpec(at=6 + 6 * i, kind="churn_burst", params={"events": 3})
            for i in range(5)
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "Sustained mixed churn: a new burst lands before the previous "
            "one's repair finishes, so stabilization never gets a quiet "
            "window until the storm passes."
        ),
    )


@scenario(
    "rolling-restart",
    "crash-then-rejoin sweeps across the network, one peer every 4 rounds",
)
def _rolling_restart(n: int, seed: int) -> ScenarioSpec:
    events = []
    for i in range(4):
        events.append(
            EventSpec(at=4 + 8 * i, kind="crash_wave", params={"count": 1})
        )
        events.append(
            EventSpec(at=8 + 8 * i, kind="flash_crowd", params={"count": 1})
        )
    return ScenarioSpec(
        name="rolling-restart",
        n=n,
        seed=seed,
        start="ideal",
        rounds=40,
        events=tuple(events),
        traffic=MIXED_TRAFFIC,
        description=(
            "An operator rolling through the fleet: individual peers crash "
            "and fresh ones join in alternation, testing that repairs stay "
            "local (Theorems 4.1/4.2) while operations keep succeeding."
        ),
    )


# ----------------------------------------------------------------------
# resilience: mass failure and gray failure under the retrying plane
# ----------------------------------------------------------------------
@scenario(
    "mass-failure",
    "half the network crashes at once; the retrying request plane must carry traffic through",
)
def _mass_failure(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="mass-failure",
        n=n,
        seed=seed,
        start="ideal",
        rounds=36,
        events=(
            EventSpec(
                at=8,
                kind="crash_wave",
                params={"fraction": 0.5, "targeting": "random"},
            ),
        ),
        traffic=TrafficSpec(
            rate=2.0,
            op_mix=((OP_LOOKUP, 1.0),),
            popularity="zipf",
            # short per-attempt deadlines so the attempt budget actually
            # cycles inside the adversity window; the survival metric
            # (ScenarioReport.survival_by_window) scores the ops issued
            # *during* the outage by eventual success.  The exponential
            # backoff makes the budget deep enough that the last
            # attempts land after the overlay has re-stabilized (in-band
            # failure replies burn early attempts within a few rounds)
            deadline=12,
            max_attempts=6,
            retry_backoff=4,
            route_redundancy=2,
        ),
        description=(
            "The mass-failure survival drill: 50% of the peers crash in "
            "one round mid-traffic.  First attempts issued during the "
            "window die on dead hops; seeded retries with backoff plus "
            "r=2 redundant forwarding must route them eventually, and "
            "the per-window survival census records the fraction that "
            "made it (Theorem 4.2 pushed to the regime successor lists "
            "and retries exist for)."
        ),
    )


@scenario(
    "gray-failure",
    "a lossy gray peer subset drops ~30% of its messages until the links heal",
)
def _gray_failure(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="gray-failure",
        n=n,
        seed=seed,
        start="ideal",
        rounds=36,
        events=(
            EventSpec(
                at=6,
                kind="gray_failure",
                params={"fraction": 0.25, "drop_prob": 0.3},
            ),
            EventSpec(at=26, kind="heal", params={}),
        ),
        traffic=TrafficSpec(
            rate=2.0,
            op_mix=((OP_LOOKUP, 1.0),),
            popularity="zipf",
            deadline=12,
            max_attempts=3,
            retry_backoff=3,
            hedge_after=6,
        ),
        description=(
            "Gray failure: a seeded quarter of the peers stays alive but "
            "drops ~30% of its messages (content-keyed, so both kernels "
            "drop identically).  The liveness oracle never notices — only "
            "the request plane's deadlines do.  Retries redraw the drop "
            "coin with a fresh attempt stamp and hedged duplicates race "
            "the lossy path until the links heal."
        ),
    )


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
@scenario(
    "partition-heal",
    "a silent half/half partition for 14 rounds, then the link returns",
)
def _partition_heal(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="partition-heal",
        n=n,
        seed=seed,
        start="ideal",
        rounds=34,
        events=(
            EventSpec(at=6, kind="partition", params={"mode": "id_split", "fraction": 0.5}),
            EventSpec(at=20, kind="heal", params={}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "Messages across an identifier-arc cut vanish silently while "
            "both sides keep believing the other is alive: cross-cut "
            "operations time out (monotonic-searchability violations "
            "spike), then the link heals and the flows resume."
        ),
    )


@scenario(
    "partition-sever",
    "a detected partition severs all cross refs; heal must re-bridge",
)
def _partition_sever(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="partition-sever",
        n=n,
        seed=seed,
        start="ideal",
        rounds=40,
        events=(
            EventSpec(
                at=6,
                kind="partition",
                params={"mode": "id_split", "fraction": 0.5, "sever": True},
            ),
            EventSpec(at=24, kind="heal", params={"bridges": 1}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "The connection layer notices the partition and purges every "
            "cross-cut reference: two independent overlays stabilize in "
            "isolation, then a single bridge edge (the weak-connectivity "
            "minimum) must merge them — Berns' scaffolding regime."
        ),
    )


# ----------------------------------------------------------------------
# state corruption
# ----------------------------------------------------------------------
@scenario(
    "finger-poison",
    "garbage ring/connection/unmarked edges injected into every peer",
)
def _finger_poison(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="finger-poison",
        n=n,
        seed=seed,
        start="ideal",
        rounds=28,
        events=(
            EventSpec(
                at=6,
                kind="poison_fingers",
                params={"fraction": 1.0, "edges_per_peer": 6},
            ),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "An adversary rewrites routing state without touching "
            "membership: rules 4-6 must drain or convert every garbage "
            "edge while greedy forwarding survives on the poisoned views."
        ),
    )


@scenario(
    "phantom-storm",
    "excess virtual levels plus edges to levels nobody simulates",
)
def _phantom_storm(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="phantom-storm",
        n=n,
        seed=seed,
        start="ideal",
        rounds=28,
        events=(
            EventSpec(
                at=6,
                kind="phantom_refs",
                params={"fraction": 0.8, "levels_per_peer": 3},
            ),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "Phantom virtual references and over-provisioned sibling "
            "levels: rule 1 must delete the excess and the purge step "
            "must re-point every phantom ref [D11]."
        ),
    )


@scenario(
    "ring-split",
    "the overlay is reset mid-run into two interleaved rings",
)
def _ring_split(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="ring-split",
        n=n,
        seed=seed,
        start="ideal",
        rounds=32,
        events=(EventSpec(at=6, kind="ring_split", params={}),),
        traffic=MIXED_TRAFFIC,
        description=(
            "The arbitrary-state reset: all neighborhoods wiped and "
            "rewired into the interleaved two-ring split that permanently "
            "breaks classic Chord — Re-Chord must merge them (Theorem "
            "1.1) with operations in flight."
        ),
    )


# ----------------------------------------------------------------------
# time-model adversity (latency + activation daemons)
# ----------------------------------------------------------------------
@scenario(
    "jitter-storm",
    "bounded message reordering on every link while churn bursts land",
)
def _jitter_storm(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="jitter-storm",
        n=n,
        seed=seed,
        start="ideal",
        rounds=26,
        events=(
            EventSpec(at=2, kind="jitter_storm", params={"bound": 3}),
            EventSpec(at=8, kind="churn_burst", params={"events": 3}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "Every link draws a seeded delay in [1, 3] per message, so "
            "deliveries reorder within the bound — the asynchronous "
            "adversary of monotonic searchability — while a churn burst "
            "lands mid-storm.  The jitter persists through recovery: "
            "stabilization must reach its fixpoint on reordered flows."
        ),
    )


@scenario(
    "slow-links",
    "a third of the links degrade to 3-round latency, then get repaired",
)
def _slow_links(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="slow-links",
        n=n,
        seed=seed,
        start="ideal",
        rounds=28,
        events=(
            EventSpec(at=2, kind="slow_links", params={"fraction": 0.3, "delay": 3}),
            EventSpec(at=8, kind="crash_wave", params={"count": 2}),
            EventSpec(at=20, kind="set_latency", params={"kind": "unit"}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "A seeded 30% of directed links turns slow (3 rounds) — the "
            "heterogeneous-bandwidth population — and two peers crash "
            "while repairs ride the degraded links; the operator then "
            "upgrades the links back to unit latency."
        ),
    )


@scenario(
    "latency-partition",
    "cross-cut links of an identifier arc slow to 5 rounds, then heal",
)
def _latency_partition(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="latency-partition",
        n=n,
        seed=seed,
        start="ideal",
        rounds=30,
        events=(
            EventSpec(
                at=4,
                kind="latency_partition",
                params={"mode": "id_split", "fraction": 0.5, "delay": 5},
            ),
            EventSpec(at=10, kind="flash_crowd", params={"count": 2}),
            EventSpec(at=22, kind="set_latency", params={"kind": "unit"}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "The partition's gentle sibling: messages across an "
            "identifier-arc cut arrive five rounds late instead of "
            "never.  Cross-cut operations stretch toward their "
            "deadlines while joins land on the slow side, then the WAN "
            "link recovers."
        ),
    )


@scenario(
    "brownout",
    "a seeded-partial activation daemon idles 40% of peers, then lifts",
)
def _brownout(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="brownout",
        n=n,
        seed=seed,
        start="ideal",
        rounds=26,
        events=(
            EventSpec(at=4, kind="set_daemon", params={"kind": "partial", "p": 0.6}),
            EventSpec(at=8, kind="churn_burst", params={"events": 3}),
            EventSpec(at=20, kind="set_daemon", params={"kind": "full"}),
        ),
        traffic=MIXED_TRAFFIC,
        description=(
            "An activation brownout: each round only a seeded ~60% of "
            "peers execute (the fair-scheduling bridge toward "
            "asynchrony), churn lands mid-brownout, and full activation "
            "returns before recovery — sleeping peers' inboxes "
            "accumulate and drain without breaking kernel equivalence."
        ),
    )


# ----------------------------------------------------------------------
# adversarial starts under load
# ----------------------------------------------------------------------
@scenario(
    "cold-start-line",
    "traffic from round 0 on a line graph — the slowest information spreader",
)
def _cold_start_line(n: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="cold-start-line",
        n=n,
        seed=seed,
        start="line",
        rounds=24,
        events=(
            EventSpec(at=12, kind="set_rate", params={"rate": 4.0}),
        ),
        traffic=TrafficSpec(rate=1.0, op_mix=((OP_LOOKUP, 1.0),), popularity="zipf"),
        description=(
            "The overlay is *used before it ever stabilizes*: lookups "
            "start on a degenerate line topology, and the offered load "
            "doubles mid-convergence — routability during convergence, "
            "from the worst O(n)-diameter start."
        ),
    )
