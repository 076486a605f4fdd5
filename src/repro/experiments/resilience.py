"""Mass-failure survival under the resilient request plane.

The question the recovery-profile experiment (:mod:`~repro.experiments.
traffic`) cannot answer: when *half* the network dies at once, what
fraction of the operations issued **during the outage** still complete
eventually — and how much of that survival is bought by the request
plane's retries rather than by the overlay's self-repair?

The experiment runs the ``mass-failure`` library scenario (a seeded 50%
crash wave mid-traffic, see :mod:`repro.scenarios.library`) at one size
and seed, in two variants sharing every draw that precedes the plane:

* **retries** — the scenario's own resilient workload: per-attempt
  deadline 12, ``max_attempts=4`` with seeded exponential backoff, and
  ``route_redundancy=2`` forwarding;
* **no-retry** — the identical campaign with the resilience knobs
  forced back to their off defaults (``max_attempts=1``,
  ``route_redundancy=1``): the plane every pre-resilience release ran.

The survival census (:attr:`ScenarioReport.survival_by_window`)
attributes every completion to the window its *issue* round fell in, so
the failure-window row isolates exactly the ops that raced the outage.
The retries variant is additionally executed **twice with the same
seed** and the two reports' configuration digests and survival tables
must agree — the end-to-end determinism check the ``mass_failure`` gate
case (``benchmarks/gates.py``) relies on.

Regenerate the checked-in results through the CLI (the seed is
``--root-seed``)::

    PYTHONPATH=src python -m repro resilience \
        --n 1024 --out benchmarks/results
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.scenarios import make_scenario, run_scenario

DEFAULT_N = 1024

#: the survival floor the resilient variant is expected to clear in its
#: failure window (the gate enforces it; see ISSUE/ROADMAP)
SURVIVAL_FLOOR = 0.99


@dataclass(frozen=True)
class ResilienceVariant:
    """One campaign variant's survival profile."""

    label: str
    max_attempts: int
    route_redundancy: int
    rounds_total: int
    recovery_rounds: int
    config_digest: str
    survival_by_window: Tuple[Tuple[str, int, int], ...]
    failure_window: str
    failure_issued: int
    failure_routed: int
    failure_survival: float
    totals: dict


@dataclass(frozen=True)
class ResilienceRun:
    """The retries-on vs. retries-off comparison at one (n, seed)."""

    n: int
    seed: int
    variants: Tuple[ResilienceVariant, ...]
    #: same-seed rerun of the retries variant produced an identical
    #: configuration digest and survival table
    digest_deterministic: bool


def _failure_row(
    survival: Sequence[Tuple[str, int, int]]
) -> Tuple[str, int, int]:
    """The survival row of the crash window (label ``r<k>:crash_wave``)."""
    for label, issued, routed in survival:
        if "crash_wave" in label:
            return label, issued, routed
    raise ValueError(f"no crash window in survival table {survival!r}")


def _variant(label: str, spec, report) -> ResilienceVariant:
    window, issued, routed = _failure_row(report.survival_by_window)
    return ResilienceVariant(
        label=label,
        max_attempts=spec.traffic.max_attempts,
        route_redundancy=spec.traffic.route_redundancy,
        rounds_total=report.rounds_total,
        recovery_rounds=report.recovery_rounds,
        config_digest=report.config_digest,
        survival_by_window=tuple(report.survival_by_window),
        failure_window=window,
        failure_issued=issued,
        failure_routed=routed,
        failure_survival=round(routed / issued, 4) if issued else 0.0,
        totals=dict(report.slo or {}),
    )


def run_resilience(
    n: int = DEFAULT_N,
    seed: int = DEFAULT_ROOT_SEED,
) -> ResilienceRun:
    """The mass-failure survival comparison at one size and seed."""
    spec = make_scenario("mass-failure", n=n, seed=seed)
    off_spec = spec.with_overrides(
        traffic=replace(
            spec.traffic, max_attempts=1, route_redundancy=1, hedge_after=None
        )
    )
    on_report = run_scenario(spec)
    rerun_report = run_scenario(spec)
    off_report = run_scenario(off_spec)
    deterministic = (
        on_report.config_digest == rerun_report.config_digest
        and on_report.survival_by_window == rerun_report.survival_by_window
        and on_report.slo == rerun_report.slo
    )
    return ResilienceRun(
        n=n,
        seed=seed,
        variants=(
            _variant("retries", spec, on_report),
            _variant("no-retry", off_spec, off_report),
        ),
        digest_deterministic=deterministic,
    )


def format_resilience(run: ResilienceRun) -> str:
    """The survival comparison as a table."""
    lines: List[str] = [
        "Mass-failure survival: 50% crash wave mid-traffic, retries on vs. off",
        "=" * 78,
        f"n={run.n}  seed={run.seed}  "
        f"same-seed digest deterministic: {run.digest_deterministic}",
        "",
        f"{'variant':>10} {'attempts':>8} {'r':>3} {'window':>16} "
        f"{'issued':>7} {'routed':>7} {'survival':>9} {'retries':>8}",
    ]
    for v in run.variants:
        lines.append(
            f"{v.label:>10} {v.max_attempts:>8} {v.route_redundancy:>3} "
            f"{v.failure_window:>16} {v.failure_issued:>7} "
            f"{v.failure_routed:>7} {v.failure_survival:>8.2%} "
            f"{v.totals.get('retries', 0):>8}"
        )
    lines.append("")
    for v in run.variants:
        t = v.totals
        outcomes = "  ".join(f"{k}:{c}" for k, c in t.get("outcomes", {}).items())
        lines.append(
            f"{v.label:>10} totals: completed={t.get('completed', 0)}  "
            f"success={t.get('success_rate', 0.0):.2%}  {outcomes}"
        )
        if "attempts" in t:
            attempts = "  ".join(f"x{k}:{c}" for k, c in sorted(t["attempts"].items()))
            lines.append(
                f"{'':>10} attempts: {attempts}  "
                f"first-try ok:{t.get('first_attempt_success', 0)}  "
                f"eventual ok:{t.get('eventual_success', 0)}"
            )
    return "\n".join(lines)


def run_to_json(run: ResilienceRun) -> dict:
    """JSON-serializable form (checked-in results)."""
    return {
        "experiment": "resilience_mass_failure",
        "n": run.n,
        "seed": run.seed,
        "digest_deterministic": run.digest_deterministic,
        "survival_floor": SURVIVAL_FLOOR,
        "variants": [
            {**vars(v), "survival_by_window": [list(row) for row in v.survival_by_window]}
            for v in run.variants
        ],
    }

