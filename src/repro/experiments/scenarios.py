"""The scenario sweep: every named adversity campaign, one table.

Re-Chord's headline claim — self-stabilization from arbitrary states,
*while being used* — is only as strong as the adversities thrown at it.
This experiment runs the whole named library
(:mod:`repro.scenarios.library`) at one size and reports, per campaign:
how much damage the adversity did (peak local-checker violations), how
long repair took after the window closed (recovery rounds), whether the
exact ideal topology returned, and what the traffic plane observed
while it happened (success rate, violation count, latency).

Regenerate the checked-in results through the CLI::

    PYTHONPATH=src python -m repro scenario --all \
        --n 32 --out benchmarks/results
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.netsim.rng import SeedSequence
from repro.scenarios import (
    ScenarioReport,
    make_scenario,
    run_scenario,
    scenario_description,
    scenario_names,
)

DEFAULT_N = 32


@dataclass(frozen=True)
class ScenarioRow:
    """One campaign's aggregated outcome."""

    name: str
    n: int
    peers_final: int
    events: int
    peak_violations: int
    recovery_rounds: int
    stable: bool
    ideal: bool
    ops: int
    success_rate: float
    slo_violations: int
    latency_p95: Optional[float]

    @staticmethod
    def from_report(report: ScenarioReport) -> "ScenarioRow":
        """Flatten a :class:`ScenarioReport` into a table row."""
        slo = report.slo or {}
        return ScenarioRow(
            name=report.name,
            n=report.peers_start,
            peers_final=report.peers_final,
            events=sum(report.event_census.values()),
            peak_violations=max(s.check_violations for s in report.samples),
            recovery_rounds=report.recovery_rounds,
            stable=report.stable,
            ideal=report.ideal,
            ops=slo.get("completed", 0),
            success_rate=slo.get("success_rate", 1.0),
            slo_violations=slo.get("violations", 0),
            latency_p95=slo.get("latency_p95"),
        )


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    n: int = DEFAULT_N,
    root_seed: int = DEFAULT_ROOT_SEED,
    overrides: Optional[dict] = None,
) -> List[ScenarioReport]:
    """Execute the named campaigns (default: the whole library).

    ``overrides`` are extra :meth:`ScenarioSpec.with_overrides` fields
    applied to every campaign — the CLI uses this to run the whole
    sweep under a time model (``--all --latency-model ...``).
    """
    reports: List[ScenarioReport] = []
    for name in names if names is not None else scenario_names():
        seed = SeedSequence(root_seed).child("scenario-exp", name, n=n).seed()
        spec = make_scenario(name, n=n, seed=seed, **(overrides or {}))
        reports.append(run_scenario(spec))
    return reports


def format_scenarios(reports: Sequence[ScenarioReport]) -> str:
    """The sweep as an aligned ASCII table plus per-campaign notes."""
    rows = [ScenarioRow.from_report(report) for report in reports]
    lines: List[str] = [
        "Scenario campaigns — recovery and SLO under declared adversity",
        "=" * 78,
        f"{'scenario':<18} {'peers':>9} {'events':>6} {'peak':>5} "
        f"{'recovery':>8} {'ideal':>5} {'ops':>5} {'success':>8} {'viol':>4} {'p95':>5}",
    ]
    for row in rows:
        p95 = f"{row.latency_p95:.0f}" if row.latency_p95 is not None else "-"
        lines.append(
            f"{row.name:<18} {row.n:>4}->{row.peers_final:<4} {row.events:>6} "
            f"{row.peak_violations:>5} {row.recovery_rounds:>8} "
            f"{str(row.ideal):>5} {row.ops:>5} {row.success_rate:>7.1%} "
            f"{row.slo_violations:>4} {p95:>5}"
        )
    lines.append("")
    lines.append("peak = max local-checker violations observed during the campaign")
    lines.append("viol = monotonic-searchability violations (Scheideler et al.)")
    for row in rows:
        lines.append(f"  {row.name}: {scenario_description(row.name)}")
    return "\n".join(lines)


def reports_to_json(reports: Sequence[ScenarioReport]) -> dict:
    """JSON-serializable form of a sweep (checked-in results)."""
    return {
        "experiment": "scenarios",
        "runs": [report.to_dict() for report in reports],
    }

