"""In-band lookups concurrent with churn — success and latency vs.
rounds-since-churn.

The question the snapshot experiments cannot ask: while the overlay is
*repairing itself* after membership changes, what happens to live
requests already in flight and to requests issued mid-recovery?  The
protocol here follows the evaluation regime of the monotonic-
searchability line of work (Scheideler/Setzer/Strothmann) and Berns'
scaffolding paper: application requests run concurrently with
stabilization, never against a frozen snapshot.

Per size ``n`` (paper-style: one stable network built directly in its
fixpoint via :func:`build_ideal_network`, the only practical route to
n ≥ 1024):

1. a **warm-up window** of traffic on the stable overlay establishes
   the pre-churn baseline (every op should succeed in O(log n) hops);
2. a **churn burst** — a scripted mix of joins, graceful leaves and
   crashes sized relative to ``n`` — hits the network at round ``C``;
3. traffic keeps flowing while the overlay re-stabilizes; each op is
   bucketed by *rounds since churn* at its issue round, giving the
   recovery profile: success rate and latency per bucket;
4. after the tail window, the run drains and reports totals, including
   monotonic-searchability violations (a search failing after the same
   ``(origin, key)`` search previously succeeded).

Run as a module to regenerate the checked-in results::

    PYTHONPATH=src python -m repro.experiments.traffic \
        --sizes 64 256 1024 --out benchmarks/results
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.experiments.scaling import build_ideal_network
from repro.netsim.rng import SeedSequence
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.plane import TrafficPlane
from repro.traffic.slo import latency_histogram
from repro.workloads.churn import ChurnSchedule, apply_event

DEFAULT_SIZES = (64, 256, 1024)

#: rounds-since-churn buckets (inclusive upper edges; -1 = pre-churn)
BUCKET_EDGES = (1, 3, 7, 15, 31)


@dataclass(frozen=True)
class BucketRow:
    """Aggregated outcomes of ops issued within one recovery window."""

    label: str
    issued: int
    ok: int
    failed: int
    success_rate: float
    mean_latency: Optional[float]
    max_latency: Optional[int]


@dataclass(frozen=True)
class TrafficChurnRun:
    """One size's recovery profile."""

    n: int
    seed: int
    churn_events: Dict[str, int]
    churn_round: int
    rounds_to_stable: int
    buckets: Tuple[BucketRow, ...]
    totals: dict
    latency_hist: Tuple[Tuple[str, int], ...]
    violations: int
    #: counter census + kernel stats when the run carried a telemetry
    #: recorder (None otherwise); excluded from the checked-in JSON
    telemetry: Optional[dict] = None


def _bucket_label(rounds_since: int) -> str:
    """The recovery bucket of an op issued ``rounds_since`` rounds after
    the churn burst: ``pre-churn``, ``lo-edge`` for each inclusive upper
    edge of ``BUCKET_EDGES``, then the overflow bucket ``lo+``."""
    if rounds_since < 0:
        return "pre-churn"
    i = bisect_left(BUCKET_EDGES, rounds_since)
    lo = BUCKET_EDGES[i - 1] + 1 if i else 0
    return f"{lo}-{BUCKET_EDGES[i]}" if i < len(BUCKET_EDGES) else f"{lo}+"


def measure_one(
    n: int,
    seed: int,
    warmup_rounds: int = 8,
    traffic_rounds: int = 48,
    rate: Optional[float] = None,
    churn_events: Optional[int] = None,
    deadline: int = 48,
    telemetry: object = None,
    sketch_quantiles: Optional[Sequence[float]] = None,
    max_attempts: int = 1,
    retry_backoff: int = 4,
    hedge_after: Optional[int] = None,
    route_redundancy: int = 1,
) -> TrafficChurnRun:
    """One full churn-recovery traffic run at size ``n``.

    ``telemetry`` opts the run into the observation plane (``True`` for
    a fresh recorder, or an existing one); purely observational — the
    recovery profile is identical with or without it.
    ``sketch_quantiles`` adds opt-in latency quantiles to the totals,
    each an exact nearest rank (separate ``latency_p*_sketch`` keys).
    The recovery profile and the latency histogram come from the
    collector's exact tallies, at any campaign size.
    ``max_attempts``/``retry_backoff``/``hedge_after``/
    ``route_redundancy`` opt the run into the resilient request plane
    (see :class:`TrafficPlane`); the defaults keep the run bit-for-bit
    identical to the pre-resilience behavior.
    """
    seq = SeedSequence(seed).child("traffic", n=n)
    build_seed = seq.child("build").seed()
    net = build_ideal_network(n, build_seed, engine="columnar")
    recorder = None
    if telemetry:
        recorder = net.enable_telemetry(None if telemetry is True else telemetry)
    # twin without traffic: the exact oracle for overlay recovery time
    # (traffic never mutates overlay state, so the repair trajectory of
    # the traffic-carrying network is identical)
    twin = build_ideal_network(n, build_seed, engine="columnar")
    plane = TrafficPlane(
        net,
        default_deadline=deadline,
        sketch_quantiles=sketch_quantiles,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        hedge_after=hedge_after,
        route_redundancy=route_redundancy,
        retry_seed=seq.child("retry").seed(),
    )
    rate = rate if rate is not None else max(2.0, n / 64)
    WorkloadGenerator(
        plane,
        rate=rate,
        key_universe=max(64, n),
        popularity="zipf",
        zipf_s=1.1,
        deadline=deadline,
        seed=seq.child("workload").seed(),
    )
    # 1. warm-up on the stable overlay
    plane.run(warmup_rounds)
    # 2. churn burst: joins / leaves / crashes scaled with n
    events = churn_events if churn_events is not None else max(4, n // 64)
    schedule = ChurnSchedule.random(
        net, events=events, seed=seq.child("churn").seed(), join_prob=0.4, crash_prob=0.3
    )
    kinds: Dict[str, int] = {}
    for event in schedule:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        apply_event(net, event)
        apply_event(twin, event)
    churn_round = net.round_no
    stable_after = twin.run_until_stable(max_rounds=20_000).rounds_to_stable
    # 3. traffic concurrent with re-stabilization
    for _ in range(traffic_rounds):
        plane.run_round()
    plane.generator.active = False
    plane.drain()
    # 4. bucket by rounds-since-churn at issue time
    # buckets come out in report order: tallies merge in issue-round order
    rows = tuple(
        BucketRow(
            label=label,
            issued=issued,
            ok=ok,
            failed=issued - ok,
            success_rate=round(ok / issued, 4),
            mean_latency=round(lat_sum / ok, 2) if ok else None,
            max_latency=lat_max if ok else None,
        )
        for label, (issued, ok, lat_sum, lat_max) in plane.collector.tallies_by(
            lambda r: _bucket_label(r - churn_round)
        ).items()
    )
    tel = None
    if recorder is not None:
        recorder.rule_fires = dict(net.counters().fires)
        for comp in plane.collector.traced():
            recorder.add_trace(comp.op_id, comp.op, comp.outcome, comp.trace.hops)
        tel = {"census": recorder.census(), "kernel": recorder.kernel_stats()}
    return TrafficChurnRun(
        n=n,
        seed=seed,
        churn_events=dict(sorted(kinds.items())),
        churn_round=churn_round,
        rounds_to_stable=stable_after,
        buckets=rows,
        totals=plane.collector.summary(),
        latency_hist=tuple(latency_histogram(plane.collector.latency_counts)),
        violations=plane.collector.violations_count,
        telemetry=tel,
    )


def run_traffic(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: int = 1,
    root_seed: int = DEFAULT_ROOT_SEED,
    telemetry: bool = False,
    sketch_quantiles: Optional[Sequence[float]] = None,
    max_attempts: int = 1,
    retry_backoff: int = 4,
    hedge_after: Optional[int] = None,
    route_redundancy: int = 1,
) -> List[TrafficChurnRun]:
    """The churn-recovery traffic sweep (one run per size per seed).

    ``telemetry=True`` attaches a fresh recorder to every run and
    carries its census on the run record (observational only);
    ``sketch_quantiles`` (exact nearest-rank latency quantiles) and the
    resilience knobs
    (``max_attempts``/``retry_backoff``/``hedge_after``/
    ``route_redundancy``) pass through to :func:`measure_one`.
    """
    runs: List[TrafficChurnRun] = []
    for n in sizes:
        for rep in range(seeds):
            seed = SeedSequence(root_seed).child("traffic-exp", n=n, rep=rep).seed()
            runs.append(
                measure_one(
                    n,
                    seed,
                    telemetry=telemetry,
                    sketch_quantiles=sketch_quantiles,
                    max_attempts=max_attempts,
                    retry_backoff=retry_backoff,
                    hedge_after=hedge_after,
                    route_redundancy=route_redundancy,
                )
            )
    return runs


def format_traffic(runs: Sequence[TrafficChurnRun]) -> str:
    """Recovery-profile tables, one block per run."""
    lines: List[str] = [
        "In-band lookups concurrent with churn — success/latency vs. rounds-since-churn",
        "=" * 78,
    ]
    for run in runs:
        t = run.totals
        lines.append("")
        lines.append(
            f"n={run.n}  churn={run.churn_events}  re-stabilized after "
            f"{run.rounds_to_stable} rounds  ops={t['completed']}  "
            f"success={t['success_rate']:.2%}  violations={run.violations}"
        )
        lines.append(f"{'issued (rounds since churn)':>28} {'ops':>5} {'ok':>5} "
                     f"{'success':>8} {'lat mean':>9} {'lat max':>8}")
        for row in run.buckets:
            mean = f"{row.mean_latency:.2f}" if row.mean_latency is not None else "-"
            mx = str(row.max_latency) if row.max_latency is not None else "-"
            lines.append(
                f"{row.label:>28} {row.issued:>5} {row.ok:>5} "
                f"{row.success_rate:>7.1%} {mean:>9} {mx:>8}"
            )
        hist = "  ".join(f"{label}:{count}" for label, count in run.latency_hist if count)
        lines.append(f"{'latency histogram (rounds)':>28} {hist}")
        outcomes = "  ".join(f"{k}:{v}" for k, v in t["outcomes"].items())
        lines.append(f"{'outcomes':>28} {outcomes}")
        if "retries" in t:
            lines.append(
                f"{'resilience':>28} retries:{t['retries']}  "
                f"hedges:{t['hedges_issued']} (wins:{t['hedge_wins']})  "
                f"first-try ok:{t['first_attempt_success']}  "
                f"eventual ok:{t['eventual_success']}  "
                f"stale:{t['stale_replies']}"
            )
        sketch = "  ".join(
            f"{k}:{v}" for k, v in sorted(t.items()) if k.endswith("_sketch")
        )
        if sketch:
            lines.append(f"{'sketch quantiles':>28} {sketch}")
        if run.telemetry is not None:
            census = run.telemetry["census"]
            msgs = "  ".join(
                f"{k}:{v}" for k, v in census["messages"].items()
            )
            lines.append(
                f"{'telemetry':>28} rounds:{census['rounds']}  "
                f"sent:{census['sent']}  dropped:{census['dropped']}"
            )
            lines.append(f"{'envelope census':>28} {msgs}")
    return "\n".join(lines)


def runs_to_json(runs: Sequence[TrafficChurnRun]) -> dict:
    """JSON-serializable form of a sweep (checked-in results)."""
    return {
        "experiment": "traffic_churn",
        "runs": [
            {
                "n": run.n,
                "seed": run.seed,
                "churn_events": run.churn_events,
                "churn_round": run.churn_round,
                "rounds_to_stable": run.rounds_to_stable,
                "buckets": [vars(row) for row in run.buckets],
                "totals": run.totals,
                "latency_hist": [list(pair) for pair in run.latency_hist],
                "violations": run.violations,
            }
            for run in runs
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate the checked-in results under ``benchmarks/results``."""
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*", default=list(DEFAULT_SIZES))
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--root-seed", type=int, default=DEFAULT_ROOT_SEED)
    parser.add_argument("--out", type=Path, default=None, help="results directory")
    parser.add_argument(
        "--sketch-quantiles",
        type=float,
        nargs="*",
        default=None,
        help="opt-in extra latency quantiles (e.g. 0.5 0.99), exact nearest ranks",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=1,
        help="attempt budget per op (1 = retries off, the default)",
    )
    parser.add_argument(
        "--retry-backoff", type=int, default=4,
        help="base backoff in rounds between attempts (seeded jitter)",
    )
    parser.add_argument(
        "--hedge-after", type=int, default=None,
        help="launch a duplicate probe after this many rounds (off by default)",
    )
    parser.add_argument(
        "--route-redundancy", type=int, default=1,
        help="candidate successors considered per forwarding hop",
    )
    args = parser.parse_args(argv)
    runs = run_traffic(
        tuple(args.sizes),
        args.seeds,
        args.root_seed,
        sketch_quantiles=args.sketch_quantiles,
        max_attempts=args.max_attempts,
        retry_backoff=args.retry_backoff,
        hedge_after=args.hedge_after,
        route_redundancy=args.route_redundancy,
    )
    text = format_traffic(runs)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "traffic_churn.txt").write_text(text + "\n")
        (args.out / "traffic_churn.json").write_text(
            json.dumps(runs_to_json(runs), indent=2) + "\n"
        )
        print(f"\n[results written to {args.out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
