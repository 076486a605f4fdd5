#!/usr/bin/env python
"""One-shot 10^6-op traffic campaign at n=1024 with bounded collector memory.

The datapoint behind the traffic plane at scale (see "Traffic at
scale" in docs/ARCHITECTURE.md): a 1024-peer network carries a
sustained seeded workload of one million operations concurrent with
periodic churn (a crash and a join every 64 rounds).  The SLO collector
keeps exact running aggregates — counters, a count per routed latency,
per-issue-round tallies — and a seeded reservoir of completion records,
so its resident completion set is bounded by the reservoir regardless
of campaign length, which is what makes this run (and longer ones)
practical.  The latency histogram is exact: it is built from the
per-latency counts, not from the reservoir.

Writes ``benchmarks/results/million_ops.json`` and ``.txt``.  Expect a
wall-clock of a few minutes (recorded: 145 s on a 2-core x86_64 host;
2,800 s before the columnar kernel's application lane took traffic off
the rule pipeline).
Usage::

    PYTHONPATH=src python benchmarks/run_million_ops.py [--ops 1000000]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.experiments.scaling import build_ideal_network
from repro.netsim.rng import SeedSequence
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.slo import latency_histogram
from repro.workloads.initial import random_peer_ids

RESULTS_DIR = Path(__file__).resolve().parent / "results"
ROOT_SEED = 20110607  # the repo-wide experiment seed (SPAA'11 submission date)
N = 1024
RATE = 2000.0
CHURN_EVERY = 64
RESERVOIR = 4096


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--ops", type=int, default=1_000_000)
    parser.add_argument("--rate", type=float, default=RATE)
    parser.add_argument("--out-dir", type=Path, default=RESULTS_DIR)
    args = parser.parse_args()
    n, rate = args.n, args.rate
    rounds = max(1, round(args.ops / rate))

    seq = SeedSequence(ROOT_SEED).child("million-ops", n=n)
    print(f"[million-ops] building ideal network, n={n} ...", flush=True)
    t_build = time.perf_counter()
    net = build_ideal_network(n, seq.child("build").seed(), engine="columnar")
    build_secs = time.perf_counter() - t_build

    plane = TrafficPlane(net, reservoir_size=RESERVOIR)
    WorkloadGenerator(
        plane,
        rate=rate,
        key_universe=max(1024, n),
        popularity="zipf",
        deadline=48,
        seed=seq.child("workload").seed(),
    )
    churn_rng = seq.child("churn").rng()
    crashes = joins = 0
    print(
        f"[million-ops] {rounds} rounds at rate {rate:g} "
        f"(~{int(rounds * rate):,} ops), churn every {CHURN_EVERY} rounds ...",
        flush=True,
    )
    t0 = time.perf_counter()
    for round_no in range(rounds):
        if round_no and round_no % CHURN_EVERY == 0:
            net.crash(churn_rng.choice(net.peer_ids))
            crashes += 1
            join_id = random_peer_ids(1, churn_rng, net.space)[0]
            while join_id in net.peers:
                join_id = random_peer_ids(1, churn_rng, net.space)[0]
            net.join(join_id, churn_rng.choice(net.peer_ids))
            joins += 1
        plane.run_round()
        if (round_no + 1) % 50 == 0:
            done = plane.collector.completed_count
            secs = time.perf_counter() - t0
            print(
                f"[million-ops] round {round_no + 1}/{rounds}  "
                f"completed={done:,}  ({done / secs:,.0f} ops/sec)",
                flush=True,
            )
    plane.generator.active = False
    plane.drain()
    elapsed = time.perf_counter() - t0
    coll = plane.collector
    summary = coll.summary()
    resident = len(coll.completed)
    assert resident <= RESERVOIR, "collector exceeded its reservoir"

    hist = latency_histogram(coll.latency_counts)
    lines = [
        f"10^6-op traffic campaign, n={n}, rate={rate:g}/round",
        "=" * 72,
        f"rounds:               {rounds} (+drain)",
        f"churn:                {crashes} crashes, {joins} joins",
        f"issued:               {summary['issued']:,}",
        f"completed:            {summary['completed']:,}",
        f"success_rate:         {summary['success_rate']}",
        f"violations:           {summary['violations']}",
        f"outcomes:             {summary['outcomes']}",
        f"latency mean/p95/max: {summary.get('latency_mean')} / "
        f"{summary.get('latency_p95')} / {summary.get('latency_max')}",
        f"hops mean/max:        {summary.get('hops_mean')} / {summary.get('hops_max')}",
        f"resident completions: {resident} (reservoir {RESERVOIR})",
        f"throughput:           {summary['completed'] / elapsed:,.0f} ops/sec "
        f"({elapsed:,.0f}s wall)",
        "routed latency histogram (rounds): "
        + "  ".join(f"{label}:{count}" for label, count in hist if count),
    ]
    text = "\n".join(lines)
    print(text, flush=True)

    payload = {
        "description": (
            "seeded million-op traffic campaign concurrent with periodic "
            "churn, SLO collector with bounded memory"
        ),
        "n": n,
        "root_seed": ROOT_SEED,
        "rate": rate,
        "rounds": rounds,
        "churn": {"every": CHURN_EVERY, "crashes": crashes, "joins": joins},
        "collector": {
            "reservoir_size": RESERVOIR,
            "resident_completions": resident,
        },
        "summary": summary,
        "latency_hist": [list(pair) for pair in hist],
        "wall_secs": round(elapsed, 1),
        "ops_per_sec": round(summary["completed"] / elapsed, 1),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "million_ops.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    (args.out_dir / "million_ops.txt").write_text(text + "\n")
    print(f"[million-ops] wrote {args.out_dir / 'million_ops.json'}", flush=True)


if __name__ == "__main__":
    main()
