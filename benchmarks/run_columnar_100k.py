#!/usr/bin/env python
"""One-shot 100k-peer stabilization on the columnar kernel.

Records the large-N datapoint behind the columnar engine work (see
docs/ARCHITECTURE.md): a network of 100 000 peers is constructed in its
ideal topology, the constant message flow of the stable configuration
is allowed to establish itself (every peer executes every round until
the rule-3 candidate waves die out — this *is* a stabilization, from a
state one write away from the fixpoint), and a single join is then
re-stabilized to measure steady-state post-churn throughput.

The full-scan kernel would need days for the same workload (it scans
all peers and re-buckets the entire ~10M-envelope in-flight multiset
every round); the tracked round loop still pays per-round delivery
proportional to the flow volume.  Only the columnar loop's
flow-indexed surgery makes the run practical, which is the point of
recording it.

Writes ``benchmarks/results/columnar_100k.json``.  Expect a wall-clock
of one to two hours, dominated by the dense settle phase.  Usage::

    PYTHONPATH=src python benchmarks/run_columnar_100k.py [--n 100000]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.experiments.scaling import (
    _post_churn_restabilize,
    build_ideal_network,
)
from repro.netsim.rng import SeedSequence
from repro.workloads.initial import random_peer_ids

RESULTS = Path(__file__).resolve().parent / "results" / "columnar_100k.json"
ROOT_SEED = 20110607  # the repo-wide experiment seed (SPAA'11 submission date)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args()
    n = args.n

    seq = SeedSequence(ROOT_SEED).child("engine", n=n)
    build_seed = seq.child("build").seed()
    rng = seq.child("join").rng()

    print(f"[columnar-100k] building ideal network, n={n} ...", flush=True)
    t0 = time.perf_counter()
    net = build_ideal_network(n, build_seed, engine="columnar", settle_rounds=256)
    build_secs = time.perf_counter() - t0
    settle_rounds = net.scheduler.round_no
    print(
        f"[columnar-100k] settled in {settle_rounds} rounds, "
        f"{build_secs:.0f}s wall (construction + settle)",
        flush=True,
    )

    join_id = random_peer_ids(1, rng, net.space)[0]
    while join_id in net.peers:
        join_id = random_peer_ids(1, rng, net.space)[0]
    gateway = rng.choice(net.peer_ids)

    print(f"[columnar-100k] re-stabilizing a single join ...", flush=True)
    report, secs, frac = _post_churn_restabilize(net, join_id, gateway, 5_000)
    rounds = report.rounds_executed
    rps = rounds / secs if secs > 0 else float("inf")
    print(
        f"[columnar-100k] join re-stabilized in {rounds} rounds, "
        f"{secs:.1f}s ({rps:.1f} rounds/sec, executed fraction {frac:.5f})",
        flush=True,
    )

    payload = {
        "description": (
            "100k-peer stabilization on the columnar kernel: settle of the "
            "ideal-constructed configuration, then a single-join "
            "re-stabilization"
        ),
        "n": n,
        "root_seed": ROOT_SEED,
        "engine": "columnar",
        "settle": {"rounds": settle_rounds, "secs": round(build_secs, 1)},
        "join_restabilize": {
            "rounds": rounds,
            "secs": round(secs, 2),
            "rounds_per_sec": round(rps, 2),
            "executed_fraction": round(frac, 6),
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[columnar-100k] wrote {args.out}", flush=True)


if __name__ == "__main__":
    main()
