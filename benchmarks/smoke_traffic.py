#!/usr/bin/env python
"""CI smoke benchmark: in-band traffic throughput under churn at n=256.

Builds a stable 256-peer network, attaches the traffic plane with a
mixed lookup/get/put workload, hits it with a small churn burst (join +
crash) mid-run, and drains.  Three classes of checks, the first and
last against the checked-in baseline
(``benchmarks/baseline_traffic.json``):

* **machine-independent exact checks** — the run is fully seeded, so
  the delivered-op count, the outcome census and the violation count
  must match the baseline exactly (any drift means traffic-plane or
  kernel behavior changed);
* **lane gate** (machine-independent, no baseline) — the campaign must
  execute exactly as many rule steps as the same seeded join + crash
  campaign with the generator inactive: application messages ride the
  columnar kernel's lane and never run the rule pipeline;
* **throughput floor** — completed ops/sec must stay within
  ``allowed_regression`` (default 3x) of the baseline.

Usage::

    PYTHONPATH=src python benchmarks/smoke_traffic.py            # gate
    PYTHONPATH=src python benchmarks/smoke_traffic.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_traffic.json"
N = 256
SEED = 2011
ROUNDS = 40


def campaign(traffic: bool, rounds: int) -> tuple:
    """The seeded join + crash campaign over ``rounds`` rounds (at least
    ``ROUNDS``, then until the ledger drains), with the generator
    injecting for the first ``ROUNDS`` of them or — ``traffic=False`` —
    never.  Returns ``(plane, rounds run, rule steps executed)``."""
    from repro.dht.lookup import ReChordRouter
    from repro.dht.storage import KeyValueStore
    from repro.experiments.scaling import build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.traffic import TrafficPlane, WorkloadGenerator
    from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT
    from repro.workloads.initial import random_peer_ids

    seq = SeedSequence(SEED).child("smoke-traffic", n=N)
    net = build_ideal_network(N, seq.child("build").seed(), engine="columnar")
    store = KeyValueStore(ReChordRouter(net))
    plane = TrafficPlane(net, store=store)
    generator = WorkloadGenerator(
        plane,
        rate=4.0,
        op_mix=((OP_LOOKUP, 0.6), (OP_GET, 0.2), (OP_PUT, 0.2)),
        key_universe=128,
        popularity="zipf",
        deadline=40,
        seed=seq.child("workload").seed(),
    )
    generator.active = traffic
    rng = seq.child("churn").rng()
    rule_steps = 0
    round_no = 0
    while round_no < rounds or plane.collector.outstanding:
        if round_no == 8:
            join_id = random_peer_ids(1, rng, net.space)[0]
            while join_id in net.peers:
                join_id = random_peer_ids(1, rng, net.space)[0]
            net.join(join_id, rng.choice(net.peer_ids))
        if round_no == 16:
            net.crash(rng.choice(net.peer_ids))
        if round_no == ROUNDS:
            generator.active = False
        plane.run_round()
        rule_steps += net.activity_stats()[0]
        round_no += 1
    return plane, round_no, rule_steps


def measure() -> dict:
    t0 = time.perf_counter()
    plane, rounds_run, rule_steps = campaign(traffic=True, rounds=ROUNDS)
    elapsed = time.perf_counter() - t0
    # the traffic-free twin: same overlay events, same number of rounds
    _, _, idle_rule_steps = campaign(traffic=False, rounds=rounds_run)
    summary = plane.collector.summary()
    return {
        "n": N,
        "rounds": ROUNDS,
        "completed": summary["completed"],
        "outcomes": summary["outcomes"],
        "violations": summary["violations"],
        "success_rate": summary["success_rate"],
        "rule_steps": rule_steps,
        "idle_twin_rule_steps": idle_rule_steps,
        "ops_per_sec": round(summary["completed"] / elapsed, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    parser.add_argument(
        "--allowed-regression",
        type=float,
        default=3.0,
        help="maximum slowdown factor vs. the baseline ops/sec (default 3x)",
    )
    args = parser.parse_args(argv)

    result = measure()
    print("measured:", json.dumps(result))

    # machine-independent lane gate: application messages never run the
    # rule pipeline, so the campaign executes exactly the rule steps of
    # its traffic-free twin
    if result["rule_steps"] != result["idle_twin_rule_steps"]:
        print(
            f"FAIL: {result['rule_steps']} rule steps executed with traffic, "
            f"{result['idle_twin_rule_steps']} by the traffic-free twin "
            "(application messages dirtied the overlay)"
        )
        return 1

    if args.update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline))

    # machine-independent exact checks: seeded run, exact delivery census
    for key in ("completed", "outcomes", "violations"):
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(traffic-plane behavior changed)"
            )
            return 1
    floor = baseline["ops_per_sec"] / args.allowed_regression
    if result["ops_per_sec"] < floor:
        print(
            f"FAIL: {result['ops_per_sec']} ops/sec is more than "
            f"{args.allowed_regression}x below baseline {baseline['ops_per_sec']}"
        )
        return 1
    print(
        f"OK: {result['ops_per_sec']} ops/sec "
        f"(floor {floor:.2f}, baseline {baseline['ops_per_sec']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
