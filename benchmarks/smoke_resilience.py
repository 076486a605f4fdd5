#!/usr/bin/env python
"""CI smoke gate: the resilient request plane, off-equivalence + survival.

Two independent checks, both fully seeded and machine-independent:

1. **off-equivalence** — the exact campaign ``smoke_traffic.py`` gates,
   re-run through a :class:`TrafficPlane` constructed with every
   resilience knob *explicitly passed at its default* (``max_attempts=1``,
   ``retry_backoff=4``, ``hedge_after=None``, ``route_redundancy=1``,
   plus a non-zero ``retry_seed``).  The census must equal the
   checked-in ``benchmarks/baseline_traffic.json`` exactly: a disabled
   resilience plane is bit-for-bit the pre-resilience plane, so every
   historical baseline stands unregenerated.

2. **mass-failure survival** — the ``mass-failure`` library scenario at
   n=256 (a seeded 50% crash wave mid-traffic, per-attempt deadline 12,
   ``max_attempts=6`` with seeded backoff, ``route_redundancy=2``).
   The failure-window survival (ops issued during the outage that
   eventually routed) must clear ``SURVIVAL_FLOOR``, and the full
   census — config digest, survival table, outcome counts, retry and
   attempt histograms — must match ``benchmarks/baseline_resilience.json``
   exactly.  A throughput floor (3x) guards against pathological
   slowdowns.

Usage::

    PYTHONPATH=src python benchmarks/smoke_resilience.py            # gate
    PYTHONPATH=src python benchmarks/smoke_resilience.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_resilience.json"
TRAFFIC_BASELINE_PATH = Path(__file__).resolve().parent / "baseline_traffic.json"

#: part 1 mirrors smoke_traffic.py exactly (same constants, same seeds)
N_OFF = 256
SEED_OFF = 2011
ROUNDS_OFF = 40

#: part 2: the mass-failure survival campaign
N_SURVIVAL = 256
SEED_SURVIVAL = 2011
SURVIVAL_FLOOR = 0.99


def measure_off_equivalence() -> dict:
    """The smoke_traffic campaign with resilience knobs passed (at their
    defaults) — must reproduce baseline_traffic.json bit-for-bit."""
    from repro.dht.lookup import ReChordRouter
    from repro.dht.storage import KeyValueStore
    from repro.experiments.scaling import build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.traffic import TrafficPlane, WorkloadGenerator
    from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT
    from repro.workloads.initial import random_peer_ids

    seq = SeedSequence(SEED_OFF).child("smoke-traffic", n=N_OFF)
    net = build_ideal_network(N_OFF, seq.child("build").seed())
    store = KeyValueStore(ReChordRouter(net))
    plane = TrafficPlane(
        net,
        store=store,
        # the whole point: knobs present, features off, behavior identical
        max_attempts=1,
        retry_backoff=4,
        hedge_after=None,
        route_redundancy=1,
        retry_seed=seq.child("retry").seed(),
    )
    WorkloadGenerator(
        plane,
        rate=4.0,
        op_mix=((OP_LOOKUP, 0.6), (OP_GET, 0.2), (OP_PUT, 0.2)),
        key_universe=128,
        popularity="zipf",
        deadline=40,
        seed=seq.child("workload").seed(),
    )
    rng = seq.child("churn").rng()
    for round_no in range(ROUNDS_OFF):
        if round_no == 8:
            join_id = random_peer_ids(1, rng, net.space)[0]
            while join_id in net.peers:
                join_id = random_peer_ids(1, rng, net.space)[0]
            net.join(join_id, rng.choice(net.peer_ids))
        if round_no == 16:
            net.crash(rng.choice(net.peer_ids))
        plane.run_round()
    plane.generator.active = False
    plane.drain()
    summary = plane.collector.summary()
    return {
        "completed": summary["completed"],
        "outcomes": summary["outcomes"],
        "violations": summary["violations"],
    }


def measure_survival() -> dict:
    """The mass-failure campaign at n=256: survival census + digest."""
    from repro.scenarios import make_scenario, run_scenario

    spec = make_scenario("mass-failure", n=N_SURVIVAL, seed=SEED_SURVIVAL)
    t0 = time.perf_counter()
    report = run_scenario(spec)
    elapsed = time.perf_counter() - t0
    slo = report.slo or {}
    failure = next(
        (row for row in report.survival_by_window if "crash_wave" in row[0]),
        None,
    )
    if failure is None:
        raise RuntimeError(
            f"no crash window in survival table {report.survival_by_window!r}"
        )
    window, issued, routed = failure
    return {
        "scenario": "mass-failure",
        "n": N_SURVIVAL,
        "seed": SEED_SURVIVAL,
        "max_attempts": spec.traffic.max_attempts,
        "route_redundancy": spec.traffic.route_redundancy,
        "rounds_total": report.rounds_total,
        "recovery_rounds": report.recovery_rounds,
        "event_census": report.event_census,
        "survival_by_window": [list(row) for row in report.survival_by_window],
        "failure_window": window,
        "failure_issued": issued,
        "failure_routed": routed,
        "failure_survival": round(routed / issued, 4) if issued else 0.0,
        "completed": slo.get("completed", 0),
        "outcomes": slo.get("outcomes", {}),
        "retries": slo.get("retries", 0),
        "attempts": slo.get("attempts", {}),
        "first_attempt_success": slo.get("first_attempt_success", 0),
        "eventual_success": slo.get("eventual_success", 0),
        "config_digest": report.config_digest,
        "rounds_per_sec": round(report.rounds_total / elapsed, 2),
    }


#: survival-census keys compared exactly against the baseline
EXACT_KEYS = (
    "max_attempts",
    "route_redundancy",
    "rounds_total",
    "recovery_rounds",
    "event_census",
    "survival_by_window",
    "failure_window",
    "failure_issued",
    "failure_routed",
    "failure_survival",
    "completed",
    "outcomes",
    "retries",
    "attempts",
    "first_attempt_success",
    "eventual_success",
    "config_digest",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    parser.add_argument(
        "--allowed-regression",
        type=float,
        default=3.0,
        help="maximum slowdown factor vs. the baseline rounds/sec (default 3x)",
    )
    args = parser.parse_args(argv)

    # ---- part 1: resilience-off equivalence vs. the traffic baseline ----
    off = measure_off_equivalence()
    print("off-equivalence measured:", json.dumps(off))
    if not TRAFFIC_BASELINE_PATH.exists():
        print(f"FAIL: {TRAFFIC_BASELINE_PATH} missing (run smoke_traffic.py --update)")
        return 1
    traffic_baseline = json.loads(TRAFFIC_BASELINE_PATH.read_text())
    for key in ("completed", "outcomes", "violations"):
        if off[key] != traffic_baseline[key]:
            print(
                f"FAIL: off-equivalence {key} = {off[key]!r}, "
                f"baseline_traffic says {traffic_baseline[key]!r} "
                "(a disabled resilience plane must be bit-for-bit the old plane)"
            )
            return 1
    print("OK: resilience-off census equals baseline_traffic.json exactly")

    # ---- part 2: mass-failure survival census ---------------------------
    result = measure_survival()
    print("survival measured:", json.dumps(result))

    if result["failure_survival"] < SURVIVAL_FLOOR:
        print(
            f"FAIL: failure-window survival {result['failure_survival']} "
            f"below the floor {SURVIVAL_FLOOR} "
            f"({result['failure_routed']}/{result['failure_issued']} ops)"
        )
        return 1

    if args.update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline))
    for key in EXACT_KEYS:
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(resilient-plane behavior changed)"
            )
            return 1
    floor = baseline["rounds_per_sec"] / args.allowed_regression
    if result["rounds_per_sec"] < floor:
        print(
            f"FAIL: {result['rounds_per_sec']} rounds/sec is more than "
            f"{args.allowed_regression}x below baseline {baseline['rounds_per_sec']}"
        )
        return 1
    print(
        f"OK: survival {result['failure_survival']:.2%} >= {SURVIVAL_FLOOR:.0%}, "
        f"{result['rounds_per_sec']} rounds/sec "
        f"(floor {floor:.2f}, baseline {baseline['rounds_per_sec']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
