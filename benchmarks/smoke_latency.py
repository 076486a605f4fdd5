#!/usr/bin/env python
"""CI smoke gate: one latency-model campaign, exact round/ops census.

Runs the ``jitter-storm`` campaign (bounded per-message delivery
reordering on every link plus a churn burst, mixed traffic flowing,
jitter persisting through recovery) at n=32 on the default kernel and
checks two classes of properties against
``benchmarks/baseline_latency.json``:

* **machine-independent exact checks** — the campaign and every delay
  draw are seeded (BLAKE2-keyed, never builtin ``hash``), so the
  recovery round count, final-configuration digest, event census,
  completed-op count, outcome census and the wire-delay census must
  match the baseline exactly (any drift means the delivery engine, the
  delivery-queue exactness rules, traffic or kernel behavior changed);
* **closure under latency** (machine-independent, no baseline entry) —
  the campaign ends stable with the jitter still installed, so its last
  round must have executed nobody and replayed every surviving peer:
  matured steady mail dirties no one;
* **throughput floor** — campaign rounds/sec must stay within
  ``allowed_regression`` (default 3x) of the baseline.

Usage::

    PYTHONPATH=src python benchmarks/smoke_latency.py            # gate
    PYTHONPATH=src python benchmarks/smoke_latency.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_latency.json"
SCENARIO = "jitter-storm"
N = 32
SEED = 2026


def measure() -> tuple:
    """Run the campaign; returns ``(baseline-shaped result, closure)``."""
    from repro.scenarios import make_scenario, run_scenario

    spec = make_scenario(SCENARIO, n=N, seed=SEED)
    t0 = time.perf_counter()
    report = run_scenario(spec)
    elapsed = time.perf_counter() - t0
    slo = report.slo or {}
    closure = {
        "executed_last_round": report.activity["executed_last_round"],
        "replayed_last_round": report.activity["replayed_last_round"],
        "peers_final": report.peers_final,
    }
    return {
        "scenario": SCENARIO,
        "n": N,
        "seed": SEED,
        "rounds_total": report.rounds_total,
        "recovery_rounds": report.recovery_rounds,
        "stable": report.stable,
        "ideal": report.ideal,
        "event_census": report.event_census,
        "completed": slo.get("completed", 0),
        "outcomes": slo.get("outcomes", {}),
        "violations": slo.get("violations", 0),
        "wire_delay_mean": slo.get("wire_delay_mean", 0),
        "wire_delay_max": slo.get("wire_delay_max", 0),
        "config_digest": report.config_digest,
        "rounds_per_sec": round(report.rounds_total / elapsed, 2),
    }, closure


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

    result, closure = measure()
    print("measured:", json.dumps(result))
    print("closure:", json.dumps(closure))
    if closure["executed_last_round"] != 0 or (
        closure["replayed_last_round"] != closure["peers_final"]
    ):
        print("FAIL: the stable network still executes peers under latency")
        return 1

    if args.update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline))

    # machine-independent exact checks: seeded campaign, exact census
    for key in (
        "rounds_total",
        "recovery_rounds",
        "stable",
        "ideal",
        "event_census",
        "completed",
        "outcomes",
        "violations",
        "wire_delay_mean",
        "wire_delay_max",
        "config_digest",
    ):
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(latency-engine behavior changed)"
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
        f"OK: {result['rounds_per_sec']} rounds/sec "
        f"(floor {floor:.2f}, baseline {baseline['rounds_per_sec']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
