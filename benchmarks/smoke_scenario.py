#!/usr/bin/env python
"""CI smoke gate: one small scenario campaign, exact round/ops census.

Runs the ``seam-crash`` campaign (crash of both ring-seam extremes with
mixed traffic flowing) at n=64 on the default kernel and checks two
classes of properties against ``benchmarks/baseline_scenario.json``:

* **machine-independent exact checks** — the campaign is fully seeded,
  so the recovery round count, the final-configuration digest, the
  event census, the completed-op count and the outcome census must
  match the baseline exactly (any drift means scenario-engine, traffic
  or kernel behavior changed);
* **throughput floor** — campaign rounds/sec must stay within
  ``allowed_regression`` (default 3x) of the baseline.

Usage::

    PYTHONPATH=src python benchmarks/smoke_scenario.py            # gate
    PYTHONPATH=src python benchmarks/smoke_scenario.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_scenario.json"
SCENARIO = "seam-crash"
N = 64
SEED = 2011


def measure() -> dict:
    from repro.scenarios import make_scenario, run_scenario

    spec = make_scenario(SCENARIO, n=N, seed=SEED)
    t0 = time.perf_counter()
    report = run_scenario(spec)
    elapsed = time.perf_counter() - t0
    slo = report.slo or {}
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
        "config_digest": report.config_digest,
        "rounds_per_sec": round(report.rounds_total / elapsed, 2),
    }


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

    result = measure()
    print("measured:", json.dumps(result))

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
        "config_digest",
    ):
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(scenario-engine behavior changed)"
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
