#!/usr/bin/env python
"""CI smoke benchmark: post-churn engine throughput gates.

Two gates, each joining one peer into an already-stable network
(built directly in its stable topology, see
``repro.experiments.scaling``) and measuring re-stabilization
throughput in rounds/sec:

* ``incremental`` at n=256 — the historical dirty-set kernel gate (the
  key predates the columnar kernel; it now builds the default engine);
* ``columnar`` at n=4096 — the large-N size the columnar engine exists
  for (the full-scan kernel is not even practical at this size; the
  ideal-state build dominates the gate's wall-clock).

Fails (exit 1) if throughput regresses more than ``allowed_regression``
(default 3x) below the checked-in baseline, if the re-stabilization
round count deviates at all (the kernels are deterministic), or if the
executed-peer fraction grows beyond 1.5x baseline (replay/dirty-set
effectiveness).  Both gates run the batched rule pipeline
(``repro.core.rules_batched``); the exact round counts were recorded
under the scalar one, so they also pin the two pipelines together.
Each gate also prints the hit shares of that pipeline's per-level memo
over the post-churn run — counts, identical on every machine — and
fails below ``MEMO_HIT_FLOOR`` (rules 3–6: a post-churn step re-runs
them on every level of a dirty peer, and all but the touched levels must
hit) or ``APPLY_HIT_FLOOR`` (the apply-inbox landing: of the levels that
received mail, all but those whose mail or pointers changed).

Usage::

    PYTHONPATH=src python benchmarks/smoke_scaling.py              # both gates
    PYTHONPATH=src python benchmarks/smoke_scaling.py --quick      # n=256 only
    PYTHONPATH=src python benchmarks/smoke_scaling.py --update     # re-baseline

The baselines live in ``benchmarks/baseline_engine.json``, one entry
per gate keyed by engine name.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_engine.json"
SEED = 2011
#: minimum share of per-level memo lookups that hit, post-churn
MEMO_HIT_FLOOR = 0.8
APPLY_HIT_FLOOR = 0.7

#: the gates: baseline key -> network size (both build the default engine)
GATES = {"incremental": 256, "columnar": 4096}


def measure(gate: str) -> tuple:
    """One gate's ``(baseline-shaped result, rules 3-6 memo hit share,
    apply-inbox memo hit share)``."""
    from repro.experiments.scaling import _post_churn_restabilize, build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.workloads.initial import random_peer_ids

    n = GATES[gate]
    seq = SeedSequence(SEED).child("smoke", n=n)
    net = build_ideal_network(n, seq.child("build").seed())
    rng = seq.child("join").rng()
    join_id = random_peer_ids(1, rng, net.space)[0]
    while join_id in net.peers:
        join_id = random_peer_ids(1, rng, net.space)[0]
    gateway = rng.choice(net.peer_ids)
    stepper = net.scheduler._batch_stepper
    before = stepper.memo_counts()
    report, seconds, frac = _post_churn_restabilize(net, join_id, gateway, 2_000)
    lookups = {
        phase: (h - before[phase][0], m - before[phase][1])
        for phase, (h, m) in stepper.memo_counts().items()
    }
    landed, relanded = lookups.pop("apply_inbox")
    hits = sum(h for h, _m in lookups.values())
    misses = sum(m for _h, m in lookups.values())
    result = {
        "n": n,
        "rounds": report.rounds_executed,
        "rounds_per_sec": round(report.rounds_executed / seconds, 2),
        "executed_fraction": round(frac, 4),
    }
    return result, round(hits / (hits + misses), 4), round(landed / (landed + relanded), 4)


def check(gate: str, result: dict, baseline: dict, allowed_regression: float) -> bool:
    """One gate's verdict; prints the reason on failure."""
    # machine-independent exact check: the kernel must do the same work
    if result["rounds"] != baseline["rounds"]:
        print(
            f"FAIL[{gate}]: re-stabilization took {result['rounds']} rounds, "
            f"baseline says {baseline['rounds']} (kernel behavior changed)"
        )
        return False
    # replay/dirty-set effectiveness: a kernel regression that re-executes
    # far more peers per round can hide behind fast CI hardware, so gate
    # the deterministic executed fraction too (small headroom for
    # wake-policy tweaks; a jump toward 1.0 means tracking is broken)
    if result["executed_fraction"] > baseline["executed_fraction"] * 1.5:
        print(
            f"FAIL[{gate}]: executed fraction {result['executed_fraction']} is more "
            f"than 1.5x baseline {baseline['executed_fraction']} (tracking regressed)"
        )
        return False
    floor = baseline["rounds_per_sec"] / allowed_regression
    if result["rounds_per_sec"] < floor:
        print(
            f"FAIL[{gate}]: {result['rounds_per_sec']} rounds/sec is more than "
            f"{allowed_regression}x below baseline {baseline['rounds_per_sec']}"
        )
        return False
    print(
        f"OK[{gate}]: {result['rounds_per_sec']} rounds/sec "
        f"(floor {floor:.2f}, baseline {baseline['rounds_per_sec']})"
    )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    parser.add_argument(
        "--quick", action="store_true", help="run only the n=256 gate"
    )
    parser.add_argument(
        "--allowed-regression",
        type=float,
        default=3.0,
        help="maximum slowdown factor vs. the baseline rounds/sec (default 3x)",
    )
    args = parser.parse_args(argv)

    gates = ["incremental"] if args.quick else list(GATES)
    results = {}
    ok = True
    for gate in gates:
        results[gate], hit_share, apply_share = measure(gate)
        print(f"measured[{gate}]:", json.dumps(results[gate]))
        print(f"memo[{gate}]: per-level hit share {hit_share} (floor {MEMO_HIT_FLOOR})")
        if hit_share < MEMO_HIT_FLOOR:
            print(f"FAIL[{gate}]: rules 3-6 recompute levels whose inputs did not change")
            ok = False
        print(f"memo[{gate}]: apply-inbox hit share {apply_share} (floor {APPLY_HIT_FLOOR})")
        if apply_share < APPLY_HIT_FLOOR:
            print(f"FAIL[{gate}]: apply-inbox re-lands levels whose mail did not change")
            ok = False

    baselines = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}

    if args.update or not baselines:
        baselines.update(results)
        BASELINE_PATH.write_text(json.dumps(baselines, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0 if ok else 1

    for gate in gates:
        if gate not in baselines:
            print(f"FAIL[{gate}]: no baseline entry (run with --update)")
            ok = False
            continue
        print(f"baseline[{gate}]:", json.dumps(baselines[gate]))
        ok = check(gate, results[gate], baselines[gate], args.allowed_regression) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
