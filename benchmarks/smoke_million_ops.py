#!/usr/bin/env python
"""CI smoke benchmark: the streaming traffic plane at ~10^5 ops, n=256.

Scaled-down twin of ``benchmarks/run_million_ops.py`` (the recorded
10^6-op campaign): one seeded high-rate campaign with a churn burst is
run twice in the same process — streaming collector first, then list
mode on identical seeds.  Checks against the checked-in
``benchmarks/baseline_million.json``:

* **machine-independent exact checks** — completed-op count, outcome
  census and violation count of the streaming run must match the
  baseline exactly (the arrival stream is seeded and batched injection
  is stream-identical by contract);
* **same-run differential** — the streaming summary must agree with the
  list-mode summary on every exact counter key, in-process, at scale
  (the unit-scale version lives in ``tests/test_traffic_streaming.py``);
* **bounded memory** — the streaming collector must hold exactly its
  reservoir of completions (machine-independent), and the process
  peak RSS measured right after the streaming run must stay under a
  generous ceiling (catches accidental O(ops) retention);
* **same-run throughput floor** — streaming must not be slower than
  list mode beyond a small tolerance; both runs share the process and
  the machine, so the comparison is machine-independent.

Usage::

    PYTHONPATH=src python benchmarks/smoke_million_ops.py            # gate
    PYTHONPATH=src python benchmarks/smoke_million_ops.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_million.json"
N = 256
SEED = 20110607
ROUNDS = 48
RATE = 1500.0
RESERVOIR = 1024
#: streaming may not run slower than list mode by more than this factor
#: (same process, same machine: the comparison is hardware-independent;
#: the margin absorbs the first-campaign warmup the streaming run pays
#: for going first — the RSS high-water check forces that order)
THROUGHPUT_TOLERANCE = 0.80
#: peak-RSS ceiling (MiB) for the streaming campaign, with headroom for
#: interpreter/platform variance — the hard memory contract is the
#: reservoir assertion, this catches gross O(ops) retention regressions
RSS_CEILING_MIB = 1024


def campaign(mode: str) -> dict:
    """One seeded churny high-rate campaign; returns summary + timings."""
    from repro.experiments.scaling import build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.traffic import TrafficPlane, WorkloadGenerator
    from repro.workloads.initial import random_peer_ids

    seq = SeedSequence(SEED).child("smoke-million", n=N)
    net = build_ideal_network(N, seq.child("build").seed(), engine="columnar")
    plane = TrafficPlane(net, collector_mode=mode, reservoir_size=RESERVOIR)
    WorkloadGenerator(
        plane,
        rate=RATE,
        key_universe=max(256, N),
        popularity="zipf",
        deadline=40,
        seed=seq.child("workload").seed(),
    )
    rng = seq.child("churn").rng()
    t0 = time.perf_counter()
    for round_no in range(ROUNDS):
        if round_no == 12:
            join_id = random_peer_ids(1, rng, net.space)[0]
            while join_id in net.peers:
                join_id = random_peer_ids(1, rng, net.space)[0]
            net.join(join_id, rng.choice(net.peer_ids))
        if round_no == 24:
            net.crash(rng.choice(net.peer_ids))
        plane.run_round()
    plane.generator.active = False
    plane.drain()
    elapsed = time.perf_counter() - t0
    summary = plane.collector.summary()
    return {
        "mode": mode,
        "summary": summary,
        "resident_completions": len(plane.collector.completed),
        "elapsed": elapsed,
        "ops_per_sec": round(summary["completed"] / elapsed, 2),
    }


def peak_rss_mib() -> float:
    import resource

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kib / 1024.0


#: summary keys that must agree bit-for-bit between the two modes
EXACT_KEYS = (
    "issued", "completed", "outstanding", "success_rate", "violations",
    "late_replies", "outcomes", "latency_mean", "latency_max",
    "wire_delay_mean", "wire_delay_max", "hops_mean", "hops_max",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline JSON")
    parser.add_argument(
        "--throughput-tolerance",
        type=float,
        default=THROUGHPUT_TOLERANCE,
        help="minimum streaming/list ops-per-sec ratio (default %(default)s)",
    )
    parser.add_argument(
        "--rss-ceiling-mib",
        type=float,
        default=RSS_CEILING_MIB,
        help="peak-RSS ceiling for the streaming campaign (default %(default)s)",
    )
    args = parser.parse_args(argv)

    # streaming first: ru_maxrss is a process high-water mark, so the
    # ceiling is only meaningful before the list-mode run inflates it
    streaming = campaign("streaming")
    rss_mib = peak_rss_mib()
    listing = campaign("list")
    s_sum, l_sum = streaming["summary"], listing["summary"]

    result = {
        "n": N,
        "rounds": ROUNDS,
        "rate": RATE,
        "completed": s_sum["completed"],
        "outcomes": s_sum["outcomes"],
        "violations": s_sum["violations"],
        "success_rate": s_sum["success_rate"],
        "streaming_ops_per_sec": streaming["ops_per_sec"],
        "list_ops_per_sec": listing["ops_per_sec"],
        "peak_rss_mib": round(rss_mib, 1),
    }
    print("measured:", json.dumps(result))

    # -- same-run checks (no baseline needed) ---------------------------
    for key in EXACT_KEYS:
        if (key in s_sum or key in l_sum) and s_sum.get(key) != l_sum.get(key):
            print(
                f"FAIL: streaming/list divergence on exact key {key}: "
                f"{s_sum.get(key)!r} != {l_sum.get(key)!r}"
            )
            return 1
    if streaming["resident_completions"] > RESERVOIR:
        print(
            f"FAIL: streaming collector retained "
            f"{streaming['resident_completions']} completions "
            f"(> reservoir {RESERVOIR}) — memory is not O(reservoir)"
        )
        return 1
    if s_sum["completed"] <= RESERVOIR:
        print("FAIL: campaign too small to exercise the reservoir bound")
        return 1
    if rss_mib > args.rss_ceiling_mib:
        print(
            f"FAIL: streaming campaign peak RSS {rss_mib:.1f} MiB exceeds "
            f"ceiling {args.rss_ceiling_mib} MiB"
        )
        return 1
    ratio = streaming["ops_per_sec"] / max(1e-9, listing["ops_per_sec"])
    if ratio < args.throughput_tolerance:
        print(
            f"FAIL: streaming throughput {streaming['ops_per_sec']} ops/sec is "
            f"{ratio:.2f}x of list mode {listing['ops_per_sec']} "
            f"(floor {args.throughput_tolerance}x)"
        )
        return 1

    if args.update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline))
    for key in ("completed", "outcomes", "violations", "success_rate"):
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(traffic-plane behavior changed)"
            )
            return 1
    print(
        f"OK: census exact; streaming {streaming['ops_per_sec']} vs list "
        f"{listing['ops_per_sec']} ops/sec ({ratio:.2f}x, floor "
        f"{args.throughput_tolerance}x); reservoir "
        f"{streaming['resident_completions']}/{RESERVOIR}; "
        f"peak RSS {rss_mib:.1f} MiB (ceiling {args.rss_ceiling_mib})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
