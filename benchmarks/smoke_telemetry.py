#!/usr/bin/env python
"""CI smoke gate: the telemetry plane's census and overhead contract.

Runs the ``flash-crowd`` campaign at n=32 on the columnar kernel with a
telemetry recorder attached and checks four classes of properties
against ``benchmarks/baseline_telemetry.json``:

* **machine-independent exact checks** — the counter census is a pure
  function of the seeded run: rounds, messages sent, drop-filter hits,
  the envelope census by payload type, the per-rule firing census, the
  kernel's actor-round total and dirty-set peak and the per-window drop
  totals must all match the baseline exactly (any drift means
  instrumentation leaked into behavior, or kernel/scenario behavior
  changed);
* **lane check** — the execute side of the kernel split must equal that
  of the same campaign with the traffic rate at zero: application
  messages ride the columnar kernel's lane and never run the rule
  pipeline (the baseline's ``kernel.executed`` predates the lane, when
  every traffic-touched peer executed twice, so it is only an upper
  bound now);
* **zero-overhead contract** — the same campaign run *without*
  telemetry must produce a comparison-equal report (identical
  config digest included): observation must never gate behavior;
* **throughput floor** — telemetry-*disabled* campaign rounds/sec must
  stay within ``allowed_regression`` (default 3x) of the baseline, so
  the instrumentation points cannot quietly tax the disabled path.

Usage::

    PYTHONPATH=src python benchmarks/smoke_telemetry.py            # gate
    PYTHONPATH=src python benchmarks/smoke_telemetry.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_telemetry.json"
SCENARIO = "flash-crowd"
N = 32
SEED = 2011
ENGINE = "columnar"


def measure() -> dict:
    from dataclasses import replace

    from repro.scenarios import make_scenario, run_scenario
    from repro.telemetry import TelemetryRecorder

    spec = make_scenario(SCENARIO, n=N, seed=SEED)
    recorder = TelemetryRecorder()
    observed = run_scenario(spec, engine=ENGINE, telemetry=recorder)

    # the same campaign without telemetry: behavior must be identical,
    # and its wall clock is the one the throughput floor guards (the
    # disabled path is the one every other benchmark pays for)
    t0 = time.perf_counter()
    plain = run_scenario(spec, engine=ENGINE)
    elapsed = time.perf_counter() - t0

    # the traffic-free twin: same overlay events, no application messages
    idle = TelemetryRecorder()
    run_scenario(
        spec.with_overrides(traffic=replace(spec.traffic, rate=0.0)),
        engine=ENGINE, telemetry=idle,
    )

    census = recorder.census()
    return {
        "scenario": SCENARIO,
        "n": N,
        "seed": SEED,
        "engine": ENGINE,
        "rounds": census["rounds"],
        "sent": census["sent"],
        "dropped": census["dropped"],
        "messages": census["messages"],
        "rules": census["rules"],
        "kernel": recorder.kernel_stats(),
        "idle_twin_executed": idle.kernel_stats()["executed"],
        "dropped_by_window": [list(w) for w in observed.dropped_by_window],
        "traces": len(recorder.traces),
        "config_digest": observed.config_digest,
        "telemetry_is_free": plain == observed,
        "rounds_per_sec": round(plain.rounds_total / elapsed, 2),
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

    if not result["telemetry_is_free"]:
        print(
            "FAIL: the telemetry-enabled report differs from the plain run "
            "(instrumentation gated behavior)"
        )
        return 1

    kernel = result["kernel"]
    if kernel["executed"] != result["idle_twin_executed"]:
        print(
            f"FAIL: {kernel['executed']} rule steps executed with traffic, "
            f"{result['idle_twin_executed']} by the traffic-free twin "
            "(application messages dirtied the overlay)"
        )
        return 1

    if args.update or not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    print("baseline:", json.dumps(baseline))

    # machine-independent exact checks: seeded campaign, exact censuses
    for key in (
        "rounds",
        "sent",
        "dropped",
        "messages",
        "rules",
        "dropped_by_window",
        "traces",
        "config_digest",
    ):
        if result[key] != baseline[key]:
            print(
                f"FAIL: {key} = {result[key]!r}, baseline says {baseline[key]!r} "
                "(telemetry census drifted)"
            )
            return 1
    # the kernel split: actor-rounds and the dirty peak are lane-invariant
    # and exact; the lane check above pins ``executed`` itself
    recorded = baseline["kernel"]
    if (
        kernel["executed"] + kernel["replayed"] != recorded["executed"] + recorded["replayed"]
        or kernel["dirty_peak"] != recorded["dirty_peak"]
        or kernel["executed"] > recorded["executed"]
    ):
        print(f"FAIL: kernel = {kernel!r}, baseline says {recorded!r} (kernel split drifted)")
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
