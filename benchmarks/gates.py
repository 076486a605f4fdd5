#!/usr/bin/env python
"""CI gate harness: every smoke gate of the repo, from one case table.

Each case runs one seeded campaign in a fresh spawned interpreter (so
peak RSS and timings cannot leak between cases) and is judged against
its entry in ``benchmarks/gates.json``: its **exact keys** (seeded
censuses: any drift means behavior changed) must equal the entry's, its
**checks** (properties of the run itself, and bounds relative to the
entry) must hold, its throughput may not fall more than ``SLOWDOWN``
times below the entry's, and its peak RSS may not exceed its ceiling.

Usage::

    PYTHONPATH=src python benchmarks/gates.py                    # every case
    PYTHONPATH=src python benchmarks/gates.py scenario latency   # some cases
    PYTHONPATH=src python benchmarks/gates.py traffic --update   # re-baseline

Every selected case runs even after another fails; each prints one
``OK[case]`` or ``FAIL[case]: reason`` line and the exit status is 1 if
any failed.  A case without a baseline entry fails.  ``--update`` is the
only writer: it records what the named cases measure, provided their
checks hold against that measurement itself.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

BASELINE_PATH = Path(__file__).resolve().parent / "gates.json"
#: a throughput key may fall at most this many times below its baseline
SLOWDOWN = 3.0


# ----------------------------------------------------------------------
# measures (each runs in a spawned child and returns a JSON-able dict)
# ----------------------------------------------------------------------
def _restabilize(n: int) -> dict:
    """Join one peer into an n-peer network built directly in its stable
    topology and time the re-stabilization, with the batched pipeline's
    reuse shares over the post-churn run: the share of level runs of
    rules 3-6 and of the apply-inbox landing that were not recomputed —
    a memo hit or a carried level (a carried level is never looked up)."""
    from repro.experiments.scaling import _post_churn_restabilize, build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.workloads.initial import random_peer_ids

    seq = SeedSequence(2011).child("smoke", n=n)
    net = build_ideal_network(n, seq.child("build").seed())
    rng = seq.child("join").rng()
    join_id = random_peer_ids(1, rng, net.space)[0]
    while join_id in net.peers:
        join_id = random_peer_ids(1, rng, net.space)[0]
    gateway = rng.choice(net.peer_ids)
    stepper = net.scheduler._batch_stepper
    before = stepper.memo_counts()
    report, seconds, frac = _post_churn_restabilize(net, join_id, gateway, 2_000)
    #: phase -> (levels reused, levels recomputed)
    runs = {
        phase: (h + c - before[phase][0] - before[phase][2], m - before[phase][1])
        for phase, (h, m, c) in stepper.memo_counts().items()
    }
    kept, relanded = runs.pop("apply_inbox")
    reused = sum(r for r, _m in runs.values())
    recomputed = sum(m for _r, m in runs.values())
    return {
        "n": n,
        "rounds": report.rounds_executed,
        "rounds_per_sec": round(report.rounds_executed / seconds, 2),
        "executed_fraction": round(frac, 4),
        "memo_hit_share": round(reused / (reused + recomputed), 4),
        "apply_hit_share": round(kept / (kept + relanded), 4),
    }


def _campaign(
    tag: str, seed: int, n: int, rounds: int, join_at: int, crash_at: int,
    workload: dict, traffic: bool = True, store: bool = False,
    delivery: Optional[dict] = None, observer: Optional[Callable] = None, **plane_kw,
) -> tuple:
    """The seeded join + crash traffic campaign: a stable n-peer columnar
    network (under the ``delivery`` model if one is given), a generator
    injecting for the first ``rounds`` rounds (never if ``traffic`` is
    false), one join at ``join_at`` and one crash at ``crash_at``, then
    rounds until the op ledger drains.  ``plane_kw`` go to
    :class:`TrafficPlane`; ``observer`` sees every completion.  Returns
    ``(plane, rounds run, rule steps executed, seconds spent running
    rounds)``."""
    from repro.dht.lookup import ReChordRouter
    from repro.dht.storage import KeyValueStore
    from repro.experiments.scaling import build_ideal_network
    from repro.netsim.rng import SeedSequence
    from repro.traffic import TrafficPlane, WorkloadGenerator
    from repro.workloads.initial import random_peer_ids

    seq = SeedSequence(seed).child(tag, n=n)
    net = build_ideal_network(n, seq.child("build").seed(), engine="columnar")
    if delivery is not None:
        net.set_delivery_model(delivery)
    if store:
        plane_kw["store"] = KeyValueStore(ReChordRouter(net))
    plane = TrafficPlane(net, **plane_kw)
    if observer is not None:
        plane.collector.completion_observer = observer
    generator = WorkloadGenerator(plane, seed=seq.child("workload").seed(), **workload)
    rng = seq.child("churn").rng()
    rule_steps = round_no = 0
    t0 = time.perf_counter()
    while round_no < rounds or plane.collector.outstanding:
        if round_no == join_at:
            join_id = random_peer_ids(1, rng, net.space)[0]
            while join_id in net.peers:
                join_id = random_peer_ids(1, rng, net.space)[0]
            net.join(join_id, rng.choice(net.peer_ids))
        if round_no == crash_at:
            net.crash(rng.choice(net.peer_ids))
        generator.active = traffic and round_no < rounds
        plane.run_round()
        rule_steps += net.activity_stats()[0]
        round_no += 1
    return plane, round_no, rule_steps, time.perf_counter() - t0


#: the census a traffic campaign is pinned by
TRAFFIC_CENSUS = ("completed", "outcomes", "violations")


def _traffic() -> dict:
    """Mixed lookup/get/put traffic through a join + crash at n=256, its
    traffic-free twin (same overlay events, same number of rounds), its
    twin through a plane given every resilience knob at its default, and
    the campaign and its traffic-free twin again under a two-round
    constant delay (the tracked loop's lane rule)."""
    from repro.netsim.rng import SeedSequence
    from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT

    run = dict(
        tag="smoke-traffic", seed=2011, n=256, rounds=40, join_at=8, crash_at=16,
        workload=dict(
            rate=4.0, op_mix=((OP_LOOKUP, 0.6), (OP_GET, 0.2), (OP_PUT, 0.2)),
            key_universe=128, popularity="zipf", deadline=40,
        ),
        store=True,
    )
    t0 = time.perf_counter()
    plane, rounds_run, rule_steps, _ = _campaign(**run)
    elapsed = time.perf_counter() - t0
    _, _, idle_steps, _ = _campaign(**dict(run, rounds=rounds_run), traffic=False)
    slow = dict(run, delivery={"kind": "constant", "delay": 2})
    _, slow_rounds, slow_steps, _ = _campaign(**slow)
    _, _, slow_idle_steps, _ = _campaign(**dict(slow, rounds=slow_rounds), traffic=False)
    knobs, *_ = _campaign(
        **run, max_attempts=1, retry_backoff=4, hedge_after=None, route_redundancy=1,
        retry_seed=SeedSequence(2011).child("smoke-traffic", n=256).child("retry").seed(),
    )
    summary = plane.collector.summary()
    off = knobs.collector.summary()
    return {
        "n": 256,
        "rounds": 40,
        **{key: summary[key] for key in TRAFFIC_CENSUS},
        "success_rate": summary["success_rate"],
        "rule_steps": rule_steps,
        "idle_twin_rule_steps": idle_steps,
        "latency_rule_steps": slow_steps,
        "latency_idle_twin_rule_steps": slow_idle_steps,
        "resilience_off": {key: off[key] for key in TRAFFIC_CENSUS},
        "ops_per_sec": round(summary["completed"] / elapsed, 2),
    }


RESERVOIR = 1024


def _record_summary(records: list, collector) -> dict:
    """The summary's counter, latency, wire-delay and hop keys computed
    directly from every completion record; ``outstanding`` and
    ``late_replies`` come from the ledger."""
    from collections import Counter

    from repro.traffic.slo import percentile

    routed = [c for c in records if c.routed]
    lats, wires = [c.latency for c in routed], [c.wire_delay for c in routed]
    hops = [c.hops for c in records if c.hops is not None]
    succeeded, violations = set(), 0
    for c in records:
        violations += not c.routed and (c.origin, c.kid) in succeeded
        if c.routed:
            succeeded.add((c.origin, c.kid))
    return {
        "issued": len(records) + len(collector.outstanding), "completed": len(records),
        "outstanding": len(collector.outstanding),
        "success_rate": round(len(routed) / len(records), 4),
        "violations": violations, "late_replies": collector.late_replies,
        "outcomes": dict(sorted(Counter(c.outcome for c in records).items())),
        "latency_mean": round(sum(lats) / len(lats), 2),
        "latency_p95": percentile(lats, 95), "latency_max": max(lats),
        "wire_delay_mean": round(sum(wires) / len(wires), 2), "wire_delay_max": max(wires),
        "hops_mean": round(sum(hops) / len(hops), 2), "hops_max": max(hops),
    }


def _million_ops() -> dict:
    """A ~72k-op zipf campaign at n=256 with a join + crash; an observer
    records every completion, against which the collector's summary is
    checked."""
    import resource

    records: list = []
    plane, _, _, elapsed = _campaign(
        tag="smoke-million", seed=20110607, n=256, rounds=48, join_at=12, crash_at=24,
        workload=dict(rate=1500.0, key_universe=256, popularity="zipf", deadline=40),
        reservoir_size=RESERVOIR, observer=records.append,
    )
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = plane.collector.summary()
    reference = _record_summary(records, plane.collector)
    return {
        "n": 256,
        "rounds": 48,
        "rate": 1500.0,
        **{key: summary[key] for key in (*TRAFFIC_CENSUS, "success_rate")},
        # (the baseline entry's name for the campaign's throughput)
        "streaming_ops_per_sec": round(summary["completed"] / elapsed, 2),
        "peak_rss_mib": round(rss_mib, 1),
        "resident_completions": len(plane.collector.completed),
        "collector_diff": {
            key: [summary.get(key), want]
            for key, want in reference.items() if summary.get(key) != want
        },
    }


def _scenario(name: str, n: int, seed: int, slo_keys=TRAFFIC_CENSUS, telemetry=None) -> tuple:
    """Run library scenario ``name`` on the default engine; returns
    ``(spec, report, census)``, the census holding the report's recovery
    and final-configuration facts, the SLO keys asked for and the
    campaign's rounds/sec."""
    from repro.scenarios import make_scenario, run_scenario

    spec = make_scenario(name, n=n, seed=seed)
    t0 = time.perf_counter()
    report = run_scenario(spec, telemetry=telemetry)
    elapsed = time.perf_counter() - t0
    return spec, report, {
        "scenario": name,
        "n": n,
        "seed": seed,
        "rounds_total": report.rounds_total,
        "recovery_rounds": report.recovery_rounds,
        "stable": report.stable,
        "ideal": report.ideal,
        "event_census": report.event_census,
        **{key: report.slo[key] for key in slo_keys},
        "config_digest": report.config_digest,
        "rounds_per_sec": round(report.rounds_total / elapsed, 2),
    }


def _seam_crash() -> dict:
    """Both ring-seam extremes crash with mixed traffic flowing, n=64."""
    return _scenario("seam-crash", 64, 2011)[2]


def _jitter_storm() -> dict:
    """Per-message reordering on every link plus a churn burst, n=32; the
    jitter stays installed through recovery."""
    _, report, census = _scenario(
        "jitter-storm", 32, 2026,
        slo_keys=(*TRAFFIC_CENSUS, "wire_delay_mean", "wire_delay_max"),
    )
    census["closure"] = {
        "executed_last_round": report.activity["executed_last_round"],
        "replayed_last_round": report.activity["replayed_last_round"],
        "peers_final": report.peers_final,
    }
    return census


def _flash_crowd() -> dict:
    """The flash-crowd campaign at n=32 with a telemetry recorder, then
    without one (timed: the disabled path is the one everything else
    pays for), then with the traffic rate at zero."""
    from dataclasses import replace

    from repro.scenarios import run_scenario
    from repro.telemetry import TelemetryRecorder

    recorder = TelemetryRecorder()
    spec, observed, _ = _scenario("flash-crowd", 32, 2011, telemetry=recorder)
    _, plain, timed = _scenario("flash-crowd", 32, 2011)
    idle = TelemetryRecorder()
    run_scenario(spec.with_overrides(traffic=replace(spec.traffic, rate=0.0)), telemetry=idle)
    census = recorder.census()
    return {
        "scenario": "flash-crowd",
        "n": 32,
        "seed": 2011,
        "engine": "columnar",
        **{key: census[key] for key in ("rounds", "sent", "dropped", "messages", "rules")},
        "kernel": recorder.kernel_stats(),
        "idle_twin_executed": idle.kernel_stats()["executed"],
        "dropped_by_window": [list(w) for w in observed.dropped_by_window],
        "traces": len(recorder.traces),
        "config_digest": observed.config_digest,
        "telemetry_is_free": plain == observed,
        "rounds_per_sec": timed["rounds_per_sec"],
    }


def _mass_failure() -> dict:
    """A seeded 50% crash wave mid-traffic at n=256 against the resilient
    plane (retries with seeded backoff, redundant routing)."""
    spec, report, census = _scenario(
        "mass-failure", 256, 2011,
        slo_keys=(
            "completed", "outcomes", "retries", "attempts",
            "first_attempt_success", "eventual_success",
        ),
    )
    window, issued, routed = next(
        row for row in report.survival_by_window if "crash_wave" in row[0]
    )
    return {
        **census,
        "max_attempts": spec.traffic.max_attempts,
        "route_redundancy": spec.traffic.route_redundancy,
        "survival_by_window": [list(row) for row in report.survival_by_window],
        "failure_window": window,
        "failure_issued": issued,
        "failure_routed": routed,
        "failure_survival": round(routed / issued, 4) if issued else 0.0,
    }


# ----------------------------------------------------------------------
# the case table
# ----------------------------------------------------------------------
#: ``(holds(result, baseline), why)``: a failing check reports ``why``
#: formatted with the result as ``r`` and the baseline entry as ``b``
Check = Tuple[Callable[[dict, dict], bool], str]


class Case(NamedTuple):
    """One gate; the module docstring says how each field is judged."""

    measure: Callable[[], dict]
    exact: Tuple[str, ...]
    throughput: Optional[str]
    checks: Tuple[Check, ...] = ()
    rss_ceiling_mib: Optional[float] = None


_SCENARIO_EXACT = (
    "rounds_total", "recovery_rounds", "stable", "ideal", "event_census",
    "completed", "outcomes", "violations",
)
_RESTABILIZE_CHECKS = (
    # a kernel re-executing far more peers can hide behind fast hardware;
    # the headroom admits wake-policy tweaks, not broken tracking
    (lambda r, b: r["executed_fraction"] <= b["executed_fraction"] * 1.5,
     "executed fraction {r[executed_fraction]} is more than 1.5x baseline "
     "{b[executed_fraction]} (tracking regressed)"),
    (lambda r, b: r["memo_hit_share"] >= 0.8,
     "rules 3-6 memo hit share {r[memo_hit_share]} below 0.8 "
     "(levels whose inputs did not change are recomputed)"),
    (lambda r, b: r["apply_hit_share"] >= 0.7,
     "apply-inbox memo hit share {r[apply_hit_share]} below 0.7 "
     "(levels whose mail did not change are re-landed)"),
)
_LANE = "application messages dirtied the overlay"

CASES = {
    "restabilize_n256": Case(
        partial(_restabilize, 256), ("rounds",), "rounds_per_sec", _RESTABILIZE_CHECKS,
    ),
    # the large-N size the columnar kernel exists for; its ideal-state
    # build dominates the harness's wall clock
    "restabilize_n4096": Case(
        partial(_restabilize, 4096), ("rounds",), "rounds_per_sec", _RESTABILIZE_CHECKS,
    ),
    "traffic": Case(_traffic, TRAFFIC_CENSUS, "ops_per_sec", (
        (lambda r, b: r["rule_steps"] == r["idle_twin_rule_steps"],
         "{r[rule_steps]} rule steps with traffic, {r[idle_twin_rule_steps]} "
         "without (" + _LANE + ")"),
        (lambda r, b: r["latency_rule_steps"] == r["latency_idle_twin_rule_steps"],
         "under a two-round delay {r[latency_rule_steps]} rule steps with traffic, "
         "{r[latency_idle_twin_rule_steps]} without (" + _LANE + ")"),
        (lambda r, b: r["resilience_off"] == {key: r[key] for key in TRAFFIC_CENSUS},
         "resilience knobs at their defaults give {r[resilience_off]} "
         "(a disabled resilience plane must be the plain plane)"),
    )),
    "scenario": Case(_seam_crash, (*_SCENARIO_EXACT, "config_digest"), "rounds_per_sec"),
    "latency": Case(
        _jitter_storm,
        (*_SCENARIO_EXACT, "wire_delay_mean", "wire_delay_max", "config_digest"),
        "rounds_per_sec",
        ((lambda r, b: r["closure"]["executed_last_round"] == 0
          and r["closure"]["replayed_last_round"] == r["closure"]["peers_final"],
          "closure {r[closure]}: the stable network still executes peers under latency"),),
    ),
    "telemetry": Case(
        _flash_crowd,
        ("rounds", "sent", "dropped", "messages", "rules", "dropped_by_window",
         "traces", "config_digest"),
        "rounds_per_sec",
        (
            (lambda r, b: r["telemetry_is_free"],
             "the telemetry-enabled report differs from the plain run"),
            (lambda r, b: r["kernel"]["executed"] == r["idle_twin_executed"],
             "{r[kernel][executed]} rule steps with traffic, {r[idle_twin_executed]} "
             "without (" + _LANE + ")"),
            # actor-rounds and the dirty peak are exact; the baseline's
            # ``executed`` predates the traffic lane, so it only bounds
            (lambda r, b: r["kernel"]["executed"] + r["kernel"]["replayed"]
             == b["kernel"]["executed"] + b["kernel"]["replayed"]
             and r["kernel"]["dirty_peak"] == b["kernel"]["dirty_peak"]
             and r["kernel"]["executed"] <= b["kernel"]["executed"],
             "kernel = {r[kernel]}, baseline says {b[kernel]} (kernel split drifted)"),
        ),
    ),
    "million_ops": Case(
        _million_ops, (*TRAFFIC_CENSUS, "success_rate"), "streaming_ops_per_sec",
        (
            (lambda r, b: not r["collector_diff"],
             "summary differs from the completion records [summary, records]: "
             "{r[collector_diff]}"),
            (lambda r, b: r["resident_completions"] <= RESERVOIR < r["completed"],
             "{r[resident_completions]} completions resident after {r[completed]} "
             f"(the collector must hold only its reservoir of {RESERVOIR})"),
        ),
        rss_ceiling_mib=1024,
    ),
    "mass_failure": Case(
        _mass_failure,
        ("max_attempts", "route_redundancy", "rounds_total", "recovery_rounds",
         "event_census", "survival_by_window", "failure_window", "failure_issued",
         "failure_routed", "failure_survival", "completed", "outcomes", "retries",
         "attempts", "first_attempt_success", "eventual_success", "config_digest"),
        "rounds_per_sec",
        ((lambda r, b: r["failure_survival"] >= 0.99,
          "failure-window survival {r[failure_survival]} below 0.99 "
          "({r[failure_routed]}/{r[failure_issued]} ops)"),),
    ),
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def check(name: str, result: dict, base: dict) -> list:
    """Every reason case ``name``'s ``result`` fails against ``base``."""
    case = CASES[name]
    reasons = [
        why.format(r=result, b=base) for holds, why in case.checks if not holds(result, base)
    ]
    reasons += [
        f"{key} = {result[key]!r}, baseline says {base[key]!r}"
        for key in case.exact if result[key] != base[key]
    ]
    key = case.throughput
    if key and result[key] < base[key] / SLOWDOWN:
        reasons.append(
            f"{key} {result[key]} is more than {SLOWDOWN:g}x below baseline {base[key]}"
        )
    ceiling = case.rss_ceiling_mib
    if ceiling is not None and result["peak_rss_mib"] > ceiling:
        reasons.append(f"peak RSS {result['peak_rss_mib']} MiB exceeds ceiling {ceiling} MiB")
    return reasons


def _measure(name: str) -> dict:
    """Run case ``name``'s measure in a fresh spawned interpreter."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(CASES[name].measure).result()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "cases", nargs="*", metavar="CASE",
        help=f"cases to run (default: all of {', '.join(CASES)})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="record what the named cases measure as their baseline entries",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; choose from {', '.join(CASES)}")
    if args.update and not args.cases:
        parser.error("--update rewrites only the cases it names")

    baselines = json.loads(BASELINE_PATH.read_text())
    failed = False
    for name in args.cases or CASES:
        if name not in baselines and not args.update:
            reasons = ["no baseline entry"]
        else:
            try:
                result = _measure(name)
            except Exception as exc:  # report the broken case, run the rest
                traceback.print_exception(exc)
                reasons = [f"{type(exc).__name__}: {exc}"]
            else:
                print(f"measured[{name}]: {json.dumps(result)}")
                reasons = check(name, result, result if args.update else baselines[name])
        if reasons:
            print(f"FAIL[{name}]: {'; '.join(reasons)}")
            failed = True
        elif args.update:
            baselines[name] = result
            print(f"OK[{name}]: baseline entry recorded")
        else:
            print(f"OK[{name}]")
    if args.update:
        BASELINE_PATH.write_text(json.dumps(baselines, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
