#!/usr/bin/env python
"""A/B benchmark: a parent revision against the working tree.

What every performance PR measures (choosing-metrics §6 and §8): clone
the parent revision of this repository into a temporary directory (a
local ``git clone``, nothing is fetched), then run the committed
benchmark command of ``BENCHMARK.json`` —

    python3 bench/rechord_bench.py --workload W --seed S --seconds T --trace 0

— on both sides for N pairs, alternating which side runs first.  Per
end-to-end metric it prints both sides' median and quartiles, how many
pairs the change won (ties count for neither), the gap between the
medians next to the parent's own quartile distance, the verdict against
the metric's bound, and one CHANGES.md-ready line listing every run.

Each run's ``attempted`` (the seeded work it got through) is printed
next to its metrics.  A run executes instances until its time is up, so
a faster side runs more of them; the instance-averaged metrics
(``setup_s``, ``op_success_share``, ``peak_rss_mib``: a median, a share
and a high-water mark over the instances run) are then read over
different work, and the report flags each of them.  ``--equal-work``
runs both sides with ``--seconds 0`` instead — each run executes
exactly the workload's ``min_instances`` — and gives verdicts on those
three metrics only, read at equal work.

With ``--sim`` it checks instead that every simulated statistic is
unchanged: one ``--trace 1`` run per side for every workload (or only
the one ``--workload`` names) at seeds 2011 and 77, comparing
``detail.sim``, the bound-0 keys of ``detail.campaign`` and every
per-layer count, rounds and share metric except the host-time-driven
ones.  It prints ``identical`` or each
differing key per workload and seed, and exits 1 on any difference.

With ``--layers`` it shows where a change's time went: ``--pairs`` K
alternating pairs of ``--trace 1`` runs of one workload, then both
sides' median of every per-layer metric in seconds or microseconds
(``netsim.*_s``, ``core.rule3_s``, ``core.us_per_step``, ...) with
their ratio.

Usage::

    python tools/ab_bench.py --workload restabilize --pairs 10
    python tools/ab_bench.py --workload traffic_steady --seed 77 --pairs 5 --parent HEAD~1
    python tools/ab_bench.py --workload traffic_steady --equal-work --pairs 5
    python tools/ab_bench.py --sim [--workload W] [--parent REV]
    python tools/ab_bench.py --layers --workload restabilize --pairs 3

The script reads ``BENCHMARK.json`` and runs ``bench/``; it edits
neither.  Run it on an otherwise idle machine: the two sides share it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: the seeds ``--sim`` compares at
SIM_SEEDS = (2011, 77)
#: per-layer units that measure simulated work, compared exactly ...
SIM_UNITS = ("count", "rounds", "share")
#: per-layer units of host time, which ``--layers`` reports
LAYER_UNITS = ("s", "us")
#: the end-to-end metrics read over the instances a run executes, so
#: a side that runs more instances reads them over other work
WORK_METRICS = ("setup_s", "op_success_share", "peak_rss_mib")
#: ... except the keys host time drives: the bench-side metrics, the
#: telemetry overhead and the campaign keys with a nonzero bound
TIMED = (
    "bench.", "telemetry.overhead_share",
    "detail.campaign.wall_s", "detail.campaign.rounds_per_s",
)


def run_once(command: List[str], checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One benchmark run in ``checkout``; the metrics of its result line
    plus its ``attempted`` count."""
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed in {checkout}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"incorrect run in {checkout}: {result}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    return values


def sim_stats(stdout: str) -> Dict[str, Any]:
    """The statistics of one ``--trace 1`` run's output, flattened to
    ``key -> value``: ``detail.sim``, ``detail.campaign`` and every
    per-layer metric in a :data:`SIM_UNITS` unit."""
    lines = stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    stats = {f"detail.sim.{key}": value for key, value in detail["sim"].items()}
    stats.update((f"detail.campaign.{key}", value) for key, value in detail["campaign"].items())
    stats.update(
        (name, cell["value"])
        for name, cell in json.loads(lines[-1])["metrics"].items()
        if cell["unit"] in SIM_UNITS
    )
    return stats


def traced_run(command: List[str], checkout: Path, workload: str, seed: int) -> str:
    """The output of one ``--trace 1`` run in ``checkout``."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--trace", "1"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed in {checkout}:\n{done.stderr[-2000:]}")
    return done.stdout


def sim_run(command: List[str], checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``--trace 1`` run in ``checkout``: :func:`sim_stats` of it."""
    return sim_stats(traced_run(command, checkout, workload, seed))


def layer_stats(stdout: str) -> Dict[str, float]:
    """The per-layer metrics in a :data:`LAYER_UNITS` unit of one
    ``--trace 1`` run's output, ``name -> value``."""
    cells = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {name: cell["value"] for name, cell in cells.items() if cell["unit"] in LAYER_UNITS}


def layer_report(parent: List[Dict[str, float]], change: List[Dict[str, float]]) -> str:
    """Both sides' median of every layer metric, with the ratio (change
    over parent; below 1 is faster) and the difference."""
    names = sorted({name for run in parent + change for name in run})
    rows = [f"{'metric':<34} {'parent':>12} {'change':>12} {'ratio':>7} {'delta':>10}"]
    for name in names:
        pm = statistics.median(run.get(name, 0.0) for run in parent)
        cm = statistics.median(run.get(name, 0.0) for run in change)
        ratio = f"{cm / pm:.3f}" if pm else "-"
        rows.append(f"{name:<34} {pm:>12.4f} {cm:>12.4f} {ratio:>7} {cm - pm:>+10.4f}")
    return "\n".join(rows)


def check_layers(command: List[str], workload: str, seed: int, pairs: int, rev: str) -> int:
    """``--layers``: ``pairs`` alternating traced pairs, then the
    per-layer medians of both sides."""
    parent_runs: List[Dict[str, float]] = []
    change_runs: List[Dict[str, float]] = []
    with parent_checkout(rev) as parent_dir:
        sides = [("parent", parent_dir, parent_runs), ("change", ROOT, change_runs)]
        for pair in range(pairs):
            for side, checkout, runs in (sides if pair % 2 == 0 else sides[::-1]):
                runs.append(layer_stats(traced_run(command, checkout, workload, seed)))
                print(f"pair {pair + 1:>2} {side}: traced", flush=True)
    print(f"\n{workload}, seed {seed}, {pairs} alternating pairs of --trace 1 runs, "
          f"{rev} | working tree; per-layer medians")
    print(layer_report(parent_runs, change_runs))
    return 0


def sim_diff(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """The keys whose values differ (or exist on one side only),
    skipping the :data:`TIMED` ones."""
    missing = "<missing>"
    return [
        f"{key}: {parent.get(key, missing)!r} -> {change.get(key, missing)!r}"
        for key in sorted(parent.keys() | change.keys())
        if not key.startswith(TIMED) and parent.get(key, missing) != change.get(key, missing)
    ]


@contextmanager
def parent_checkout(rev: str) -> Iterator[Path]:
    """A local clone of this repository at ``rev``, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        parent_dir = Path(tmp) / "parent"
        subprocess.run(["git", "clone", "-q", "--no-hardlinks", str(ROOT), str(parent_dir)], check=True)
        subprocess.run(["git", "-C", str(parent_dir), "checkout", "-q", "--detach", rev], check=True)
        yield parent_dir


def check_sim(command: List[str], workloads: List[str], rev: str) -> int:
    """``--sim``: every simulated statistic, parent against working tree."""
    differing = 0
    with parent_checkout(rev) as parent_dir:
        for workload in workloads:
            for seed in SIM_SEEDS:
                diff = sim_diff(
                    sim_run(command, parent_dir, workload, seed),
                    sim_run(command, ROOT, workload, seed),
                )
                differing += bool(diff)
                print(f"{workload} seed {seed}: {'identical' if not diff else 'DIFFERS'}", flush=True)
                for line in diff:
                    print(f"  {line}")
    return 1 if differing else 0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def work_note(parent: List[float], change: List[float]) -> str:
    """The flag under each of the :data:`WORK_METRICS` when the two
    sides ran different amounts of seeded work (empty when they did
    not)."""
    if sorted(parent) == sorted(change):
        return ""
    return (
        f"  note: the sides ran different seeded work (attempted, median "
        f"{statistics.median(parent):.6g} vs {statistics.median(change):.6g}): a faster "
        "side runs more instances, so this metric is read over different ones; "
        "read it with --equal-work before reading a move here"
    )


def report(metric: dict, parent: List[float], change: List[float]) -> str:
    """The verdict block of one end-to-end metric."""
    name, unit = metric["name"], metric["unit"]
    higher = metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    gain = (cm - pm if higher else pm - cm)
    ratio = (cm / pm if higher else pm / cm) if pm and cm else float("nan")
    worse = -gain / pm if pm else 0.0
    if worse > metric["bound"]:
        verdict = f"REGRESSION (worse by {worse:.1%}, bound {metric['bound']:.0%})"
    elif wins * 10 >= 9 * (len(parent) - ties) and wins and gain > p3 - p1:
        verdict = "gain (>= 9/10 of the pairs, gap above the parent's quartile distance)"
    else:
        verdict = f"within the bound ({metric['bound']:.0%})"
    runs = "/".join(f"{v:.4g}" for v in parent) + " | " + "/".join(f"{v:.4g}" for v in change)
    return "\n".join([
        f"{name} [{unit}, {metric['better']} is better]",
        f"  parent  median {pm:.4g}  quartiles {p1:.4g} .. {p3:.4g}",
        f"  change  median {cm:.4g}  quartiles {c1:.4g} .. {c3:.4g}",
        f"  change ahead in {wins}/{len(parent)} pairs ({ties} ties); gap {gain:+.4g} "
        f"vs parent quartile distance {p3 - p1:.4g}; ratio {ratio:.3f}x",
        f"  verdict: {verdict}",
        f"  line: `{name}` {runs} (median {pm:.4g} -> {cm:.4g}, {ratio:.2f}x, {wins}/{len(parent)})",
    ])


def ab_report(metrics: List[dict], parent: List[Dict[str, float]], change: List[Dict[str, float]]) -> str:
    """The verdict block of each metric in ``metrics`` over both sides'
    runs, each of the :data:`WORK_METRICS` followed by its work note."""
    blocks = []
    for metric in metrics:
        name = metric["name"]
        blocks.append(report(metric, [r[name] for r in parent], [r[name] for r in change]))
        if name in WORK_METRICS:
            note = work_note([r["attempted"] for r in parent], [r["attempted"] for r in change])
            if note:
                blocks.append(note)
    return "\n".join(blocks)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--sim", action="store_true",
                        help="check every simulated statistic instead (of --workload, "
                        "or of every workload)")
    parser.add_argument("--layers", action="store_true",
                        help="compare the per-layer host-time medians of --pairs traced "
                        "pairs of --workload instead")
    parser.add_argument("--equal-work", action="store_true",
                        help="run --seconds 0 on both sides (each run executes the "
                        "workload's min_instances) and judge only the instance-averaged "
                        "metrics " + ", ".join(WORK_METRICS))
    args = parser.parse_args(argv)
    if args.sim and args.layers:
        parser.error("--sim and --layers are separate runs: give one")
    if args.equal_work and (args.sim or args.layers):
        parser.error("--equal-work is an A/B run: give it without --sim or --layers")
    if args.sim:
        chosen = workloads if args.workload is None else [args.workload]
        return check_sim(spec["command"], chosen, args.parent)
    if args.workload is None:
        parser.error("--workload is required (unless --sim)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.layers:
        return check_layers(spec["command"], args.workload, args.seed, args.pairs, args.parent)

    seconds = 0 if args.equal_work else spec["run_seconds"]
    metrics = [m for m in spec["end_to_end"] if not args.equal_work or m["name"] in WORK_METRICS]
    parent_runs: List[Dict[str, float]] = []
    change_runs: List[Dict[str, float]] = []
    with parent_checkout(args.parent) as parent_dir:
        sides = [("parent", parent_dir, parent_runs), ("change", ROOT, change_runs)]
        for pair in range(args.pairs):
            for side, checkout, runs in (sides if pair % 2 == 0 else sides[::-1]):
                runs.append(run_once(spec["command"], checkout, args.workload, args.seed, seconds))
                shown = "  ".join(f"{k}={v:.6g}" for k, v in runs[-1].items())
                print(f"pair {pair + 1:>2} {side}: {shown}", flush=True)

    length = "equal-work runs (--seconds 0)" if args.equal_work else f"{seconds} s runs"
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} alternating pairs of "
          f"{length}, {args.parent} | working tree")
    print(ab_report(metrics, parent_runs, change_runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
