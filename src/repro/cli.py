"""Command-line entry point: regenerate any figure or experiment.

Examples::

    python -m repro fig6 --seeds 30          # the paper's full Fig. 6
    python -m repro fig5 --quick             # fast smoke version
    python -m repro all --seeds 5            # every experiment, light
    rechord lookup --sizes 16 64             # via the console script
    rechord scenario --list                  # the adversity library
    rechord scenario flash-crowd --n 64      # one seeded campaign
    rechord resilience --n 1024 --out benchmarks/results

Every experiment is deterministic for a given ``--root-seed``.
``--out DIR`` also writes each printed table to ``DIR/<name>.txt``, plus
``DIR/<name>.json`` where the experiment has a JSON form (traffic, the
scenario sweep, resilience) — the checked-in ``benchmarks/results``
files are regenerated this way.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence

from repro.core.network import ENGINES
from repro.experiments import PAPER_SIZES
from repro.experiments.ablation import format_ablation, run_ablation
from repro.experiments.baseline import format_baseline, run_baseline
from repro.experiments.baseline import DEFAULT_SIZES as BASELINE_SIZES
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import format_fig6, run_fig6
from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.join_leave import DEFAULT_SIZES as JL_SIZES
from repro.experiments.join_leave import format_join_leave, run_join_leave
from repro.experiments.lookup import DEFAULT_SIZES as LOOKUP_SIZES
from repro.experiments.lookup import format_lookup, run_lookup
from repro.experiments.messages import format_messages, run_messages
from repro.experiments.asynchrony import DEFAULT_SIZES as ASYNC_SIZES
from repro.experiments.asynchrony import format_asynchrony, run_asynchrony
from repro.experiments.economy import DEFAULT_SIZES as ECONOMY_SIZES
from repro.experiments.economy import format_economy, run_economy
from repro.experiments.usability import format_usability, run_usability
from repro.experiments.phases import DEFAULT_SIZES as PHASES_SIZES
from repro.experiments.phases import format_phases, run_phases
from repro.experiments.runner import DEFAULT_ROOT_SEED
from repro.experiments.scaling import DEFAULT_SIZES as SCALING_SIZES
from repro.experiments.scaling import format_scaling, run_scaling
from repro.experiments.traffic import DEFAULT_SIZES as TRAFFIC_SIZES
from repro.experiments.traffic import format_traffic, run_traffic, runs_to_json
from repro.netsim.timemodel import DAEMON_KINDS, DELIVERY_KINDS

QUICK_SIZES = (5, 15, 25)

#: classic Chord's two-ring start needs two rings of at least two peers
BASELINE_MIN_N = 4


class Table(NamedTuple):
    """One printed result: ``--out`` writes ``text`` to ``<name>.txt``
    and ``data`` (when the experiment has a JSON form) to ``<name>.json``;
    a ``None`` name (listings, the observe report) is printed only."""

    name: Optional[str]
    text: str
    data: Optional[dict] = None


def _sizes(args: argparse.Namespace, default: Sequence[int]) -> Sequence[int]:
    if args.sizes:
        return tuple(args.sizes)
    if args.quick:
        return QUICK_SIZES
    return tuple(default)


def _seeds(args: argparse.Namespace, default: int) -> int:
    if args.seeds is not None:
        return args.seeds
    return 2 if args.quick else default


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts, sizes and round budgets: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for counts where 0 means none: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def quantile(text: str) -> float:
    """argparse ``type=`` for a latency quantile: a float in (0, 1)."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="also write each table to DIR/<name>.txt (and .json where available)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rechord",
        description="Re-Chord (SPAA 2011) reproduction — experiment runner",
    )
    parser.add_argument("--root-seed", type=int, default=DEFAULT_ROOT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("fig5", "edges and nodes at stabilization (paper Fig. 5)"),
        ("fig6", "rounds to stable/almost-stable (paper Fig. 6)"),
        ("fig7", "total edges vs total nodes (paper Fig. 7)"),
        ("scaling", "Theorem 1.1 stabilization scaling"),
        ("join-leave", "Theorems 4.1/4.2 churn recovery"),
        ("lookup", "Fact 2.1 + greedy lookup hops"),
        ("baseline", "classic Chord vs Re-Chord self-stabilization"),
        ("ablation", "rule ablations"),
        ("messages", "message complexity over time"),
        ("phases", "proof-phase completion rounds"),
        ("economy", "economical-broadcast extension comparison"),
        ("asynchrony", "fair partial activation robustness"),
        ("usability", "routability during convergence"),
        ("traffic", "in-band lookups concurrent with churn (traffic plane)"),
        ("all", "run every experiment"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--sizes", type=positive_int, nargs="*", default=None)
        p.add_argument("--seeds", type=positive_int, default=None)
        p.add_argument("--quick", action="store_true", help="small sizes, 2 seeds")
        _add_out(p)
        if name in ("ablation", "messages", "usability"):
            p.add_argument("--n", type=positive_int, default=32 if name != "usability" else 24)
        if name == "messages":
            p.add_argument(
                "--engine", type=str, default="columnar", choices=ENGINES,
                help="simulation kernel (default: columnar)",
            )
        if name == "traffic":
            p.add_argument(
                "--telemetry", action="store_true",
                help="attach a telemetry recorder per run and report its census",
            )
            p.add_argument(
                "--sketch-quantiles", type=quantile, nargs="*", default=None,
                metavar="Q",
                help="opt-in extra latency quantiles (e.g. 0.5 0.99), each an "
                "exact nearest rank, reported as latency_p*_sketch",
            )
            p.add_argument(
                "--max-attempts", type=positive_int, default=1, metavar="K",
                help="resilient request plane: attempt budget per op "
                "(1 = retries off; retries use seeded exponential "
                "backoff with jitter)",
            )
            p.add_argument(
                "--retry-backoff", type=positive_int, default=4, metavar="B",
                help="base backoff in rounds between attempts (default 4)",
            )
            p.add_argument(
                "--hedge-after", type=positive_int, default=None, metavar="H",
                help="launch a duplicate probe for an unanswered op "
                "after H rounds; first reply wins (off by default)",
            )
            p.add_argument(
                "--route-redundancy", type=positive_int, default=1, metavar="R",
                help="candidate successors considered per forwarding "
                "hop; suspected-dead hops are demoted (default 1)",
            )
    scen = sub.add_parser(
        "scenario",
        help="declarative fault/churn campaigns (see docs/SCENARIOS.md)",
    )
    scen.add_argument("name", nargs="?", default=None, help="named scenario (omit with --list)")
    scen.add_argument("--list", action="store_true", help="list the scenario library")
    scen.add_argument("--n", type=positive_int, default=None, help="network size override")
    scen.add_argument("--seed", type=int, default=None, help="campaign seed override")
    scen.add_argument("--all", action="store_true", help="run the whole library (sweep table)")
    scen.add_argument("--json", action="store_true", help="emit the full ScenarioReport as JSON")
    scen.add_argument(
        "--spec", type=str, default=None, metavar="FILE",
        help="run a ScenarioSpec loaded from a JSON file instead of a named one",
    )
    scen.add_argument(
        "--latency-model", type=str, default=None, metavar="MODEL",
        help="delivery model for the whole campaign: a kind "
        f"({', '.join(DELIVERY_KINDS)}), "
        "kind:key=value,... (e.g. constant:delay=3), or a JSON spec dict",
    )
    scen.add_argument(
        "--daemon", type=str, default=None, metavar="DAEMON",
        help="activation daemon for the whole campaign: a kind "
        f"({', '.join(DAEMON_KINDS)}), kind:key=value,... "
        "(e.g. partial:p=0.5), or a JSON spec dict",
    )
    scen.add_argument(
        "--telemetry", action="store_true",
        help="run the campaign with a telemetry recorder attached and "
        "append the counter census / phase-timer report",
    )
    scen.add_argument(
        "--sketch-quantiles", type=quantile, nargs="*", default=None,
        metavar="Q",
        help="opt-in extra latency quantiles for the campaign's traffic "
        "(e.g. 0.5 0.99), each an exact nearest rank; reported as "
        "latency_p*_sketch in the summary and JSON (needs a scenario "
        "with traffic attached)",
    )
    _add_out(scen)
    res = sub.add_parser(
        "resilience",
        help="mass-failure survival, retries on vs. off (seeded by --root-seed)",
    )
    res.add_argument("--n", type=positive_int, default=None, help="network size override")
    _add_out(res)
    obs = sub.add_parser(
        "observe",
        help="telemetry deep-dive on one campaign: counter census, "
        "kernel phase timers, sampled op traces",
    )
    obs.add_argument(
        "--scenario", type=str, default="flash-crowd",
        help="named scenario to observe (default: flash-crowd)",
    )
    obs.add_argument("--n", type=positive_int, default=None, help="network size override")
    obs.add_argument("--seed", type=int, default=None, help="campaign seed override")
    obs.add_argument(
        "--engine", type=str, default="columnar", choices=ENGINES,
        help="simulation kernel to instrument (default: columnar)",
    )
    obs.add_argument(
        "--trace-sample", type=positive_int, default=1, metavar="K",
        help="trace every K-th op id (default: 1 = every op)",
    )
    obs.add_argument(
        "--traces", type=non_negative_int, default=3,
        help="sampled op traces to print (default: 3; 0 prints none)",
    )
    obs.add_argument(
        "--dump", type=str, default=None, metavar="FILE",
        help="also write every telemetry record to FILE as JSONL",
    )
    return parser


class _InputError(Exception):
    """Bad command-line input: ``main`` prints it and exits 2."""


def _parse_model_arg(text: str) -> dict:
    """Parse a ``--latency-model`` / ``--daemon`` value.

    Accepts a bare kind (``reorder``), ``kind:key=value,key=value``
    (``constant:delay=3``), or a JSON object
    (``'{"kind": "reorder", "bound": 4}'``); raises ``ValueError`` on
    anything else, a repeated key included.
    """
    text = text.strip()
    if text.startswith("{"):
        return dict(json.loads(text))
    kind, _, rest = text.partition(":")
    spec: dict = {"kind": kind}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad parameter {item!r} (expected key=value)")
        key = key.strip()
        if key in spec:
            raise ValueError(f"repeated parameter {key!r}")
        for number in (int, float):  # every model parameter is one
            try:
                spec[key] = number(value)
                break
            except ValueError:
                pass
        else:
            raise ValueError(f"bad parameter {item!r} (expected a number)")
    return spec


def _time_model_overrides(args: argparse.Namespace) -> dict:
    """The ``ScenarioSpec`` overrides of ``--latency-model`` / ``--daemon``.

    The time model's own spec constructors are the validators: an
    unknown kind, an unknown parameter or an out-of-range value is
    reported here, before any campaign is built.
    """
    from repro.netsim.timemodel import make_daemon, make_delivery_model

    overrides = {}
    for field, flag, text, factory in (
        ("latency", "--latency-model", args.latency_model, make_delivery_model),
        ("daemon", "--daemon", args.daemon, make_daemon),
    ):
        if text is None:
            continue
        try:
            overrides[field] = _parse_model_arg(text)
            factory(overrides[field])
        except (ValueError, TypeError) as exc:
            raise _InputError(f"{flag} {text!r}: {exc}") from None
    return overrides


def _named_scenario(name: str, n: int, seed: int):
    from repro.scenarios import make_scenario

    try:
        return make_scenario(name, n=n, seed=seed)
    except KeyError as exc:  # the library's "unknown scenario ...; choose from"
        raise _InputError(exc.args[0]) from None


def _run_scenario_command(args: argparse.Namespace) -> List[Table]:
    """Dispatch ``rechord scenario`` (list / one campaign / sweep)."""
    from repro.experiments.scenarios import (
        DEFAULT_N,
        format_scenarios,
        reports_to_json,
        run_scenarios,
    )
    from repro.netsim.rng import SeedSequence
    from repro.scenarios import (
        ScenarioSpec,
        run_scenario,
        scenario_description,
        scenario_names,
    )

    _check_scenario_mode(args)
    if args.list:
        lines = ["Named scenarios (rechord scenario <name>):", ""]
        for name in scenario_names():
            lines.append(f"  {name:<18} {scenario_description(name)}")
        lines.append("")
        lines.append(
            "Time-model overrides (any scenario): "
            "--latency-model KIND[:k=v,...] --daemon KIND[:k=v,...]"
        )
        lines.append(f"  latency models: {', '.join(sorted(DELIVERY_KINDS))}")
        lines.append(f"  daemons:        {', '.join(sorted(DAEMON_KINDS))}")
        lines.append("")
        lines.append("Details, adversary models and expected recovery: docs/SCENARIOS.md")
        return [Table(None, "\n".join(lines))]
    if args.all:
        n = args.n if args.n is not None else DEFAULT_N
        overrides = _time_model_overrides(args)
        reports = run_scenarios(n=n, root_seed=args.root_seed, overrides=overrides)
        return [Table("scenarios", format_scenarios(reports), reports_to_json(reports))]
    if args.spec is not None:
        try:
            spec = ScenarioSpec.from_json(Path(args.spec).read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # unreadable file, malformed JSON, or JSON that is not a spec
            raise _InputError(f"--spec {args.spec}: {exc}") from None
        if args.n is not None:
            spec = spec.with_overrides(n=args.n)
        if args.seed is not None:
            spec = spec.with_overrides(seed=args.seed)
    else:
        n = args.n if args.n is not None else DEFAULT_N
        seed = (
            args.seed
            if args.seed is not None
            else SeedSequence(args.root_seed).child("scenario-exp", args.name, n=n).seed()
        )
        spec = _named_scenario(args.name, n, seed)
    overrides = _time_model_overrides(args)
    if overrides:
        spec = spec.with_overrides(**overrides)
    if getattr(args, "sketch_quantiles", None):
        if spec.traffic is None:
            raise _InputError("scenario: --sketch-quantiles needs a scenario with traffic")
        from dataclasses import replace as _dc_replace

        spec = spec.with_overrides(
            traffic=_dc_replace(
                spec.traffic, sketch_quantiles=tuple(args.sketch_quantiles)
            )
        )
    recorder = None
    if args.telemetry:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
    report = run_scenario(spec, telemetry=recorder)
    data = report.to_dict()
    if args.json:
        return [Table(spec.name, json.dumps(data, indent=2, sort_keys=True), data)]
    blocks = [_format_scenario_report(spec, report)]
    if recorder is not None:
        from repro.telemetry import render_telemetry

        blocks.append(render_telemetry(recorder))
    return [Table(spec.name, "\n\n".join(blocks), data)]


#: the flags each ``rechord scenario`` mode would ignore
_IGNORED_BY_MODE = {
    "--list": ("--n", "--seed", "--json", "--latency-model", "--daemon", "--telemetry",
               "--sketch-quantiles", "--out"),
    "--all": ("--seed", "--json", "--telemetry", "--sketch-quantiles"),
}


def _check_scenario_mode(args) -> None:
    """Exactly one of NAME / ``--spec`` / ``--all`` / ``--list``, and no
    flag that mode would ignore."""
    modes = [
        mode for mode, given in (
            ("NAME", args.name is not None), ("--spec", args.spec is not None),
            ("--all", args.all), ("--list", args.list),
        ) if given
    ]
    if not modes:
        raise _InputError("scenario: give a name, --spec FILE, --all, or --list")
    if len(modes) > 1:
        raise _InputError(f"scenario: {' and '.join(modes)} exclude each other; give one")
    ignored = [
        flag for flag in _IGNORED_BY_MODE.get(modes[0], ())
        if getattr(args, flag[2:].replace("-", "_")) not in (None, False)
    ]
    if ignored:
        raise _InputError(f"scenario: {modes[0]} ignores {', '.join(ignored)}")


def _format_scenario_report(spec, report) -> str:
    """Human-readable single-campaign summary."""
    lines = [
        f"Scenario: {report.name}  (n={report.n}, seed={report.seed})",
        "=" * 78,
    ]
    if spec.description:
        lines.append(spec.description)
        lines.append("")
    lines.append(
        f"peers {report.peers_start} -> {report.peers_final}   "
        f"events {dict(report.event_census)}"
    )
    lines.append(
        f"adversity window of {spec.rounds} rounds ended at round "
        f"{report.rounds_adversity}; recovery in {report.recovery_rounds} "
        f"rounds (stable={report.stable}, ideal={report.ideal}); "
        f"{report.rule_fires} rule firings total"
    )
    if any(d for _, d in report.dropped_by_window):
        lines.append(
            "drops by window: "
            + "  ".join(f"{w}:{d}" for w, d in report.dropped_by_window)
        )
    lines.append("")
    lines.append(f"{'round':>6} {'peers':>5} {'failing':>7} {'violations':>10} "
                 f"{'pending':>7} {'in-flight':>9} {'done':>6}")
    for s in report.samples:
        lines.append(
            f"{s.round:>6} {s.peers:>5} {s.failing_peers:>7} {s.check_violations:>10} "
            f"{s.pending_messages:>7} {s.outstanding_ops:>9} {s.completed_ops:>6}"
        )
    if report.slo:
        lines.append("")
        slo = dict(report.slo)
        outcomes = "  ".join(f"{k}:{v}" for k, v in slo.pop("outcomes", {}).items())
        stats = "  ".join(f"{k}={v}" for k, v in slo.items())
        lines.append(f"traffic: {stats}")
        lines.append(f"outcomes: {outcomes}")
    return "\n".join(lines)


def _run_observe_command(args: argparse.Namespace) -> List[Table]:
    """Dispatch ``rechord observe`` — one instrumented campaign."""
    from repro.experiments.scenarios import DEFAULT_N
    from repro.netsim.rng import SeedSequence
    from repro.scenarios import run_scenario
    from repro.telemetry import TelemetryRecorder, render_telemetry

    n = args.n if args.n is not None else DEFAULT_N
    seed = (
        args.seed
        if args.seed is not None
        else SeedSequence(args.root_seed)
        .child("scenario-exp", args.scenario, n=n)
        .seed()
    )
    spec = _named_scenario(args.scenario, n, seed)
    recorder = TelemetryRecorder(trace_sample_interval=args.trace_sample)
    run_scenario(spec, engine=args.engine, telemetry=recorder)
    lines = [
        f"Observe: {spec.name}  (n={n}, seed={seed}, engine={args.engine})",
        "=" * 78,
        "",
        render_telemetry(recorder, traces=args.traces),
    ]
    if args.dump:
        recorder.dump(args.dump)
        lines.append("")
        lines.append(f"[telemetry records written to {args.dump}]")
    return [Table(None, "\n".join(lines))]


def _check_destinations(args: argparse.Namespace) -> None:
    """Refuse an output path the run could not write, before the run:
    ``--out DIR`` is created now (as the write would) and must take a
    file; ``--dump FILE`` must open for writing (an existing file is
    left as it is until the dump replaces it)."""
    for flag in ("--out", "--dump"):
        path = getattr(args, flag[2:], None)
        if path is None:
            continue
        try:
            if flag == "--out":
                path.mkdir(parents=True, exist_ok=True)
                with tempfile.TemporaryFile(dir=path):
                    pass
            else:
                with open(path, "a"):
                    pass
        except OSError as exc:
            raise _InputError(f"{flag} {path}: cannot write there ({exc.strerror or exc})") from None


def _dispatch(args: argparse.Namespace) -> List[Table]:
    rs = args.root_seed
    out: List[Table] = []
    cmd = args.command
    if cmd == "scenario":
        return _run_scenario_command(args)
    if cmd == "observe":
        return _run_observe_command(args)
    if cmd == "resilience":
        from repro.experiments.resilience import (
            DEFAULT_N,
            format_resilience,
            run_resilience,
            run_to_json,
        )

        n = args.n if args.n is not None else DEFAULT_N
        run = run_resilience(n=n, seed=rs)
        return [Table("resilience", format_resilience(run), run_to_json(run))]
    if cmd in ("baseline", "all"):
        small = [n for n in _sizes(args, BASELINE_SIZES) if n < BASELINE_MIN_N]
        if small:
            raise _InputError(
                f"baseline: --sizes must be >= {BASELINE_MIN_N} "
                f"(classic Chord's two-ring start), got {small[0]}"
            )
    if cmd in ("fig5", "all"):
        out.append(Table("fig5", format_fig5(
            run_fig5(_sizes(args, PAPER_SIZES), _seeds(args, 10), rs))))
    if cmd in ("fig6", "all"):
        out.append(Table("fig6", format_fig6(
            run_fig6(_sizes(args, PAPER_SIZES), _seeds(args, 10), rs))))
    if cmd in ("fig7", "all"):
        out.append(Table("fig7", format_fig7(
            run_fig7(_sizes(args, PAPER_SIZES), _seeds(args, 10), rs))))
    if cmd in ("scaling", "all"):
        out.append(Table("theorem11_scaling", format_scaling(
            run_scaling(_sizes(args, SCALING_SIZES), _seeds(args, 5), rs))))
    if cmd in ("join-leave", "all"):
        out.append(Table("theorem41_join", format_join_leave(
            run_join_leave(_sizes(args, JL_SIZES), _seeds(args, 5), rs))))
    if cmd in ("lookup", "all"):
        out.append(Table("lookup_hops", format_lookup(
            run_lookup(_sizes(args, LOOKUP_SIZES), _seeds(args, 5), rs))))
    if cmd in ("baseline", "all"):
        out.append(Table("chord_baseline", format_baseline(
            run_baseline(_sizes(args, BASELINE_SIZES), _seeds(args, 5), rs))))
    if cmd in ("ablation", "all"):
        n = getattr(args, "n", 32)
        out.append(Table("ablation_rules", format_ablation(
            run_ablation(n=n, seeds=_seeds(args, 5), root_seed=rs))))
    if cmd in ("messages", "all"):
        n = getattr(args, "n", 32)
        engine = getattr(args, "engine", "columnar")
        out.append(Table("message_complexity", format_messages(
            run_messages(n=n, root_seed=rs, engine=engine))))
    if cmd in ("phases", "all"):
        out.append(Table("phase_completion", format_phases(
            run_phases(_sizes(args, PHASES_SIZES), _seeds(args, 5), rs))))
    if cmd in ("economy", "all"):
        out.append(Table("economy_broadcast", format_economy(
            run_economy(_sizes(args, ECONOMY_SIZES), _seeds(args, 3), rs))))
    if cmd in ("asynchrony", "all"):
        out.append(Table("asynchrony", format_asynchrony(
            run_asynchrony(_sizes(args, ASYNC_SIZES), _seeds(args, 3), rs))))
    if cmd in ("usability", "all"):
        n = getattr(args, "n", 24)
        out.append(Table("usability", format_usability(run_usability(n=n, root_seed=rs))))
    if cmd in ("traffic", "all"):
        runs = run_traffic(
            _sizes(args, TRAFFIC_SIZES), _seeds(args, 1), rs,
            telemetry=getattr(args, "telemetry", False),
            sketch_quantiles=getattr(args, "sketch_quantiles", None),
            max_attempts=getattr(args, "max_attempts", 1),
            retry_backoff=getattr(args, "retry_backoff", 4),
            hedge_after=getattr(args, "hedge_after", None),
            route_redundancy=getattr(args, "route_redundancy", 1),
        )
        out.append(Table("traffic_churn", format_traffic(runs), runs_to_json(runs)))
    return out


def _write_tables(directory: Path, tables: Sequence[Table]) -> None:
    """``--out``: each named table as ``<name>.txt`` (+ ``<name>.json``)."""
    directory.mkdir(parents=True, exist_ok=True)
    for table in tables:
        if table.name is None:
            continue
        (directory / f"{table.name}.txt").write_text(table.text + "\n")
        if table.data is not None:
            (directory / f"{table.name}.json").write_text(
                json.dumps(table.data, indent=2) + "\n"
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args, unknown = _build_parser().parse_known_args(argv)
    started = time.time()
    try:
        if unknown:  # a retired or misspelled flag: name it, no usage dump
            raise _InputError(f"unrecognized arguments: {' '.join(unknown)}")
        _check_destinations(args)
        tables = _dispatch(args)
    except _InputError as exc:
        print(f"rechord: error: {exc}", file=sys.stderr)
        return 2
    for table in tables:
        print(table.text)
        print()
    out_dir = getattr(args, "out", None)
    if out_dir is not None:
        _write_tables(out_dir, tables)
        print(f"[results written to {out_dir}]", file=sys.stderr)
    print(f"[done in {time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
