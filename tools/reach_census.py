#!/usr/bin/env python
"""Reachability census: which ``src/`` functions no entry point runs.

Runs every entry point of the repository in this one interpreter under
a trace hook installed before any ``repro`` import (module-level code
such as ``experiments/ablation.py``'s ``RuleConfig.ablated`` calls runs
at import time), then lists each function or method defined under
``src/`` whose code never started.  A nested function inside an
unreached one is counted in its parent's lines, not listed again.

The entry points (:func:`entry_points`):

* every ``rechord`` subcommand, with ``--spec``, ``--out``, ``--json``,
  ``--dump``, ``--engine full`` and every ``--latency-model`` and
  ``--daemon`` kind;
* the ``benchmarks/gates.py`` measures, run in-process;
* the four ``bench/`` workloads, through ``measure`` and
  ``measure_traced``;
* ``benchmarks/run_million_ops.py`` at small n;
* every script under ``examples/``.

A function no entry point reaches is either deleted or named in
:data:`KEPT` with the reason it stays.  Exits 1 if an unreached
function is not in ``KEPT`` or a ``KEPT`` name no longer names a
function; a ``KEPT`` function the run did reach is only noted.  The
functions are parsed before the run, and a ``src/`` module edited while
it runs also exits 1, naming the file: its line numbers no longer match
the code the run compiled, so its report would be false.

Usage::

    python tools/reach_census.py        # ~3 min on a 2-core x86_64 host
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PICKLE = "safety: pickling and copy contract"
_VALUE = "safety: value contract (equality, hash, order and immutability of a value type)"
_VERSION = "safety: TrackedSet override that keeps the PeerState.version contract"
_ABSTRACT = "interface declaration: every implementation overrides it"
_REPR = "diagnostic: repr of a value"

#: qualified name (module + qualname) -> why it stays unreached
KEPT: Dict[str, str] = {
    # safety: pickling, copy and value contracts
    "repro.core.noderef.NodeRef.__setattr__": _VALUE,
    "repro.core.noderef.NodeRef.__le__": _VALUE,
    "repro.core.noderef.NodeRef.__ge__": _VALUE,
    "repro.core.noderef.NodeRef.__copy__": _PICKLE + " (a ref stays its singleton)",
    "repro.core.noderef.NodeRef.__deepcopy__": _PICKLE + " (a ref stays its singleton)",
    "repro.core.noderef.NodeRef.__reduce__": _PICKLE + " (a ref stays its singleton)",
    "repro.core.noderef._reconstruct": _PICKLE + " (a ref stays its singleton)",
    "repro.core.events.NeighborIntro.__eq__": _VALUE,
    "repro.core.events.NeighborIntro.__hash__": _VALUE,
    "repro.core.state.TrackedSet.remove": _VERSION,
    "repro.core.state.TrackedSet.pop": _VERSION,
    "repro.core.state.TrackedSet.difference_update": _VERSION,
    "repro.core.state.TrackedSet.symmetric_difference_update": _VERSION,
    "repro.core.state._isub": _VERSION,
    "repro.core.state._iand": _VERSION,
    "repro.core.state._ixor": _VERSION,
    "repro.core.state.TrackedSet.__deepcopy__": _PICKLE,
    "repro.core.state.TrackedSet.__reduce__": _PICKLE,
    "repro.core.state._rebuild_tracked_set": _PICKLE,
    "repro.core.state.LocalNode.__getstate__": _PICKLE,
    "repro.core.state.LocalNode.__setstate__": _PICKLE,
    "repro.core.rules_batched._put_slots": (
        "safety: a rule-3 memo hit restores the slots through the tracking "
        "API, so the version contract holds"
    ),
    "repro.idspace.ring.IdSpace.__reduce__": _PICKLE,
    "repro.netsim.messages.Envelope.__setattr__": _VALUE,
    "repro.netsim.messages.Envelope.__hash__": _VALUE,
    "repro.netsim.messages.Envelope.__getstate__": _PICKLE + " (the memoized fingerprint is dropped)",
    "repro.netsim.messages.Envelope.__setstate__": _PICKLE + " (the memoized fingerprint is dropped)",
    "repro.netsim.messages.SubFlow.__reduce__": _PICKLE + " (derived data is rebuilt)",
    "repro.netsim.timemodel.ActivationDaemon.params": (
        "safety: serialization contract, the inverse of make_daemon (the delivery "
        "models' twin is reached)"
    ),
    "repro.netsim.timemodel.ActivationDaemon.to_dict": (
        "safety: serialization contract, the inverse of make_daemon (the delivery "
        "models' twin is reached)"
    ),
    "repro.netsim.timemodel.SeededPartialActivation.params": "safety: serialization contract",
    "repro.netsim.timemodel.RoundRobinActivation.params": "safety: serialization contract",
    "repro.netsim.timemodel.UnfairBoundedActivation.params": "safety: serialization contract",
    "repro.traffic.messages.TrafficRecord.__eq__": _VALUE + " (the trace is left out)",
    "repro.traffic.messages.TrafficRecord.__ne__": _VALUE + " (the trace is left out)",
    "repro.traffic.messages.TrafficRecord.__hash__": _VALUE + " (the trace is left out)",
    # error and diagnostic paths
    "repro.core.protocol._no_plane_error": "error path: application mail with no traffic plane",
    "repro.core.rules_batched._not_a_peer": "error path: a non-peer actor handed to the batched pipeline",
    "repro.netsim.scheduler._inside_step": "error path: a scheduler change while a round runs",
    "repro.traffic.plane.TrafficPlane._drain_diagnostic": "diagnostic: a drain that does not finish",
    "repro.core.network.ReChordNetwork._NullTrafficHandler.handle": (
        "error path: mail still in flight after TrafficPlane.detach (bench/'s "
        "traffic_steady detaches in a finally, after a failed run too)"
    ),
    "repro.traffic.slo.SLOCollector.fail_unissued": "error path: an op issued at a dead origin",
    "repro.netsim.messages.Envelope.__repr__": _REPR,
    "repro.netsim.rng.SeedSequence.__repr__": _REPR,
    "repro.netsim.timemodel.DeliveryModel.__repr__": _REPR,
    "repro.netsim.timemodel.ActivationDaemon.__repr__": _REPR,
    # interface declarations
    "repro.netsim.scheduler.Actor.step": _ABSTRACT + " (typing Protocol)",
    "repro.netsim.timemodel.DeliveryModel._link_delay": _ABSTRACT,
    "repro.netsim.timemodel.DeliveryModel.delay_bound": _ABSTRACT,
    "repro.netsim.timemodel.ActivationDaemon.select": _ABSTRACT,
    "repro.core.protocol.ReChordPeer.handle_app": (
        "interface: the Actor lane hook; the columnar kernel gives a clean peer a "
        "lane step only if it has one (the batched engine calls _handle_lane)"
    ),
    # the spec and test oracles
    "repro.graphs.connectivity.weakly_connected_components": "test oracle: weak connectivity",
    "repro.graphs.connectivity.is_weakly_connected": "test oracle: weak connectivity",
    "repro.graphs.digraph.TypedDigraph.successors": "test oracle: graphs.connectivity reads it",
    "repro.graphs.digraph.TypedDigraph.predecessors": "test oracle: graphs.connectivity reads it",
    "repro.graphs.digraph.TypedDigraph.__len__": "test oracle: graphs.connectivity reads it",
    "repro.netsim.columnar.SerialStepper.run_batch": (
        "spec: the columnar kernel's stepper when none is installed, each actor "
        "through its own step; the kernel-level tests run toy actors on it"
    ),
    "repro.netsim.scheduler.SynchronousScheduler._park_post": (
        "spec: the full-scan kernel's delayed post (a non-self post under latency)"
    ),
    "repro.netsim.columnar.ColumnarScheduler._revive_frozen": (
        "spec equivalence: a re-joined id's frozen pieces resume, as on the spec; "
        "the differential suites cover it"
    ),
    "repro.traffic.plane.TrafficPlane.issue": (
        "test oracle: the per-op form issue_batch is held to "
        "(tests/test_traffic_streaming.py)"
    ),
    "repro.traffic.plane.TrafficPlane.lookup": "test oracle: per-op form of issue_batch",
    "repro.traffic.plane.TrafficPlane.put": "test oracle: per-op form of issue_batch",
    "repro.traffic.plane.TrafficPlane.get": "test oracle: per-op form of issue_batch",
    "repro.traffic.plane.TrafficPlane.true_owner": (
        "test oracle: the SLO collector's truth function, read when an answer "
        "noted no truth"
    ),
}


class Function(NamedTuple):
    """One ``def`` under the census root."""

    name: str  #: dotted module + qualname, e.g. ``repro.cli.main``
    path: Path
    first: int  #: first line: the first decorator's, else the ``def``'s
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def sources(root: Path) -> Dict[Path, str]:
    """The text of each module under ``root``, by path."""
    return {path: path.read_text(encoding="utf-8") for path in sorted(root.rglob("*.py"))}


def changed(root: Path, before: Dict[Path, str]) -> List[Path]:
    """The modules under ``root`` added, deleted or edited since the
    ``before`` snapshot of :func:`sources`."""
    after = sources(root)
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def functions(root: Path, texts: Optional[Dict[Path, str]] = None) -> List[Function]:
    """Every function and method defined in the modules under ``root``
    (nested ones included), with their first line as the interpreter's
    ``co_firstlineno`` gives it; ``texts`` is a :func:`sources` snapshot
    to parse instead of the files."""
    found: List[Function] = []
    texts = sources(root) if texts is None else texts
    for path, text in texts.items():
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    qual = f"{prefix}{child.name}"
                    found.append(Function(f"{module}.{qual}", path, first, child.end_lineno))
                    visit(child, f"{qual}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(text), "")
    return found


def reached(drive: Callable[[], None]) -> Set[Tuple[str, int]]:
    """``(absolute file, first line)`` of every code object that started
    while ``drive()`` ran, in any thread."""
    codes: Set = set()

    def hook(frame, event, arg):  # a global trace: one call per new frame
        codes.add(frame.f_code)
        return None  # no line events

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        drive()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def unreached(found: Iterable[Function], hits: Set[Tuple[str, int]]) -> List[Function]:
    """The functions of ``found`` whose code never started, outermost
    only: a nested function inside an unreached one is left out."""
    missed = [f for f in found if (os.path.realpath(f.path), f.first) not in hits]
    return [
        f for f in missed
        if not any(g is not f and g.path == f.path and g.first < f.first <= g.last for g in missed)
    ]


def _shown(path: Path) -> Path:
    return path.relative_to(ROOT) if path.is_relative_to(ROOT) else path


def census(root: Path, drive: Callable[[], None], kept: Dict[str, str]) -> Tuple[List[str], bool]:
    """Parse ``root``'s functions, run ``drive`` under the trace hook and
    :func:`report`; a module under ``root`` that changed while ``drive``
    ran fails the census instead, one ``CHANGED`` line per file."""
    before = sources(root)
    found = functions(root, before)
    hits = reached(drive)
    moved = changed(root, before)
    if moved:
        return [f"CHANGED   {_shown(path)}: edited during the run, re-run the census" for path in moved], True
    return report(unreached(found, hits), found, kept)


def report(missed: List[Function], found: List[Function], kept: Dict[str, str]) -> Tuple[List[str], bool]:
    """The census printout and whether it fails: an unreached function
    outside ``kept``, or a ``kept`` name that names no function."""
    names = {f.name for f in found}
    missed_names = {f.name for f in missed}
    lines: List[str] = []
    failed = False
    for f in missed:
        where = f"{_shown(f.path)}:{f.first}"
        if f.name in kept:
            lines.append(f"kept      {f.name}  {where}  {f.lines} lines  ({kept[f.name]})")
        else:
            lines.append(f"UNREACHED {f.name}  {where}  {f.lines} lines")
            failed = True
    for name in sorted(kept):
        if name not in names:
            lines.append(f"STALE     {name}: KEPT names no function")
            failed = True
        elif name not in missed_names:
            lines.append(f"note      {name}: in KEPT but reached")
    outside = [f for f in missed if f.name not in kept]
    lines.append(
        f"{len(found)} functions, {len(missed)} unreached "
        f"({sum(f.lines for f in missed)} lines), "
        f"{len(outside)} outside KEPT ({sum(f.lines for f in outside)} lines)"
    )
    return lines, failed


# ----------------------------------------------------------------------
# the entry points
# ----------------------------------------------------------------------
def _load(path: Path, name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _rechord(*argv: str) -> None:
    from repro.cli import main

    status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"rechord {' '.join(argv)} exited {status}")


def _script(path: Path, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved


def entry_points(scratch: Path) -> List[Tuple[str, Callable[[], None]]]:
    """``(label, call)`` for each entry point; outputs go under ``scratch``."""
    from repro.netsim.timemodel import DAEMON_KINDS, DELIVERY_KINDS
    from repro.scenarios import make_scenario

    spec_file = scratch / "spec.json"
    spec_file.write_text(make_scenario("seam-crash", n=12, seed=3).to_json())
    out = str(scratch / "out")
    calls: List[Tuple[str, Callable[[], None]]] = [
        ("rechord all --quick", lambda: _rechord("all", "--quick", "--out", out)),
        ("rechord messages --engine full", lambda: _rechord("messages", "--n", "12", "--engine", "full")),
        ("rechord traffic (resilience knobs, telemetry)", lambda: _rechord(
            "traffic", "--sizes", "16", "--telemetry", "--sketch-quantiles", "0.5", "0.99",
            "--max-attempts", "3", "--hedge-after", "6", "--route-redundancy", "2")),
        ("rechord scenario --list", lambda: _rechord("scenario", "--list")),
        ("rechord scenario --all", lambda: _rechord("scenario", "--all", "--n", "12", "--out", out)),
        ("rechord scenario --spec --json", lambda: _rechord(
            "scenario", "--spec", str(spec_file), "--json", "--n", "12", "--seed", "4")),
        ("rechord scenario --telemetry", lambda: _rechord(
            "scenario", "flash-crowd", "--n", "12", "--telemetry", "--sketch-quantiles", "0.5")),
        ("rechord resilience", lambda: _rechord("resilience", "--n", "32", "--out", out)),
        ("rechord observe --engine full --dump", lambda: _rechord(
            "observe", "--n", "12", "--engine", "full", "--traces", "1",
            "--dump", str(scratch / "dump.jsonl"))),
    ]
    for flag, kinds in (("--latency-model", DELIVERY_KINDS), ("--daemon", DAEMON_KINDS)):
        for kind in kinds:
            calls.append((f"rechord scenario {flag} {kind}", lambda flag=flag, kind=kind: _rechord(
                "scenario", "seam-crash", "--n", "12", flag, kind)))

    gates = _load(ROOT / "benchmarks" / "gates.py", "gates")
    for name, case in gates.CASES.items():
        # n=4096 runs the code n=256 runs (a census found nothing only it
        # reaches) and its ideal-state build alone takes minutes
        if name != "restabilize_n4096":
            calls.append((f"gates {name}", case.measure))

    bench = _load(ROOT / "bench" / "rechord_bench.py", "rechord_bench")
    for name in bench.WORKLOADS:
        calls.append((f"bench measure {name}", lambda name=name: bench.measure(
            name, 2011, 0.0, min_instances=1)))
        calls.append((f"bench measure_traced {name}", lambda name=name: bench.measure_traced(
            name, 2011, dump_to=scratch / f"spans_{name}.jsonl")))

    calls.append(("benchmarks/run_million_ops.py", lambda: _script(
        ROOT / "benchmarks" / "run_million_ops.py",
        "--n", "32", "--ops", "2000", "--rate", "100", "--out-dir", str(scratch))))
    for path in sorted((ROOT / "examples").glob("*.py")):
        calls.append((f"examples/{path.name}", lambda path=path: _script(path)))
    return calls


def drive_all() -> None:
    """Run every entry point, their output swallowed, one progress line
    each on stderr."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for label, call in entry_points(Path(tmp)):
            started = time.perf_counter()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                call()
            print(f"[census] {label}: {time.perf_counter() - started:.1f}s", file=sys.stderr)


def main(argv: List[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    lines, failed = census(SRC, drive_all, KEPT)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
