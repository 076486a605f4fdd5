#!/usr/bin/env python3
"""The Re-Chord benchmark: four workloads, measured end to end and layer by layer.

Two ways in (see ``bench/README.md`` for the metric tables and the
layer -> end-to-end -> workload predictions)::

    python3 bench/rechord_bench.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/rechord_bench.py [--seed S] [--workload W] [--repeats 3]

The first form is one *run* (the ``BENCHMARK.json`` contract): its last
stdout line is one JSON object ``{correct, attempted, failed, metrics}``.
The second form is the *campaign*: every run in a fresh subprocess, one
at a time, repeats interleaved A B C D A B C D ..., then one traced pass
per workload; it prints every metric as median + quartiles + sample
count and writes a ledger under ``bench/out/``.

A run is a sequence of *instances*.  An instance is one complete,
independent piece of seeded work (build a network, drive it, check it),
fully determined by ``(--seed, workload, instance index)``.  With
``--trace 0`` instances are executed until the timed sections add up to
``--seconds`` (and at least the workload's ``min_instances``, so
``setup_s`` is a median of several set-ups).  Host-time metrics cover every instance; simulated
statistics are reported for instance 0 only, so they repeat exactly for
one seed whatever the host speed.  With ``--trace 1`` instance 0 is
executed twice, untraced then traced: the pair gives the per-layer
numbers, the tracing overhead and the neutrality check.

Host time is reported in *reference seconds* (see :class:`ReferenceClock`):
the sandbox drifts by +-25 % in speed within minutes, so a calibration
kernel that shares no code with ``src/`` is timed several times a second
and host seconds are rescaled to a machine on which that kernel takes
exactly ``CAL_REFERENCE_S``.  Raw host seconds are printed beside them.

This is a simulator: simulated statistics (rounds, op outcomes,
latencies in rounds, counters) are seeded and exact; only host-time
metrics are noisy.  ``attempted``/``failed`` count what the *simulator*
was asked to do and lost (membership events healed, networks stabilized,
traffic ops given a recorded outcome); a simulated op that times out
because its origin was crashed on purpose is a result, reported as
``op_fail_share``, not a failure of the program under test.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
try:
    from repro.core.network import ReChordNetwork
    from repro.dht.lookup import ReChordRouter
    from repro.dht.storage import KeyValueStore
    from repro.experiments import scaling
    from repro.netsim.gcpause import gc_batched
    from repro.netsim.rng import SeedSequence
    from repro.scenarios import executor, make_scenario
    from repro.telemetry import TelemetryRecorder
    from repro.traffic import SLOCollector, TrafficPlane, WorkloadGenerator
    from repro.traffic.slo import percentile
    from repro.workloads.initial import build_random_network, random_peer_ids
except ImportError as exc:  # a directory without src/ cannot be benchmarked
    raise SystemExit(f"rechord_bench: cannot import the repro package from {SRC_DIR}: {exc}")

_perf = time.perf_counter
_cpu = time.process_time

#: default measuring time of one run (BENCHMARK.json `run_seconds`)
RUN_SECONDS = 12
OP_MIX = (("lookup", 0.6), ("get", 0.2), ("put", 0.2))
#: definition of the reference machine: the calibration kernel takes 8 ms
CAL_REFERENCE_S = 0.008


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
class SpanRecorder:
    """Bench-side spans: ``[name, start, end, parent]`` rows kept in memory.

    ``parent`` is the index of the enclosing span (``None`` at the top).
    A name's *self time* is the summed duration of its spans minus the
    summed duration of their direct children, minus any *aggregate*
    children folded in with :meth:`add_aggregate` (the library's own
    ``TelemetryRecorder`` phase timers, which arrive as totals, not as
    individual spans).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        #: (name, seconds, calls, parent name) rows
        self.aggregates: List[Tuple[str, float, int, str]] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _perf(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span of this name around every call."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return wrapper

    def add_aggregate(self, name: str, seconds: float, calls: int, parent: str) -> None:
        self.aggregates.append((name, seconds, calls, parent))

    def regions(self) -> List[Optional[str]]:
        """Per span: ``"setup"``, ``"timed"`` or ``None`` (neither).

        A span belongs to the nearest enclosing ``bench.setup`` /
        ``workloads.build`` (set-up) or ``bench.timed`` (timed section);
        a network build *inside* a timed section (``run_scenario``) is
        set-up, as are the settle rounds it runs.
        """
        out: List[Optional[str]] = []
        for name, _start, _end, parent in self.spans:
            if name in ("bench.setup", "workloads.build"):
                out.append("setup")
            elif name == "bench.timed":
                out.append("timed")
            else:
                out.append(out[parent] if parent is not None else None)
        return out

    def totals(self, region: str = "timed") -> Dict[str, Tuple[float, int]]:
        """name -> (summed seconds, calls) over the spans of one region."""
        out: Dict[str, Tuple[float, int]] = {}
        for (name, start, end, _parent), where in zip(self.spans, self.regions()):
            if where == region:
                seconds, calls = out.get(name, (0.0, 0))
                out[name] = (seconds + end - start, calls + 1)
        return out

    def self_times(self, region: str = "timed") -> Dict[str, float]:
        """name -> summed self time (duration minus children) in one region."""
        regions = self.regions()
        out = {name: seconds for name, (seconds, _calls) in self.totals(region).items()}
        for _name, start, end, parent in self.spans:
            if parent is not None and regions[parent] == region:
                out[self.spans[parent][0]] -= end - start
        if region == "timed":
            for _name, seconds, _calls, parent_name in self.aggregates:
                if parent_name in out:
                    out[parent_name] -= seconds
        return out

    def dump(self, path: Path) -> int:
        """Write every span and aggregate as JSONL; returns rows written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {"run": self.run_id, "id": index, "name": name,
                       "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(row) + "\n")
            for name, seconds, calls, parent_name in self.aggregates:
                row = {"run": self.run_id, "aggregate": True, "name": name,
                       "seconds": seconds, "calls": calls, "parent": parent_name}
                fh.write(json.dumps(row) + "\n")
        return len(self.spans) + len(self.aggregates)


class NoSpans:
    """The tracing-off stand-in: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


#: (owner, attribute, span name): the layer boundaries spanned from
#: outside during a traced pass.  Class attributes rather than instance
#: attributes, so the objects ``run_scenario`` builds internally are
#: covered by the same table.
LAYER_SPANS = (
    (ReChordNetwork, "run_round", "netsim.round"),
    (ReChordNetwork, "join", "core.membership"),
    (ReChordNetwork, "crash", "core.membership"),
    (ReChordNetwork, "run_until_stable", "core.run_until_stable"),
    (ReChordNetwork, "matches_ideal", "core.verify"),
    (WorkloadGenerator, "inject", "traffic.inject"),
    (SLOCollector, "expire", "traffic.expire"),
    (SLOCollector, "summary", "traffic.summary"),
    (TrafficPlane, "drain", "traffic.drain"),
)

#: TelemetryRecorder phases that partition a peer step; folded under
#: ``netsim.round`` as aggregate children.  The ``kernel.*`` phases are
#: NOT folded: ``kernel.execute`` / ``kernel.step`` contain these.
STEP_PHASES = (
    "peer.apply_inbox", "rule.purge", "rule.1_virtual_nodes", "rule.2_overlap",
    "rule.3_closest_real", "rule.4_linearize", "rule.5_ring", "rule.6_connection",
    "peer.traffic",
)


def _calibration_kernel() -> int:
    """Fixed pure-Python work (dict/set/sort churn) that touches no repo code."""
    table: Dict[int, int] = {}
    for i in range(60000):
        table[i & 4095] = table.get(i & 1023, 0) + i
    return len(sorted(set(table.values())))


class ReferenceClock:
    """Host time in *reference seconds*: seconds at a fixed machine speed.

    The sandbox this benchmark runs in speeds up and slows down by
    +-25 % within minutes and by more for seconds at a time (noisy
    neighbours); no amount of repetition inside a run averages a drift
    of that length out.  So the clock times the calibration kernel at
    every :meth:`tick` that comes at least ``INTERVAL_S`` after the last
    reading (``ReChordNetwork.run_round`` ticks it, see
    :func:`instrumented`), and advances :attr:`ref` by the host time of
    each interval divided by the mean *slowness* (kernel time over
    ``CAL_REFERENCE_S``) read at its two ends.  The kernel's own time
    is left out of both :attr:`ref` and :meth:`raw`.  The kernel shares
    no code with ``src/``, so a change to the program moves the
    reference-second metrics in full.
    """

    INTERVAL_S = 0.2

    def __init__(self, spans: Optional[SpanRecorder] = None) -> None:
        self._spans = spans
        self.ref = 0.0            #: reference seconds since construction
        self.kernel_s = 0.0       #: host seconds spent in the kernel itself
        self.readings: List[float] = []   #: mean slowness of every interval
        self._slowness = self._read()
        self._at = _perf()

    def _read(self) -> float:
        index = self._spans.begin("bench.calibrate") if self._spans is not None else None
        t0 = _perf()
        _calibration_kernel()
        seconds = _perf() - t0
        if index is not None:
            self._spans.end(index)
        self.kernel_s += seconds
        return seconds / CAL_REFERENCE_S

    def tick(self, force: bool = False) -> None:
        now = _perf()
        if force or now - self._at >= self.INTERVAL_S:
            slowness = self._read()
            mean = (self._slowness + slowness) / 2
            self.ref += (now - self._at) / mean
            self.readings.append(mean)
            self._slowness = slowness
            self._at = _perf()

    def raw(self) -> float:
        """Host seconds, not counting the calibration kernel."""
        return _perf() - self.kernel_s


@dataclass
class Probe:
    """What a workload function measures with: spans, telemetry, clock."""

    spans: Any                      #: SpanRecorder, or NoSpans with tracing off
    tel: Optional[TelemetryRecorder]
    clock: ReferenceClock

    def span(self, name: str):
        return self.spans.span(name)

    @contextmanager
    def section(self, inst: "Instance", kind: str) -> Iterator[None]:
        """One measured section, ``kind`` = ``"setup"`` or ``"timed"``.

        Timed sections run under the repo's own ``gc_batched()``; set-up
        does not (``build_ideal_network`` batches its own settle loop).
        """
        clock = self.clock
        clock.tick(force=True)
        with (gc_batched() if kind == "timed" else nullcontext()), self.span("bench." + kind):
            ref0, raw0, cpu0, kernel0 = clock.ref, clock.raw(), _cpu(), clock.kernel_s
            try:
                yield
            finally:
                clock.tick(force=True)
                ref, raw = clock.ref - ref0, clock.raw() - raw0
                cpu = _cpu() - cpu0 - (clock.kernel_s - kernel0)
        if kind == "timed":
            inst.wall_s += ref
            inst.raw_wall_s += raw
            inst.cpu_s += cpu
        else:
            inst.setup_s += ref
            inst.raw_setup_s += raw
            inst.setup_cpu_s += cpu


@contextmanager
def instrumented(probe: Probe) -> Iterator[None]:
    """Hook the library from outside for the duration.

    Always: ``ReChordNetwork.run_round`` ticks the reference clock (one
    call and one clock read per round).  With tracing on, every
    :data:`LAYER_SPANS` boundary is spanned as well; the tick stays
    outside the round span.
    """
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in LAYER_SPANS]
    try:
        if isinstance(probe.spans, SpanRecorder):
            for owner, attr, name in LAYER_SPANS:
                setattr(owner, attr, probe.spans.wrap(name, getattr(owner, attr)))
        run_round, tick = ReChordNetwork.run_round, probe.clock.tick

        @functools.wraps(run_round)
        def ticking_round(*args: Any, **kwargs: Any) -> Any:
            tick()
            return run_round(*args, **kwargs)

        ReChordNetwork.run_round = ticking_round
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Instance:
    """What one instance measured (host time) and simulated (exact).

    ``setup_s`` / ``wall_s`` are reference seconds; the ``raw_*`` twins
    are host seconds as the clock read them.
    """

    setup_s: float = 0.0
    wall_s: float = 0.0
    raw_setup_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0              #: process CPU seconds of the timed sections
    setup_cpu_s: float = 0.0
    rounds: int = 0                 #: simulated rounds in the timed sections
    attempted: int = 0              #: operations the simulator was asked for
    failed: int = 0                 #: ... that it lost or did not finish
    sim_ops: int = 0                #: simulated user-level operations
    sim_ops_failed: int = 0         #: ... whose simulated outcome was not success
    latency_mean: float = 0.0       #: simulated rounds per operation
    latency_p95: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: every exact simulated statistic, compared across repeats / tracing
    sim: Dict[str, Any] = field(default_factory=dict)
    #: layer counts only the instance can see (traced pass)
    extra: Dict[str, float] = field(default_factory=dict)


def _digest(net: ReChordNetwork) -> str:
    return hashlib.sha256(repr(net.fingerprint()).encode()).hexdigest()[:16]


def _fresh_id(net: ReChordNetwork, rng) -> int:
    while True:
        candidate = random_peer_ids(1, rng, net.space)[0]
        if candidate not in net.peers:
            return candidate


def _membership_latencies(inst: Instance, latencies: List[int]) -> None:
    """Events/networks are the operations of the two stabilization workloads."""
    inst.sim_ops = inst.attempted
    inst.sim_ops_failed = inst.failed
    if latencies:
        inst.latency_mean = sum(latencies) / len(latencies)
        inst.latency_p95 = percentile(latencies, 95)
    inst.sim["latencies"] = latencies


def restabilize(seq: SeedSequence, probe: Probe, *, n: int, events: int) -> Instance:
    """Ideal network, then alternating join / crash, each run to stable."""
    inst = Instance()
    with probe.section(inst, "setup"), probe.span("workloads.build"):
        net = scaling.build_ideal_network(n, seq.child("build").seed(), engine="columnar")
    inst.extra["workloads.settle_rounds"] = net.round_no
    if probe.tel is not None:
        net.enable_telemetry(probe.tel)
    rng = seq.child("events").rng()
    fires0 = net.counters().total()
    latencies: List[int] = []
    for index in range(events):
        inst.attempted += 1
        round0 = net.round_no
        try:
            with probe.section(inst, "timed"):
                if index % 2 == 0:
                    net.join(_fresh_id(net, rng), rng.choice(net.peer_ids))
                else:
                    net.crash(rng.choice(net.peer_ids))
                net.run_until_stable()
        except RuntimeError as exc:
            inst.failed += 1
            inst.problems.append(f"event {index}: {exc}")
            break
        latencies.append(net.round_no - round0)
        if not net.matches_ideal():
            inst.failed += 1
            inst.problems.append(f"event {index}: stable but not the ideal topology")
    inst.rounds = sum(latencies)
    _membership_latencies(inst, latencies)
    inst.sim.update(fingerprint=_digest(net), rule_fires=net.counters().total() - fires0)
    return inst


def cold_stabilize(seq: SeedSequence, probe: Probe, *, n: int, networks: int) -> Instance:
    """Random weakly connected starts run to the stable ideal topology."""
    inst = Instance()
    latencies: List[int] = []
    digests: List[str] = []
    fires = 0
    for index in range(networks):
        inst.attempted += 1
        with probe.section(inst, "setup"), probe.span("workloads.build"):
            net = build_random_network(n, seq.child("network", index).seed(), engine="columnar")
        if probe.tel is not None:
            net.enable_telemetry(probe.tel)
        try:
            with probe.section(inst, "timed"):
                net.run_until_stable()
        except RuntimeError as exc:
            inst.failed += 1
            inst.problems.append(f"network {index}: {exc}")
            continue
        latencies.append(net.round_no)
        fires += net.counters().total()
        digests.append(_digest(net))
        if not net.matches_ideal():
            inst.failed += 1
            inst.problems.append(f"network {index}: stable but not the ideal topology")
    inst.rounds = sum(latencies)
    inst.extra["workloads.settle_rounds"] = 0
    _membership_latencies(inst, latencies)
    inst.sim.update(fingerprint=digests, rule_fires=fires)
    return inst


def _traffic_results(inst: Instance, slo: dict, issued: int, routed: int) -> None:
    """Fold an SLO summary into the instance (both traffic workloads)."""
    inst.attempted = issued
    inst.failed = issued - slo["completed"]
    inst.sim_ops = slo["completed"]
    inst.sim_ops_failed = issued - routed
    inst.latency_mean = slo.get("latency_mean", 0.0)
    inst.latency_p95 = slo.get("latency_p95", 0.0)
    inst.sim["slo"] = slo
    if slo["outstanding"] or slo["issued"] != slo["completed"]:
        inst.problems.append(
            f"ledger not drained: issued {slo['issued']}, completed "
            f"{slo['completed']}, outstanding {slo['outstanding']}"
        )


def traffic_steady(
    seq: SeedSequence, probe: Probe, *, n: int, rate: float, rounds: int,
    join_at: int, crash_at: int, cooldown: int, key_universe: int, deadline: int,
    reservoir: int,
) -> Instance:
    """Open-loop KV traffic over a stable overlay with one join and one crash.

    The campaign has a fixed simulated length: ``rounds`` of injection,
    then ``cooldown`` rounds in which the ledger must drain and the
    overlay must heal — so simulated rounds do not vary with the seed.
    """
    inst = Instance()
    with probe.section(inst, "setup"):
        with probe.span("workloads.build"):
            net = scaling.build_ideal_network(n, seq.child("build").seed(), engine="columnar")
        inst.extra["workloads.settle_rounds"] = net.round_no
        if probe.tel is not None:  # before the plane, so sampled ops carry hop traces
            net.enable_telemetry(probe.tel)
        plane = TrafficPlane(
            net,
            store=KeyValueStore(ReChordRouter(net)),
            collector_mode="streaming",
            reservoir_size=reservoir,
        )
        gen = WorkloadGenerator(
            plane, rate=rate, op_mix=OP_MIX, key_universe=key_universe,
            popularity="zipf", deadline=deadline, seed=seq.child("workload").seed(),
        )
    rng = seq.child("churn").rng()
    round0, fires0 = net.round_no, net.counters().total()
    try:
        with probe.section(inst, "timed"):
            for round_no in range(rounds):
                if round_no == join_at:
                    net.join(_fresh_id(net, rng), rng.choice(net.peer_ids))
                if round_no == crash_at:
                    net.crash(rng.choice(net.peer_ids))
                plane.run_round()
            gen.active = False
            drained = plane.drain(max_rounds=cooldown)
            inst.extra["traffic.drain_rounds"] = drained
            plane.run(cooldown - drained)
            slo = plane.collector.summary()
    except RuntimeError as exc:
        inst.attempted, inst.failed = gen.issued, plane.collector.outstanding_count()
        inst.problems.append(str(exc))
        return inst
    finally:
        plane.detach()
    inst.rounds = net.round_no - round0
    _traffic_results(inst, slo, gen.issued, plane.collector.routed_count)
    resident = len(plane.collector.completed)
    inst.extra["traffic.resident_completions"] = resident
    if resident > reservoir:
        inst.problems.append(f"collector holds {resident} completions > reservoir {reservoir}")
    if net.scheduler.changed_last_round or not net.matches_ideal():
        inst.problems.append(f"overlay not stable and ideal after {cooldown} cool-down rounds")
    inst.sim.update(fingerprint=_digest(net), rule_fires=net.counters().total() - fires0)
    return inst


def fault_campaign(
    seq: SeedSequence, probe: Probe, *, n: int, rate: float, key_universe: int,
    latency_cap: int,
) -> Instance:
    """The ``mass-failure`` scenario under lognormal latency, via ``run_scenario``."""
    inst = Instance()
    spec = make_scenario("mass-failure", n=n, seed=seq.child("scenario").seed())
    spec = spec.with_overrides(
        latency={"kind": "lognormal", "cap": latency_cap},
        traffic=replace(spec.traffic, rate=rate, op_mix=OP_MIX, key_universe=key_universe),
    )
    # the start network is built inside run_scenario; time that call from
    # outside as a set-up section nested in the timed one, so that set-up
    # means the same here as in the other workloads
    settle_rounds = []
    original = executor.build_ideal_network

    def timed_build(*args: Any, **kwargs: Any):
        with probe.section(inst, "setup"), probe.span("workloads.build"):
            net = original(*args, **kwargs)
        settle_rounds.append(net.round_no)
        return net

    executor.build_ideal_network = timed_build
    try:
        with probe.section(inst, "timed"), probe.span("scenarios.run"):
            report = executor.run_scenario(spec, engine="columnar", telemetry=probe.tel)
    finally:
        executor.build_ideal_network = original
    inst.raw_wall_s -= inst.raw_setup_s
    inst.wall_s -= inst.setup_s
    inst.cpu_s -= inst.setup_cpu_s
    inst.extra["workloads.settle_rounds"] = settle_rounds[0]
    inst.rounds = report.rounds_total - settle_rounds[0]
    slo = report.slo
    routed = sum(ok for _window, _issued, ok in report.survival_by_window)
    _traffic_results(inst, slo, slo["issued"], routed)
    if not (report.stable and report.ideal):
        inst.problems.append(f"campaign ended stable={report.stable} ideal={report.ideal}")
    failure = [(issued, ok) for window, issued, ok in report.survival_by_window
               if window != "start"]
    inst.extra.update({
        "traffic.resident_completions": slo["completed"],  # list collector keeps all
        "scenarios.events": sum(report.event_census.values()),
        "scenarios.recovery_rounds": report.recovery_rounds,
        "scenarios.window_survival_share":
            sum(ok for _, ok in failure) / max(1, sum(issued for issued, _ in failure)),
    })
    inst.sim.update(
        fingerprint=report.config_digest, rule_fires=report.rule_fires,
        rounds_total=report.rounds_total, recovery_rounds=report.recovery_rounds,
        survival_by_window=[list(w) for w in report.survival_by_window],
        dropped_by_window=[list(w) for w in report.dropped_by_window],
    )
    return inst


@dataclass(frozen=True)
class Workload:
    fn: Callable[..., Instance]
    why: str
    #: the constants of the recorded benchmark (tests pass toy sizes)
    sizes: Dict[str, Any]
    #: a run executes at least this many instances: setup_s is a median
    #: of several set-ups, and ops_per_s averages over enough seeded work
    #: that its seed-to-seed spread stays within a third of its bound
    min_instances: int = 3


WORKLOADS: Dict[str, Workload] = {
    "restabilize": Workload(
        restabilize,
        "post-churn recovery on a stable overlay: sparse dirty set, rule pipeline dominates, no traffic",
        dict(n=128, events=12),
    ),
    "cold_stabilize": Workload(
        cold_stabilize,
        "Theorem 1.1 from random starts: dense execution of the same netsim+core layers, near-zero set-up",
        dict(n=48, networks=3),
    ),
    "traffic_steady": Workload(
        traffic_steady,
        "open-loop zipf KV traffic with one join and one crash: the only workload where the traffic layer works hard",
        dict(n=128, rate=750.0, rounds=16, join_at=4, crash_at=8, cooldown=160,
             key_universe=256, deadline=40, reservoir=4096),
    ),
    "fault_campaign": Workload(
        fault_campaign,
        "mass-failure scenario under lognormal latency: retries, redundant routing, time model, executor overhead",
        dict(n=48, rate=12.0, key_universe=256, latency_cap=6),
        min_instances=5,
    ),
}


# ----------------------------------------------------------------------
# metric declarations (names are the contract; see bench/README.md)
# ----------------------------------------------------------------------
#: name -> (unit, better, bound) — the BENCHMARK.json end_to_end block,
#: emitted by every workload with --trace 0
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_success_share": ("share", "higher", 0.05),
    "peak_rss_mib": ("MiB", "lower", 0.15),
}

#: campaign-only end-to-end metrics: fixed-seed numbers of instance 0.
#: bound 0 = simulated, must repeat exactly for one seed.
CAMPAIGN_END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.10),
    "rounds_per_s": ("rounds/s", "higher", 0.10),
    "sim_rounds": ("rounds", "lower", 0.0),
    "op_fail_share": ("share", "lower", 0.0),
    "op_latency_mean_rounds": ("rounds", "lower", 0.0),
    "op_latency_p95_rounds": ("rounds", "lower", 0.0),
}

_RULES = ("rule1", "rule2", "rule3", "rule4", "rule5", "rule6")
_OUTCOMES = ("ok", "timeout", "misroute", "loop")

#: name -> (unit, better) — the BENCHMARK.json per_layer block, emitted
#: by every workload with --trace 1 (0 where a layer does nothing)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "netsim.round_s": ("s", "lower"),
    "netsim.round_calls": ("count", "lower"),
    "netsim.us_per_round": ("us", "lower"),
    "netsim.kernel_materialize_s": ("s", "lower"),
    "netsim.kernel_execute_s": ("s", "lower"),
    "netsim.kernel_step_s": ("s", "lower"),
    "netsim.kernel_patch_s": ("s", "lower"),
    "netsim.kernel_deliver_s": ("s", "lower"),
    "netsim.self_s": ("s", "lower"),
    "netsim.executed_steps": ("count", "lower"),
    "netsim.replayed_steps": ("count", "higher"),
    "netsim.executed_fraction": ("share", "lower"),
    "netsim.dirty_peak": ("count", "lower"),
    "netsim.envelopes_sent": ("count", "lower"),
    "netsim.envelopes_dropped": ("count", "lower"),
    "netsim.wire_delay_mean_rounds": ("rounds", "lower"),
    "core.apply_inbox_s": ("s", "lower"),
    "core.purge_s": ("s", "lower"),
    **{f"core.{rule}_s": ("s", "lower") for rule in _RULES},
    "core.rules_total_s": ("s", "lower"),
    "core.us_per_step": ("us", "lower"),
    "core.rule_fires": ("count", "lower"),
    "core.membership_s": ("s", "lower"),
    "core.membership_events": ("count", "lower"),
    "core.run_until_stable_self_s": ("s", "lower"),
    "core.verify_s": ("s", "lower"),
    "traffic.inject_s": ("s", "lower"),
    "traffic.inject_calls": ("count", "lower"),
    "traffic.handle_s": ("s", "lower"),
    "traffic.handle_calls": ("count", "lower"),
    "traffic.expire_s": ("s", "lower"),
    "traffic.drain_s": ("s", "lower"),
    "traffic.drain_rounds": ("rounds", "lower"),
    "traffic.summary_s": ("s", "lower"),
    "traffic.us_per_op": ("us", "lower"),
    "traffic.steps_per_op": ("count", "lower"),
    "traffic.ops_issued": ("count", "higher"),
    "traffic.ops_completed": ("count", "higher"),
    **{f"traffic.ops_{outcome}": ("count", "higher" if outcome == "ok" else "lower")
       for outcome in _OUTCOMES},
    "traffic.violations": ("count", "lower"),
    "traffic.hops_mean": ("count", "lower"),
    "traffic.retries": ("count", "lower"),
    "traffic.hedges_issued": ("count", "lower"),
    "traffic.hedge_wins": ("count", "higher"),
    "traffic.stale_replies": ("count", "lower"),
    "traffic.first_attempt_share": ("share", "higher"),
    "traffic.resident_completions": ("count", "lower"),
    "scenarios.run_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "scenarios.events": ("count", "lower"),
    "scenarios.recovery_rounds": ("rounds", "lower"),
    "scenarios.window_survival_share": ("share", "higher"),
    "workloads.build_s": ("s", "lower"),
    "workloads.settle_rounds": ("rounds", "lower"),
    "telemetry.overhead_share": ("share", "lower"),
    "telemetry.neutral": ("count", "higher"),
    "bench.unattributed_share": ("share", "lower"),
    "bench.cpu_s": ("s", "lower"),
    "bench.spans": ("count", "lower"),
    "bench.host_slowness": ("share", "lower"),
}

#: spans whose time counts as attributed to a layer; the rest of a timed
#: section (run_until_stable / run_scenario / plane.run_round / drain
#: glue and this file's own loops) is `bench.unattributed_share`
ATTRIBUTED_SPANS = ("netsim.round", "core.membership", "traffic.inject",
                    "traffic.expire", "traffic.summary")


def benchmark_json() -> dict:
    """The BENCHMARK.json this harness implements."""
    return {
        "command": ["python3", "bench/rechord_bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl.why} for name, wl in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _instance_seq(name: str, seed: int, index: int) -> SeedSequence:
    return SeedSequence(seed).child("bench", name).child("instance", index)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign_metrics(first: Instance) -> Dict[str, float]:
    """The fixed-seed numbers of instance 0 (CAMPAIGN_END_TO_END)."""
    return {
        "wall_s": first.wall_s,
        "rounds_per_s": first.rounds / first.wall_s,
        "sim_rounds": first.rounds,
        "op_fail_share": first.sim_ops_failed / max(1, first.sim_ops),
        "op_latency_mean_rounds": first.latency_mean,
        "op_latency_p95_rounds": first.latency_p95,
    }


def _detail(done: List[Instance], first: Instance, clock: ReferenceClock) -> dict:
    """What a run reports besides its contract metrics (the line before last)."""
    return {
        "instances": len(done),
        "raw_timed_s": sum(i.raw_wall_s for i in done),
        "raw_setup_s": sum(i.raw_setup_s for i in done),
        "host_slowness": statistics.median(clock.readings),
        "campaign": campaign_metrics(first),
        "sim": first.sim,
    }


def measure(
    name: str, seed: int, seconds: float, sizes: Optional[Dict[str, Any]] = None,
    min_instances: Optional[int] = None,
) -> dict:
    """A ``--trace 0`` run: instances until ``seconds`` of timed work."""
    workload = WORKLOADS[name]
    sizes = workload.sizes if sizes is None else sizes
    min_instances = workload.min_instances if min_instances is None else min_instances
    probe = Probe(NoSpans(), None, ReferenceClock())
    done: List[Instance] = []
    with instrumented(probe):
        while len(done) < min_instances or sum(i.raw_wall_s for i in done) < seconds:
            done.append(workload.fn(_instance_seq(name, seed, len(done)), probe, **sizes))
            gc.collect()  # dropped networks are cyclic garbage; keep RSS flat
    ops = sum(i.sim_ops for i in done)
    metrics = {
        "setup_s": statistics.median(i.setup_s for i in done),
        "ops_per_s": ops / sum(i.wall_s for i in done),
        "op_success_share": 1.0 - sum(i.sim_ops_failed for i in done) / ops,
        "peak_rss_mib": peak_rss_mib(),
    }
    return {
        "problems": [p for i in done for p in i.problems],
        "attempted": sum(i.attempted for i in done),
        "failed": sum(i.failed for i in done),
        "metrics": metrics,
        "detail": _detail(done, done[0], probe.clock),
    }


def layer_metrics(probe: Probe, plain: Instance, traced: Instance) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced instance and its untraced twin."""
    spans, tel = probe.spans, probe.tel
    timers = {phase: (seconds, calls) for phase, seconds, calls in tel.phase_table()}
    for phase in STEP_PHASES:
        if phase in timers:
            spans.add_aggregate(phase, *timers[phase], parent="netsim.round")
    total = spans.totals("timed")
    own = spans.self_times("timed")
    setup = spans.totals("setup")

    def seconds(span: str) -> float:
        return total.get(span, (0.0, 0))[0]

    def calls(span: str) -> int:
        return total.get(span, (0.0, 0))[1]

    def phase(label: str) -> float:
        return timers.get(label, (0.0, 0))[0]

    kernel = tel.kernel_stats()
    census = tel.census()
    slo = traced.sim.get("slo", {})
    outcomes = slo.get("outcomes", {})
    completed = slo.get("completed", 0)
    steps = kernel["executed"]
    rule_seconds = [phase(label) for label in STEP_PHASES[2:8]]
    rules_total = phase("rule.purge") + sum(rule_seconds)
    traffic_s = (seconds("traffic.inject") + phase("peer.traffic")
                 + seconds("traffic.expire") + seconds("traffic.summary"))
    run_s = seconds("scenarios.run")
    if run_s:
        # the start network is built in a set-up section nested in the campaign;
        # neither that section nor the clock's kernel runs are campaign time
        run_s -= setup["bench.setup"][0] + seconds("bench.calibrate")
    verify_s = sum(end - start for span, start, end, _ in spans.spans if span == "core.verify")
    attributed = sum(seconds(span) for span in ATTRIBUTED_SPANS)
    return {
        "netsim.round_s": seconds("netsim.round"),
        "netsim.round_calls": calls("netsim.round"),
        "netsim.us_per_round": 1e6 * seconds("netsim.round") / max(1, calls("netsim.round")),
        "netsim.kernel_materialize_s": phase("kernel.materialize"),
        "netsim.kernel_execute_s": phase("kernel.execute"),
        "netsim.kernel_step_s": phase("kernel.step"),
        "netsim.kernel_patch_s": phase("kernel.patch"),
        "netsim.kernel_deliver_s": phase("kernel.deliver"),
        "netsim.self_s": own.get("netsim.round", 0.0),
        "netsim.executed_steps": steps,
        "netsim.replayed_steps": kernel["replayed"],
        "netsim.executed_fraction": steps / max(1, steps + kernel["replayed"]),
        "netsim.dirty_peak": kernel["dirty_peak"],
        "netsim.envelopes_sent": census["sent"],
        "netsim.envelopes_dropped": census["dropped"],
        "netsim.wire_delay_mean_rounds": slo.get("wire_delay_mean", 0.0),
        "core.apply_inbox_s": phase("peer.apply_inbox"),
        "core.purge_s": phase("rule.purge"),
        **{f"core.{rule}_s": s for rule, s in zip(_RULES, rule_seconds)},
        "core.rules_total_s": rules_total,
        "core.us_per_step": 1e6 * rules_total / max(1, steps),
        "core.rule_fires": traced.sim.get("rule_fires", 0),
        "core.membership_s": seconds("core.membership"),
        "core.membership_events": calls("core.membership"),
        "core.run_until_stable_self_s": own.get("core.run_until_stable", 0.0),
        "core.verify_s": verify_s,
        "traffic.inject_s": seconds("traffic.inject"),
        "traffic.inject_calls": calls("traffic.inject"),
        "traffic.handle_s": phase("peer.traffic"),
        "traffic.handle_calls": timers.get("peer.traffic", (0.0, 0))[1],
        "traffic.expire_s": seconds("traffic.expire"),
        "traffic.drain_s": seconds("traffic.drain"),
        "traffic.drain_rounds": traced.extra.get("traffic.drain_rounds", 0),
        "traffic.summary_s": seconds("traffic.summary"),
        "traffic.us_per_op": 1e6 * traffic_s / max(1, completed),
        "traffic.steps_per_op": steps / completed if completed else 0.0,
        "traffic.ops_issued": slo.get("issued", 0),
        "traffic.ops_completed": completed,
        **{f"traffic.ops_{outcome}": outcomes.get(outcome, 0) for outcome in _OUTCOMES},
        "traffic.violations": slo.get("violations", 0),
        "traffic.hops_mean": slo.get("hops_mean", 0.0),
        "traffic.retries": slo.get("retries", 0),
        "traffic.hedges_issued": slo.get("hedges_issued", 0),
        "traffic.hedge_wins": slo.get("hedge_wins", 0),
        "traffic.stale_replies": slo.get("stale_replies", 0),
        "traffic.first_attempt_share":
            slo.get("first_attempt_success", completed) / completed if completed else 0.0,
        "traffic.resident_completions": traced.extra.get("traffic.resident_completions", 0),
        "scenarios.run_s": run_s,
        "scenarios.self_s": own.get("scenarios.run", 0.0),
        "scenarios.events": traced.extra.get("scenarios.events", 0),
        "scenarios.recovery_rounds": traced.extra.get("scenarios.recovery_rounds", 0),
        "scenarios.window_survival_share":
            traced.extra.get("scenarios.window_survival_share", 0.0),
        "workloads.build_s": setup["workloads.build"][0],
        "workloads.settle_rounds": traced.extra.get("workloads.settle_rounds", 0),
        "telemetry.overhead_share": traced.wall_s / plain.wall_s - 1.0,
        "telemetry.neutral": int(traced.sim == plain.sim),
        "bench.unattributed_share": 1.0 - attributed / traced.raw_wall_s,
        "bench.cpu_s": traced.cpu_s,
        "bench.spans": len(spans.spans),
        "bench.host_slowness": statistics.median(probe.clock.readings),
    }


def measure_traced(
    name: str, seed: int, sizes: Optional[Dict[str, Any]] = None,
    dump_to: Optional[Path] = None,
) -> dict:
    """A ``--trace 1`` run: instance 0 untraced, then traced with spans."""
    workload = WORKLOADS[name]
    sizes = workload.sizes if sizes is None else sizes
    seq = _instance_seq(name, seed, 0)
    untraced = Probe(NoSpans(), None, ReferenceClock())
    with instrumented(untraced):
        plain = workload.fn(seq, untraced, **sizes)
    gc.collect()
    spans = SpanRecorder(run_id=f"{name}:{seed}")
    probe = Probe(spans, TelemetryRecorder(), ReferenceClock(spans))
    with instrumented(probe):
        traced = workload.fn(seq, probe, **sizes)
    metrics = layer_metrics(probe, plain, traced)
    problems = plain.problems + traced.problems
    if not metrics["telemetry.neutral"]:
        problems.append("tracing changed a simulated statistic (telemetry.neutral = 0)")
    if dump_to is not None:
        spans.dump(dump_to)
    return {
        "problems": problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "detail": _detail([plain, traced], plain, probe.clock),
    }


def run_once(args: argparse.Namespace) -> int:
    """Driver mode: one run, result as the last stdout line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed dict/set layouts; pin them so host time is steady
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if args.trace:
        result = measure_traced(
            args.workload, args.seed,
            dump_to=OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl",
        )
    else:
        result = measure(args.workload, args.seed, args.seconds)
    units = {name: spec[0] for name, spec in (PER_LAYER if args.trace else END_TO_END).items()}
    for problem in result["problems"]:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    for metric, value in result["metrics"].items():
        print(f"{args.workload:<16} {metric:<34} {value:>16.6f} {units[metric]}")
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the campaign: interleaved repeats in subprocesses + traced pass + ledger
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter; never two at once."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run {name} seed={seed} trace={trace} failed "
                         f"(exit {proc.returncode})\n{proc.stdout}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarize(values: List[float]) -> dict:
    """Median, quartiles, count and spread (IQR / median) of one metric's samples."""
    # a single sample is its own quartiles
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def run_campaign(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:  # interleaved: A B C D A B C D ...
            print(f"# repeat {repeat + 1}/{args.repeats} {name}", file=sys.stderr)
            runs[name].append(_child(name, args.seed, args.seconds, 0))
    traced = {}
    for name in names:
        print(f"# traced pass {name}", file=sys.stderr)
        traced[name] = _child(name, args.seed, args.seconds, 1)

    problems: List[str] = []
    ledger: Dict[str, Any] = {
        "seed": args.seed, "repeats": args.repeats, "run_seconds": args.seconds,
        "nproc": os.cpu_count(), "python": sys.version.split()[0], "workloads": {},
    }
    declared = {**END_TO_END, **CAMPAIGN_END_TO_END}
    print(f"{'workload':<16} {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>3} {'spread':>7} unit")
    for name in names:
        samples: Dict[str, List[float]] = {}
        for run in runs[name]:
            for metric, cell in run["metrics"].items():
                samples.setdefault(metric, []).append(cell["value"])
            for metric, value in run["detail"]["campaign"].items():
                samples.setdefault(metric, []).append(value)
        end_to_end = {}
        for metric, values in samples.items():
            unit, better, bound = declared[metric]
            stats = summarize(values)
            if bound == 0 and len(set(values)) != 1:
                problems.append(f"{name}: {metric} differs between repeats of one seed: {values}")
            end_to_end[metric] = {**stats, "unit": unit, "better": better, "bound": bound}
            print(f"{name:<16} {metric:<34} {stats['median']:>14.6f} {stats['q1']:>14.6f} "
                  f"{stats['q3']:>14.6f} {stats['n']:>3} {stats['spread']:>7.4f} {unit}")
        sims = [run["detail"]["sim"] for run in runs[name]] + [traced[name]["detail"]["sim"]]
        if any(sim != sims[0] for sim in sims):
            problems.append(f"{name}: simulated statistics differ between runs of one seed")
        per_layer = dict(traced[name]["metrics"])
        per_layer["bench.repeat_spread"] = {
            "value": end_to_end["wall_s"]["spread"], "unit": "share"}
        for metric, cell in per_layer.items():
            print(f"{name:<16} {metric:<34} {cell['value']:>14.6f} {'':>14} {'':>14} "
                  f"{1:>3} {'':>7} {cell['unit']}")
        ledger["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "constants": WORKLOADS[name].sizes,
            "attempted": runs[name][0]["attempted"],
            "failed": sum(run["failed"] for run in runs[name]),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "sim": sims[0],
        }
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.against:
        problems += compare(json.loads(Path(args.against).read_text()), ledger)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(args.ledger) if args.ledger else OUT_DIR / f"ledger_seed{args.seed}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"ledger written to {path}", file=sys.stderr)
    return 1 if problems else 0


def compare(before: dict, after: dict) -> List[str]:
    """Regressions of ``after`` against ``before`` beyond each metric's bound."""
    problems = []
    if before["seed"] != after["seed"]:
        return [f"ledgers use different seeds ({before['seed']} vs {after['seed']})"]
    print(f"{'workload':<16} {'metric':<34} {'before':>14}    {'after':>14} {'worse by':>8}")
    for name, new in after["workloads"].items():
        old = before["workloads"].get(name)
        if old is None:
            continue
        for metric, cell in new["end_to_end"].items():
            base = old["end_to_end"].get(metric)
            if base is None:
                continue
            a, b, bound = base["median"], cell["median"], cell["bound"]
            worse = (b - a if cell["better"] == "lower" else a - b) / a if a else float(b != a)
            verdict = "ok"
            if (bound == 0 and a != b) or (bound > 0 and worse > bound):
                verdict = "REGRESSION" if bound else "CHANGED"
                problems.append(f"{name}: {metric} {a} -> {b} (bound {bound})")
            print(f"{name:<16} {metric:<34} {a:>14.6f} -> {b:>14.6f} {worse:>+8.2%} {verdict}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run (driver mode); omit for the whole campaign")
    parser.add_argument("--repeats", type=int, default=3,
                        help="campaign: interleaved repeats per workload (odd)")
    parser.add_argument("--ledger", help="campaign: where to write the ledger JSON")
    parser.add_argument("--against", help="campaign: a ledger to compare with, bound by bound")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_once(args)
    if args.repeats < 1 or args.repeats % 2 == 0:
        parser.error("--repeats must be odd")
    return run_campaign(args)


if __name__ == "__main__":
    sys.exit(main())
