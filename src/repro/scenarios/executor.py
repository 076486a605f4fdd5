"""Campaign execution: drive a :class:`ScenarioSpec` against a live
network and produce a :class:`ScenarioReport`.

The executor owns the three campaign phases (start / adversity window /
recovery), fires events at their round boundaries through
:mod:`repro.scenarios.events`, keeps the traffic plane fed and its
deadline ledger swept, and samples the **repair curve** — per-boundary
local-checker violations (:func:`repro.core.checker.local_check_peer`),
pending protocol messages and outstanding operations — so a report
shows *how* the overlay healed, not only that it did.

Everything in the report is a deterministic function of
``(spec, kernel)``; kernel-specific instrumentation (executed/replayed
split) is carried in a comparison-excluded field so reports from the
two engines compare equal — the property ``tests/test_scenarios.py``
asserts for every named scenario.

Recovery ends when :class:`~repro.core.network.StabilityWatch`, the
one stability predicate that ``run_until_stable`` asks too, settles
with the traffic plane as its ledger: the configuration (states +
in-flight messages) has stopped changing over the daemon's fairness
window — it repeats after one round under full activation, after
``window`` rounds under a periodic daemon, and a ``partial`` run needs
a window in which every peer was activated, no peer state moved and
every payload still in flight was already consumed by its target —
and the operation ledger has drained (deadlines bound that wait).  The
round count reported is the boundary from which the configuration is
final; a campaign that does not settle within ``max_recovery_rounds``
reports ``recovery_rounds == -1`` and ``stable=False``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.checker import local_check_peer
from repro.core.network import NotStableError, ReChordNetwork, StabilityWatch
from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.experiments.scaling import build_ideal_network
from repro.netsim.rng import SeedSequence
from repro.scenarios.events import EventContext, apply_event_spec
from repro.scenarios.spec import ScenarioSpec
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.plane import TrafficPlane
from repro.workloads.initial import (
    build_random_network,
    build_shaped_network,
    build_two_rings_network,
    corrupt_network,
    random_peer_ids,
)


@dataclass(frozen=True)
class RecoverySample:
    """One point of the repair curve (taken at a round boundary)."""

    round: int
    peers: int
    failing_peers: int
    check_violations: int
    pending_messages: int
    outstanding_ops: int
    completed_ops: int


@dataclass(frozen=True)
class ScenarioReport:
    """Deterministic outcome of one campaign.

    ``recovery_rounds`` follows the paper's Fig. 6 convention: the index
    (relative to the end of the adversity window) of the first round
    boundary whose configuration never changes again, as the stability
    predicate judges it (-1, with ``stable`` false, when recovery did
    not settle within ``max_recovery_rounds``).  What "never changes"
    covers depends on the daemon kind, so the counts of two kinds do
    not compare: under ``partial`` it is the boundary after which no
    peer state moved; under ``full``, ``round_robin`` and ``unfair`` it
    is the boundary from which the whole configuration, in-flight
    messages included, repeats (``seam-crash`` at ``n=6``, seeds 1–5,
    reads 0–2 rounds under ``partial`` and 11–12 under ``full``).
    ``config_digest``
    is a stable digest of the final global configuration — two runs of
    the same ``(spec, kernel)`` pair, and the same spec across the two
    kernels, must produce byte-identical digests.  ``activity`` carries
    kernel-specific instrumentation and is excluded from comparison.
    """

    name: str
    n: int
    seed: int
    peers_start: int
    peers_final: int
    rounds_adversity: int
    recovery_rounds: int
    rounds_total: int
    stable: bool
    ideal: bool
    event_census: Dict[str, int]
    samples: Tuple[RecoverySample, ...]
    slo: Optional[dict]
    rule_fires: int
    config_digest: str
    #: drop-filter hits per event window, in campaign order: ("start",
    #: total), one (f"r{round}:{kinds}", total) per event-firing round,
    #: then ("recovery", total).  Drops are behavior-affecting, so the
    #: totals are engine-invariant and participate in comparison.
    dropped_by_window: Tuple[Tuple[str, int], ...] = ()
    #: survival metric: per event window, ``(label, ops issued during
    #: the window, ops that eventually reached the true owner)`` —
    #: "eventually" includes completions that landed after the window
    #: closed (e.g. a retry that succeeded during recovery), which is
    #: exactly the mass-failure question: do ops issued *during* the
    #: failure window still succeed once the overlay heals?  Windows
    #: with no issued ops are omitted.  Engine-invariant, compared.
    survival_by_window: Tuple[Tuple[str, int, int], ...] = ()
    activity: Dict[str, int] = field(compare=False, default_factory=dict)
    #: per-window telemetry segments + final census when the campaign
    #: ran with a recorder attached (None otherwise); wall-clock data
    #: never participates in comparison
    telemetry: Optional[dict] = field(compare=False, default=None)

    def to_dict(self) -> dict:
        """JSON-serializable form (stable key order left to callers)."""
        return {
            **vars(self),
            "event_census": dict(sorted(self.event_census.items())),
            "samples": [vars(s) for s in self.samples],
            "dropped_by_window": [list(w) for w in self.dropped_by_window],
            "survival_by_window": [list(w) for w in self.survival_by_window],
            "activity": dict(self.activity),
        }


def _build_start(
    spec: ScenarioSpec,
    seq: SeedSequence,
    engine: str = "columnar",
) -> ReChordNetwork:
    """Materialize the campaign's initial topology."""
    params = dict(spec.start_params)
    build_seed = seq.child("build").seed()
    stabilize = params.pop("stabilize", False)
    # corrupt: False | True | {corrupt_network kwargs} (intensity knobs)
    corrupt = params.pop("corrupt", False)
    corrupt_kw = dict(corrupt) if isinstance(corrupt, dict) else {}
    if spec.start == "ideal":
        net = build_ideal_network(spec.n, build_seed, engine=engine)
    elif spec.start == "random":
        net = build_random_network(spec.n, build_seed, engine=engine, **params)
    elif spec.start == "two_rings":
        rng = seq.child("ids").rng()
        from repro.idspace.ring import IdSpace

        space = IdSpace()
        ids = random_peer_ids(spec.n, rng, space)
        net = build_two_rings_network(ids, space, engine=engine)
    else:  # a degenerate shape
        net = build_shaped_network(spec.start, spec.n, build_seed, engine=engine)
    if corrupt:
        corrupt_network(net, seq.child("corrupt").seed(), **corrupt_kw)
    if stabilize:
        net.run_until_stable(max_rounds=spec.max_recovery_rounds)
    return net


def _sample(
    net: ReChordNetwork, plane: Optional[TrafficPlane], checked: Dict[int, tuple]
) -> RecoverySample:
    """One repair-curve point.  ``checked`` memoizes the local checker
    for the duration of one campaign: it reads only the peer's own
    ``PeerState``, so its violation count is a pure function of
    ``(state, state.version)`` — a re-joined id brings a fresh state
    object and misses."""
    failing = 0
    violations = 0
    for pid, peer in net.peers.items():
        state = peer.state
        hit = checked.get(pid)
        if hit is None or hit[0] is not state or hit[1] != state.version:
            hit = checked[pid] = (state, state.version, len(local_check_peer(peer)))
        if hit[2]:
            failing += 1
            violations += hit[2]
    return RecoverySample(
        round=net.round_no,
        peers=len(net.peers),
        failing_peers=failing,
        check_violations=violations,
        pending_messages=net.scheduler.pending_messages(),
        outstanding_ops=(
            plane.collector.outstanding_count() if plane is not None else 0
        ),
        completed_ops=(plane.collector.completed_count if plane is not None else 0),
    )


def run_scenario(
    spec: ScenarioSpec,
    engine: str = "columnar",
    telemetry: object = None,
) -> ScenarioReport:
    """Execute one campaign and report recovery + SLO metrics.

    ``engine`` selects the simulation kernel (``"columnar"`` or the
    full-scan spec ``"full"``); the report (minus the comparison-excluded
    ``activity`` and ``telemetry`` fields) is identical for both — the
    engine-equivalence suite runs every named scenario through this
    function once per kernel and compares.

    ``telemetry`` opts the campaign into the observation plane: pass
    ``True`` for a fresh :class:`repro.telemetry.TelemetryRecorder` or
    an existing recorder to reuse (e.g. one with a wider trace sampling
    interval).  The recorder is attached *before* the traffic plane so
    sampled ops carry hop traces, which are harvested into the recorder
    at campaign end; per-window counter segments and the final census
    land in the report's ``telemetry`` field.  Attaching a recorder
    never changes the rest of the report (the observational contract of
    :meth:`ReChordNetwork.enable_telemetry`).
    """
    seq = SeedSequence(spec.seed).child("scenario", spec.name, n=spec.n)
    net = _build_start(spec, seq, engine)
    recorder = None
    if telemetry:
        recorder = net.enable_telemetry(None if telemetry is True else telemetry)
    # campaign-wide time model: installed after the (unit-time) start
    # phase so pre-stabilized starts build fast, before any traffic or
    # adversity round runs; both kernels install identically
    if spec.latency is not None:
        net.set_delivery_model(dict(spec.latency))
    if spec.daemon is not None:
        net.set_daemon(dict(spec.daemon))
    peers_start = len(net.peers)

    plane: Optional[TrafficPlane] = None
    if spec.traffic is not None:
        t = spec.traffic
        store = None
        if t.needs_store():
            store = KeyValueStore(ReChordRouter(net))
        plane = TrafficPlane(
            net,
            store=store,
            default_deadline=t.deadline,
            sketch_quantiles=t.sketch_quantiles,
            max_attempts=t.max_attempts,
            retry_backoff=t.retry_backoff,
            hedge_after=t.hedge_after,
            route_redundancy=t.route_redundancy,
            # the jitter stream derives from the campaign seed, so two
            # same-seed runs (on any kernel) retry in lockstep
            retry_seed=seq.child("retry").seed(),
        )
        # no explicit per-op deadline: ops fall through to the plane's
        # default, which scales with the installed delivery model's
        # wire-delay bound (identical to t.deadline under unit delivery)
        WorkloadGenerator(
            plane,
            rate=t.rate,
            op_mix=t.op_mix,
            key_universe=t.key_universe,
            popularity=t.popularity,
            zipf_s=t.zipf_s,
            ttl=t.ttl,
            max_outstanding=t.max_outstanding,
            seed=seq.child("workload").seed(),
        )

    ctx = EventContext(net, plane)
    # each event's RNG stream is keyed on (round, kind, occurrence among
    # same-round same-kind events) — NOT its position in spec.events —
    # so inserting or removing an unrelated event leaves every other
    # event's draws untouched (the tunability contract of events.py)
    timeline: Dict[int, List[Tuple[tuple, str, dict]]] = {}
    occurrence: Dict[Tuple[int, str], int] = {}
    for event in spec.events:
        k = occurrence.get((event.at, event.kind), 0)
        occurrence[(event.at, event.kind)] = k + 1
        stream = ("event", event.at, event.kind, k)
        timeline.setdefault(event.at, []).append((stream, event.kind, dict(event.params)))

    checked: Dict[int, tuple] = {}  # _sample's memo, dies with this run
    samples: List[RecoverySample] = [_sample(net, plane, checked)]

    # ---- event windows ----------------------------------------------
    # the campaign is segmented at event-firing rounds: "start", one
    # f"r{round}:{kinds}" window per firing boundary, then "recovery".
    # per-window drop-filter hits are engine-invariant (drops change
    # behavior, so the equivalence suites pin them); per-window
    # telemetry counter segments ride along when a recorder is attached
    window = "start"
    window_order: List[str] = [window]
    window_drops: Dict[str, int] = {window: 0}
    window_rounds: Dict[str, int] = {window: 0}
    window_opens: Dict[str, int] = {window: net.round_no}
    tel_segments: List[dict] = []
    tel_snap = [0, 0, 0]  # recorder (rounds, sent, dropped) at window open

    def _flush_segment() -> None:
        if recorder is None:
            return
        c = recorder.counters
        cur = [c.get("rounds", 0), c.get("sent", 0), c.get("dropped", 0)]
        if cur[0] > tel_snap[0]:
            tel_segments.append(
                {
                    "window": window,
                    "rounds": cur[0] - tel_snap[0],
                    "sent": cur[1] - tel_snap[1],
                    "dropped": cur[2] - tel_snap[2],
                }
            )
        tel_snap[:] = cur

    def _open_window(label: str) -> None:
        nonlocal window
        _flush_segment()
        window = label
        if label not in window_drops:
            window_order.append(label)
            window_drops[label] = 0
            window_rounds[label] = 0
            window_opens[label] = net.round_no

    def run_one_round() -> None:
        if plane is not None:
            plane.run_round()
        else:
            net.run_round()
        window_drops[window] += net.scheduler.dropped_last_round
        window_rounds[window] += 1

    # ---- adversity window -------------------------------------------
    for offset in range(spec.rounds):
        fired_kinds: List[str] = []
        for stream, kind, params in timeline.get(offset, ()):
            rng = seq.child(*stream).rng()
            apply_event_spec(ctx, rng, kind, params)
            fired_kinds.append(kind)
        fired = bool(fired_kinds)
        if fired:
            # capture the damage at the boundary it lands on, before the
            # protocol gets a round to repair it (the repair curve's peak)
            samples.append(_sample(net, plane, checked))
            _open_window(
                f"r{net.round_no}:{'+'.join(sorted(set(fired_kinds)))}"
            )
        run_one_round()
        if fired or (offset + 1) % spec.sample_every == 0:
            samples.append(_sample(net, plane, checked))

    # ---- recovery: workload off, run to configuration fixpoint ------
    if plane is not None and plane.generator is not None:
        plane.generator.active = False
    _open_window("recovery")
    adversity_end = net.round_no
    watch = StabilityWatch(net, plane)
    try:
        for executed in watch.run(spec.max_recovery_rounds, run_one_round):
            if executed % spec.sample_every == 0:
                samples.append(_sample(net, plane, checked))
    except NotStableError:
        pass  # reported as recovery_rounds == -1, stable=False
    recovery_rounds = -1 if watch.stable_from is None else watch.stable_from
    if samples[-1].round != net.round_no:
        samples.append(_sample(net, plane, checked))

    # ---- survival: eventual success of ops issued per window --------
    # attribute every completion to the window its *issue* round fell
    # in; a retry completing during recovery still credits the failure
    # window it was issued in — the resilience gate's survival floor
    survival: Tuple[Tuple[str, int, int], ...] = ()
    if plane is not None:
        from bisect import bisect_right as _bisect_right

        labels = [w for w in window_order if window_rounds.get(w)]
        opens = [window_opens[w] for w in labels]
        tallies = plane.collector.tallies_by(
            lambda issue_round: labels[max(_bisect_right(opens, issue_round) - 1, 0)]
        )
        survival = tuple((w, done, routed) for w, (done, routed, _, _) in tallies.items())

    digest = hashlib.sha256(repr(net.fingerprint()).encode()).hexdigest()[:16]
    activity: Dict[str, int] = {}
    if net.incremental:
        executed_last, replayed_last = net.activity_stats()
        activity = {
            "executed_last_round": executed_last,
            "replayed_last_round": replayed_last,
            "dirty_next_round": net.scheduler.dirty_count(),
        }
    tel_out: Optional[dict] = None
    if recorder is not None:
        _flush_segment()
        if plane is not None:
            # harvest hop traces of completed sampled ops into the sink
            for comp in plane.collector.traced():
                recorder.add_trace(
                    comp.op_id, comp.op, comp.outcome, comp.trace.hops
                )
        tel_out = {
            "census": net.telemetry_census(),
            "kernel": recorder.kernel_stats(),
            "segments": tel_segments,
        }
    return ScenarioReport(
        name=spec.name,
        n=spec.n,
        seed=spec.seed,
        peers_start=peers_start,
        peers_final=len(net.peers),
        rounds_adversity=adversity_end,
        recovery_rounds=recovery_rounds,
        rounds_total=net.round_no,
        stable=recovery_rounds >= 0,
        ideal=net.matches_ideal() if not net.scheduler.has_drop_filter() else False,
        event_census=dict(sorted(ctx.census.items())),
        samples=tuple(samples),
        slo=plane.collector.summary() if plane is not None else None,
        rule_fires=net.counters().total(),
        config_digest=digest,
        dropped_by_window=tuple(
            (w, window_drops[w]) for w in window_order if window_rounds[w]
        ),
        survival_by_window=survival,
        activity=activity,
        telemetry=tel_out,
    )
