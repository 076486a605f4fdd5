"""The adversity-event vocabulary of the scenario engine.

Every event is a named, parameterized mutation of the live campaign —
membership waves, network partitions, targeted state corruption, or
workload phase changes — applied at a round boundary through the paths
the simulation kernels track exactly:

* **membership** events (crash/leave/join waves, churn bursts) go
  through :meth:`ReChordNetwork.crash` / ``leave`` / ``join``, which
  feed the liveness-oracle refresh, watcher wakes and in-flight ref
  scans of the activity-tracked kernel;
* **corruption** events (finger poisoning, phantom refs, ring splits,
  partition severing) mutate :class:`repro.core.state.PeerState`
  directly — every effective mutation bumps the peer's version counter,
  so the out-of-band sweep in :meth:`ReChordNetwork.run_round`
  re-activates and re-baselines exactly the touched peers;
* **partition** events install a delivery-time drop filter on the
  scheduler (:meth:`SynchronousScheduler.set_drop_filter`), which is
  applied identically by both kernels and re-baselines every actor when
  installed or removed.

Because every path above is kernel-exact, a campaign executed on the
columnar kernel is round-for-round equivalent to the same campaign on
the full-scan kernel — ``tests/test_scenarios.py`` enforces
this for every named scenario.

Each event receives its own :class:`random.Random` derived from the
spec seed, the event's scheduled round, its kind, and its occurrence
index among same-round same-kind events — so adding or removing an
unrelated event never perturbs the draws of its neighbors, and a tuned
campaign stays comparable across spec edits.
"""

from __future__ import annotations

import inspect
import random
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.network import ReChordNetwork
from repro.graphs.digraph import EdgeKind
from repro.netsim.messages import envelope_canon
from repro.netsim.timemodel import stable_u64
from repro.traffic.generator import check_rate
from repro.workloads.churn import ChurnSchedule, apply_event
from repro.workloads.initial import random_peer_ids

#: event-kind registry: name -> handler(ctx, rng, **params)
EVENT_KINDS: Dict[str, Callable] = {}


def event_kind(name: str) -> Callable:
    """Decorator registering an event handler under ``name``."""

    def register(fn: Callable) -> Callable:
        EVENT_KINDS[name] = fn
        return fn

    return register


class EventContext:
    """What an event handler may touch.

    ``memory`` persists across events of one campaign (the heal event
    reads the cut its partition event stored); ``census`` counts applied
    sub-events per kind for the report.
    """

    def __init__(self, net: ReChordNetwork, plane=None) -> None:
        self.net = net
        self.plane = plane
        self.memory: Dict[str, Any] = {}
        self.census: Dict[str, int] = {}

    def count(self, kind: str, amount: int = 1) -> None:
        """Record ``amount`` applied sub-events of ``kind``."""
        self.census[kind] = self.census.get(kind, 0) + amount


def _wave_size(ctx: EventContext, rng: random.Random, count, fraction) -> int:
    """Resolve a wave size from an absolute count or a live fraction."""
    if count is not None:
        return int(count)
    if fraction is None:
        raise ValueError("wave events need either count or fraction")
    return max(1, int(len(ctx.net.peers) * float(fraction)))


#: the allowed values of the wave kinds' choice parameters
TARGETINGS = ("random", "clustered", "extremes")
GATEWAYS = ("random", "single")
#: wave kind -> (its choice parameter, the allowed values)
WAVE_CHOICES = {
    "crash_wave": ("targeting", TARGETINGS),
    "leave_wave": ("targeting", TARGETINGS),
    "flash_crowd": ("gateway", GATEWAYS),
}


def check_event(kind: str, params: dict) -> None:
    """Reject ``params`` that ``kind``'s handler would refuse (or
    silently misread) when the event fires: names outside its signature,
    and the wave kinds' size and choice knobs.  Each error names the
    offending field."""
    handler = EVENT_KINDS[kind]
    signature = inspect.signature(handler)
    accepted = list(signature.parameters.values())[2:]  # past (ctx, rng)
    if not any(p.kind is p.VAR_KEYWORD for p in accepted):
        names = {p.name for p in accepted}
        for name in params:
            if name not in names:
                raise ValueError(
                    f"params: unknown parameter {name!r} for {kind}; "
                    f"choose from {sorted(names)}"
                )
    if kind not in WAVE_CHOICES:
        return
    count, fraction = params.get("count"), params.get("fraction")
    if count is None and fraction is None:
        raise ValueError(f"params: {kind} needs either count or fraction")
    if count is not None and fraction is not None:
        raise ValueError(f"params: {kind} takes count or fraction, not both")
    if count is not None and (
        not isinstance(count, int) or isinstance(count, bool) or count < 0
    ):
        raise ValueError(f"params.count must be an integer >= 0, got {count!r}")
    if fraction is not None and (
        not isinstance(fraction, (int, float)) or isinstance(fraction, bool)
        or not 0 < fraction <= 1
    ):
        raise ValueError(f"params.fraction must be a number in (0, 1], got {fraction!r}")
    name, allowed = WAVE_CHOICES[kind]
    value = params.get(name, "random")
    if value not in allowed:
        raise ValueError(f"params.{name} must be one of {list(allowed)}, got {value!r}")


def _pick_victims(
    ctx: EventContext, rng: random.Random, size: int, targeting: str
) -> List[int]:
    """Choose wave victims; never empties the network below two peers."""
    ids = ctx.net.peer_ids  # sorted — identical under both kernels
    size = min(size, max(0, len(ids) - 2))
    if size <= 0:
        return []
    if targeting == "random":
        return rng.sample(ids, size)
    if targeting == "clustered":
        # consecutive on the identifier circle: the correlated failure
        # that wipes out a whole neighborhood of successor knowledge
        start = rng.randrange(len(ids))
        return [ids[(start + i) % len(ids)] for i in range(size)]
    if targeting == "extremes":
        # alternate ring-seam extremes: these peers hold the wrap
        # pointers and seam ring edges — the hardest single losses
        half = (size + 1) // 2
        return list(ids[-half:]) + list(ids[: size - half])
    raise ValueError(f"unknown targeting {targeting!r}")


# ----------------------------------------------------------------------
# membership waves
# ----------------------------------------------------------------------
@event_kind("crash_wave")
def crash_wave(
    ctx: EventContext,
    rng: random.Random,
    count: Optional[int] = None,
    fraction: Optional[float] = None,
    targeting: str = "random",
) -> None:
    """A correlated wave of abrupt failures (paper Theorem 4.2)."""
    for victim in _pick_victims(ctx, rng, _wave_size(ctx, rng, count, fraction), targeting):
        ctx.net.crash(victim)
        ctx.count("crash")


@event_kind("leave_wave")
def leave_wave(
    ctx: EventContext,
    rng: random.Random,
    count: Optional[int] = None,
    fraction: Optional[float] = None,
    targeting: str = "random",
) -> None:
    """A wave of graceful departures (farewell introductions sent)."""
    for victim in _pick_victims(ctx, rng, _wave_size(ctx, rng, count, fraction), targeting):
        ctx.net.leave(victim)
        ctx.count("leave")


@event_kind("flash_crowd")
def flash_crowd(
    ctx: EventContext,
    rng: random.Random,
    count: Optional[int] = None,
    fraction: Optional[float] = None,
    gateway: str = "random",
) -> None:
    """A burst of simultaneous joins (paper Theorem 4.1, en masse).

    ``gateway="single"`` funnels every newcomer through one existing
    peer — the hotspot case; ``"random"`` spreads them uniformly.
    """
    size = _wave_size(ctx, rng, count, fraction)
    net = ctx.net
    single = rng.choice(net.peer_ids) if gateway == "single" else None
    for _ in range(size):
        new_id = random_peer_ids(1, rng, net.space)[0]
        while new_id in net.peers:
            new_id = random_peer_ids(1, rng, net.space)[0]
        gw = single if single is not None else rng.choice(net.peer_ids)
        net.join(new_id, gw)
        ctx.count("join")


@event_kind("churn_burst")
def churn_burst(
    ctx: EventContext,
    rng: random.Random,
    events: int = 4,
    join_prob: float = 0.4,
    crash_prob: float = 0.3,
) -> None:
    """A scripted random mix of joins/leaves/crashes in one boundary."""
    schedule = ChurnSchedule.random(
        ctx.net,
        events=events,
        seed=rng.randrange(2**63),
        join_prob=join_prob,
        crash_prob=crash_prob,
    )
    for event in schedule:
        apply_event(ctx.net, event)
        ctx.count(event.kind)


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
def _partition_sides(
    ctx: EventContext, rng: random.Random, mode: str, fraction: float
) -> Set[int]:
    """The id set of side A of the cut."""
    ids = ctx.net.peer_ids
    if mode == "id_split":
        # a contiguous arc of the identifier circle — the geographically
        # correlated cut (one datacenter region vanishing)
        size = max(1, int(len(ids) * fraction))
        start = rng.randrange(len(ids))
        return {ids[(start + i) % len(ids)] for i in range(size)}
    if mode == "random":
        size = max(1, int(len(ids) * fraction))
        return set(rng.sample(ids, size))
    raise ValueError(f"unknown partition mode {mode!r}")


@event_kind("partition")
def partition(
    ctx: EventContext,
    rng: random.Random,
    mode: str = "id_split",
    fraction: float = 0.5,
    sever: bool = False,
) -> None:
    """Split the network: messages across the cut are silently dropped.

    The cut is a delivery-time drop filter (a pure function of the
    envelope endpoints); peers that join mid-partition land on side B.
    Endpoints still *appear* alive to the liveness oracle — the silent
    partition, not a crash — so each side keeps trying to talk across
    and traffic crossing the cut times out.

    ``sever=True`` additionally purges every cross-cut reference from
    peer state (partition detected by the connection layer): the sides
    must then rebuild two independent overlays and a later ``heal``
    event must re-bridge them explicitly.
    """
    side_a = frozenset(_partition_sides(ctx, rng, mode, fraction))
    ctx.memory["partition"] = {"side_a": side_a, "severed": bool(sever)}
    ctx.net.scheduler.set_drop_filter(
        lambda env, _a=side_a: (env.sender in _a) != (env.target in _a)
    )
    ctx.count("partition")
    if not sever:
        return
    for pid in ctx.net.peer_ids:
        state = ctx.net.peers[pid].state
        same = pid in side_a

        def crosses(ref) -> bool:
            return (ref.owner in side_a) != same

        for node in state.nodes.values():
            for attr in ("nu", "nr", "nc"):
                sset = getattr(node, attr)
                for ref in [r for r in sset if crosses(r)]:
                    sset.discard(ref)
            for attr in ("rl", "rr", "wrap_rl", "wrap_rr"):
                ref = getattr(node, attr)
                if ref is not None and crosses(ref):
                    setattr(node, attr, None)
        ctx.count("sever")


@event_kind("gray_failure")
def gray_failure(
    ctx: EventContext,
    rng: random.Random,
    fraction: float = 0.25,
    drop_prob: float = 0.3,
    seed: Optional[int] = None,
) -> None:
    """A seeded subset of peers turns *gray*: alive, but lossy.

    Gray failure is the partial, probabilistic sibling of the partition
    — the failing NIC or overloaded host that still answers often enough
    to evade the liveness oracle.  A seeded ``fraction`` of peers is
    marked gray; every message touching a gray endpoint is dropped with
    probability ``drop_prob``, keyed on the message *content* via
    :func:`repro.netsim.timemodel.stable_u64` — a pure function of the
    envelope, so both kernels (and replays) drop exactly the same
    messages and campaigns stay bit-for-bit reproducible.

    Self-addressed envelopes are exempt (workload injections post
    origin-to-origin and model the local request arrival, not a network
    link).  The resilient request plane's retries are the intended
    countermeasure: each relaunch is a *different* message (new attempt
    stamp), so it redraws its drop coin.  Clear with ``heal``.
    """
    if seed is None:
        seed = rng.randrange(2**63)
    ids = ctx.net.peer_ids
    size = min(max(1, int(len(ids) * float(fraction))), max(0, len(ids) - 2))
    gray = frozenset(rng.sample(ids, size)) if size > 0 else frozenset()
    threshold = min(int(float(drop_prob) * 2**64), 2**64 - 1)

    def drop(env, _gray=gray, _seed=int(seed), _thr=threshold) -> bool:
        if env.sender == env.target:
            return False
        if env.sender not in _gray and env.target not in _gray:
            return False
        return (
            stable_u64("gray", _seed, env.sender, env.target, envelope_canon(env))
            < _thr
        )

    ctx.net.scheduler.set_drop_filter(drop)
    ctx.memory["gray"] = {"peers": gray, "seed": int(seed), "drop_prob": float(drop_prob)}
    ctx.count("gray_failure")
    ctx.count("gray_peer", len(gray))


@event_kind("heal")
def heal(
    ctx: EventContext,
    rng: random.Random,
    bridges: int = 1,
) -> None:
    """Lift the partition (or gray-failure loss); re-bridge severed
    sides with unmarked edges.

    Clearing the drop filter resumes cross-cut flows.  If the partition
    was severed, the sides are structurally disjoint overlays, so
    ``bridges`` cross-cut unmarked edges are injected (weak connectivity
    is the protocol's merge precondition — a bridge is the minimum
    concession, exactly as in the two-rings adversarial start).
    """
    ctx.net.scheduler.set_drop_filter(None)
    ctx.memory.pop("gray", None)
    ctx.count("heal")
    cut = ctx.memory.pop("partition", None)
    if cut is None or not cut["severed"]:
        return
    side_a = [pid for pid in ctx.net.peer_ids if pid in cut["side_a"]]
    side_b = [pid for pid in ctx.net.peer_ids if pid not in cut["side_a"]]
    if not side_a or not side_b:
        return
    for _ in range(max(1, bridges)):
        u = rng.choice(side_a)
        v = rng.choice(side_b)
        ctx.net.add_initial_edge(ctx.net.ref(u), ctx.net.ref(v), EdgeKind.UNMARKED)
        ctx.count("bridge")


# ----------------------------------------------------------------------
# time-model adversity (repro.netsim.timemodel)
# ----------------------------------------------------------------------
@event_kind("set_latency")
def set_latency(ctx: EventContext, rng: random.Random, kind: str = "unit", **params: Any) -> None:
    """Install a delivery model mid-campaign (``kind="unit"`` restores
    the paper's synchronous delivery).

    ``params`` are the model's constructor knobs (see
    :data:`repro.netsim.timemodel.DELIVERY_KINDS`); the change is a
    kernel-exact flow event — the scheduler re-baselines every actor,
    identically on both kernels, and envelopes already in flight keep
    their assigned delivery rounds.
    """
    ctx.net.set_delivery_model({"kind": kind, **params})
    ctx.count("set_latency")


@event_kind("jitter_storm")
def jitter_storm(
    ctx: EventContext,
    rng: random.Random,
    bound: int = 3,
    seed: Optional[int] = None,
) -> None:
    """Adversarial reorder-within-bound jitter on every link.

    Each message draws a seeded delay in ``[1, bound]`` keyed on its
    content, so distinct messages on one link overtake each other — the
    asynchronous-delivery adversary of the universal monotonic-
    searchability setting, bounded so starvation stays impossible.
    """
    if seed is None:
        seed = rng.randrange(2**63)
    ctx.net.set_delivery_model({"kind": "reorder", "bound": int(bound), "seed": int(seed)})
    ctx.count("jitter_storm")


@event_kind("slow_links")
def slow_links(
    ctx: EventContext,
    rng: random.Random,
    fraction: float = 0.25,
    delay: int = 4,
    seed: Optional[int] = None,
) -> None:
    """A seeded fraction of directed links degrades to ``delay`` rounds.

    The heterogeneous-bandwidth population: most links stay fast, a
    seeded minority turns slow, and stabilization plus traffic must
    live with the mix (no message is ever lost — only late).
    """
    if seed is None:
        seed = rng.randrange(2**63)
    ctx.net.set_delivery_model(
        {"kind": "slow_links", "fraction": float(fraction), "delay": int(delay), "seed": int(seed)}
    )
    ctx.count("slow_links")


@event_kind("latency_partition")
def latency_partition(
    ctx: EventContext,
    rng: random.Random,
    mode: str = "id_split",
    fraction: float = 0.5,
    delay: int = 5,
) -> None:
    """Links crossing a cut turn slow — the partition's gentle sibling.

    Same cut geometry as the ``partition`` event, but cross-cut
    messages arrive ``delay`` rounds late instead of never: the WAN
    degradation where one region keeps answering, slowly.  Restore with
    ``set_latency`` (kind ``unit``).
    """
    side_a = _partition_sides(ctx, rng, mode, fraction)
    ctx.net.set_delivery_model(
        {"kind": "cross_cut", "side_a": sorted(side_a), "delay": int(delay)}
    )
    ctx.count("latency_partition")


@event_kind("set_daemon")
def set_daemon(ctx: EventContext, rng: random.Random, kind: str = "full", **params: Any) -> None:
    """Install an activation daemon mid-campaign (``kind="full"``
    restores the paper's every-actor rounds).

    ``params`` are the daemon's constructor knobs (see
    :data:`repro.netsim.timemodel.DAEMON_KINDS`).  Under a non-full
    daemon the configuration generally never repeats round-to-round,
    so campaigns should restore ``full`` before expecting recovery to
    detect a fixpoint.
    """
    ctx.net.set_daemon({"kind": kind, **params})
    ctx.count("set_daemon")


# ----------------------------------------------------------------------
# targeted state corruption
# ----------------------------------------------------------------------
@event_kind("poison_fingers")
def poison_fingers(
    ctx: EventContext,
    rng: random.Random,
    fraction: float = 0.5,
    edges_per_peer: int = 4,
) -> None:
    """Inject garbage marked/unmarked edges into live peer state.

    Random ring/connection/unmarked edges between arbitrary simulated
    nodes — the adversary that rewrites routing state without touching
    membership.  The forwarding rules must drain or convert every one
    of them (paper rules 4-6); corruption never removes edges, so weak
    connectivity is preserved.
    """
    net = ctx.net
    ids = net.peer_ids
    all_refs = [
        node.ref for pid in ids for node in net.peers[pid].state.nodes.values()
    ]
    victims = [pid for pid in ids if rng.random() < fraction]
    for pid in victims:
        for _ in range(edges_per_peer):
            src = rng.choice(
                [n.ref for n in net.peers[pid].state.nodes.values()]
            )
            dst = rng.choice(all_refs)
            kind = rng.choice(
                [EdgeKind.UNMARKED, EdgeKind.RING, EdgeKind.CONNECTION]
            )
            if dst != src:
                net.add_initial_edge(src, dst, kind)
                ctx.count("poison_edge")


@event_kind("phantom_refs")
def phantom_refs(
    ctx: EventContext,
    rng: random.Random,
    fraction: float = 0.5,
    levels_per_peer: int = 2,
    max_level: int = 8,
) -> None:
    """Excess virtual levels plus edges to levels nobody simulates.

    Pre-creates virtual nodes above the stable ``m*`` on a fraction of
    peers (rule 1 must delete the excess and re-home their
    neighborhoods) and points unmarked edges at *phantom* virtual refs
    (the purge step must re-point them, DESIGN.md [D11]).
    """
    net = ctx.net
    ids = net.peer_ids
    top = min(max_level, net.space.max_level())
    victims = [pid for pid in ids if rng.random() < fraction]
    for pid in victims:
        for _ in range(levels_per_peer):
            net.ensure_virtual(pid, rng.randint(1, top))
            ctx.count("virtual_level")
        owner = rng.choice(ids)
        phantom = net.ref(owner, rng.randint(1, top))
        src = net.ref(pid, 0)
        if phantom != src:
            net.add_initial_edge(src, phantom, EdgeKind.UNMARKED)
            ctx.count("phantom_edge")


@event_kind("ring_split")
def ring_split(ctx: EventContext, rng: random.Random) -> None:
    """Reset the whole overlay into the interleaved two-ring state.

    The classic-Chord-killing split, applied *mid-run* to live peers:
    every peer's neighborhoods are wiped, all virtual levels dropped,
    and the real nodes rewired into two parity-interleaved directed
    cycles joined by a single bridge edge (weak connectivity, the
    protocol's sole precondition).  In-flight protocol messages keep
    circulating — the arbitrary-state part of Theorem 1.1.
    """
    net = ctx.net
    ordered = net.peer_ids
    for pid in ordered:
        state = net.peers[pid].state
        for level in [lv for lv in state.nodes if lv != 0]:
            state.drop_level(level)
        node = state.nodes[0]
        node.nu.clear()
        node.nr.clear()
        node.nc.clear()
        node.rl = None
        node.rr = None
        node.wrap_rl = None
        node.wrap_rr = None
    if len(ordered) >= 2:
        for group in (ordered[0::2], ordered[1::2]):
            for i, u in enumerate(group):
                net.add_initial_edge(
                    net.ref(u), net.ref(group[(i + 1) % len(group)]), EdgeKind.UNMARKED
                )
        net.add_initial_edge(net.ref(ordered[0]), net.ref(ordered[1]), EdgeKind.UNMARKED)
    ctx.count("ring_split")


# ----------------------------------------------------------------------
# workload phases
# ----------------------------------------------------------------------
@event_kind("set_rate")
def set_rate(ctx: EventContext, rng: random.Random, rate: float = 0.0) -> None:
    """Change the workload arrival rate mid-campaign (0 pauses).

    Models load phases: a quiet overlay suddenly hit by a traffic
    spike, or load shed during an incident window.
    """
    if ctx.plane is None or ctx.plane.generator is None:
        raise ValueError("set_rate needs a traffic-carrying scenario")
    generator = ctx.plane.generator
    check_rate(rate)
    generator.rate = float(rate)
    generator.active = rate > 0
    ctx.count("set_rate")


def apply_event_spec(ctx: EventContext, rng: random.Random, kind: str, params: dict) -> None:
    """Dispatch one :class:`repro.scenarios.spec.EventSpec`."""
    handler = EVENT_KINDS.get(kind)
    if handler is None:
        raise ValueError(f"unknown event kind {kind!r}; choose from {sorted(EVENT_KINDS)}")
    handler(ctx, rng, **params)
