"""Top-level Re-Chord network facade.

Builds a network from any initial topology, drives the synchronous rounds,
detects stabilization, and exposes the dynamic-membership operations
(join / graceful leave / crash) analyzed in Section 4 of the paper.

Stability detection: the rule dynamics are deterministic, so the network
is stable exactly when the global configuration — all peer states *plus*
the in-flight messages — repeats between consecutive round boundaries.
The stable state is a constant flow (connection edges keep streaming,
ring-edge requests keep re-issuing), so peer states alone would not be a
sound criterion; the fingerprint therefore includes pending messages.

Engines
-------

Two kernels drive the rounds:

* ``engine="columnar"`` (default) — the **activity-tracked** kernel: the
  scheduler only executes peers that can behave differently from their
  last executed step (dirty set + steady-emission replay, see
  :mod:`repro.netsim.scheduler` and :mod:`repro.netsim.columnar`), and
  ``run_until_stable`` detects the configuration fixpoint from the
  scheduler's O(active-work) change flag instead of recomputing the full
  O(n) fingerprint every round.  Post-churn re-stabilization then costs
  time proportional to the *touched neighborhood* (paper Theorems
  4.1/4.2), not to ``n``; the kernel picks its round loop per round from
  how many peers are dirty (dense cold-start rounds run the tracked
  loop, sparse ones the columnar loop).
* ``engine="full"`` — the full-scan kernel: every peer steps every round
  and stability compares complete fingerprints.  Kept as the executable
  reference; the differential test suite asserts the two are
  round-for-round equivalent (identical reports, fingerprints and rule
  counters) on random topologies, corrupt starts and churn schedules.

The kernel also fixes the rule pipeline, there is no separate setting:
the full-scan kernel steps each peer through the scalar pipeline of
:mod:`repro.core.protocol` (the spec), the activity-tracked kernel runs
the phase-major pipeline of :mod:`repro.core.rules_batched` (the fast
path) over each round's dirty peers.

The network layer owns the two pieces of tracking the scheduler cannot
see:

* **out-of-band mutations** — tests and membership events mutate peer
  state directly between rounds; every ``PeerState`` carries a version
  counter bumped by all mutating operations, and ``run_round`` sweeps it
  against the scheduler's last-noted versions to re-activate (and
  re-baseline) silently edited peers;
* **liveness-oracle dependencies** — a peer's purge step consults
  ``_ref_alive`` about *other* peers, so a membership event or a remote
  level-set change must re-activate exactly the peers holding references
  to the changed owner.  A reverse index (``owner -> watchers``) is
  maintained from each peer's ``referenced_owners()`` whenever its state
  changes at a boundary; the peers about to *receive* such a reference
  in flight are the kernel's answer to one ``ref_receivers`` query at
  the next round start.  Rounds are atomic: joins, leaves and crashes
  (and anything else that changes the scheduler) act between rounds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import NeighborIntro
from repro.core.ideal import IdealTopology, compute_ideal
from repro.core.noderef import NodeRef, make_ref
from repro.core.protocol import REF_DEAD, REF_OK, REF_PHANTOM, ReChordPeer
from repro.core.rules import RuleConfig, RuleCounters
from repro.core.rules_batched import BatchedRuleEngine
from repro.core.state import PeerState
from repro.graphs.digraph import EdgeKind, TypedDigraph
from repro.idspace.ring import IdSpace
from repro.netsim.columnar import ColumnarScheduler
from repro.netsim.messages import AppPayload, Envelope
from repro.netsim.scheduler import SynchronousScheduler
from repro.netsim.timemodel import TimeModel

#: the kernels ``ReChordNetwork(engine=...)`` accepts (module docstring)
ENGINES = ("full", "columnar")


class NotStableError(RuntimeError):
    """:meth:`ReChordNetwork.run_until_stable` ran out of rounds — the
    one outcome an experiment may score as non-convergence."""


@dataclass(frozen=True)
class StabilizationReport:
    """Outcome of :meth:`ReChordNetwork.run_until_stable`.

    ``rounds_to_stable`` is the paper's Fig. 6 metric: the index of the
    first round boundary whose configuration never changes again.
    ``rounds_to_almost`` is the first boundary at which all *desired*
    edges of the ideal topology exist (extra edges permitted); ``None``
    if almost-stability tracking was disabled.
    """

    rounds_to_stable: int
    rounds_to_almost: Optional[int]
    rounds_executed: int


class ConfigSnapshot:
    """The global configuration at one round boundary, not yet in
    canonical form (:meth:`ReChordNetwork.config_snapshot`).

    Holds each peer's memoized ``state.canonical()`` tuple and the
    lists the scheduler copies out of its in-flight envelopes and its
    scheduled ``(remaining, envelope)`` deliveries: O(pending)
    reference copies, no canonicalization and no sort.  It stays exact after the network
    moves on because everything it references is immutable — canonical
    state tuples are plain tuples rebuilt (never edited) when a peer
    changes, envelopes are frozen, and so are their payloads, which the
    kernels replace rather than mutate.  :meth:`canonical` is the
    fingerprint of that boundary, computed on first use and kept.
    """

    __slots__ = ("_peers", "_sent", "_scheduled", "_canonical")

    def __init__(
        self,
        peers: tuple,
        sent: List[Envelope],
        scheduled: List[Tuple[int, Envelope]],
    ) -> None:
        self._peers = peers
        self._sent = sent
        self._scheduled = scheduled
        self._canonical: Optional[tuple] = None

    def canonical(self) -> tuple:
        """``(peer states, sorted in-flight entries)``: the value
        :meth:`ReChordNetwork.fingerprint` returns for this boundary.

        A scheduled delivery carries its remaining delay, because the
        same envelope at different maturities is a different
        configuration; under unit delivery there are none.
        """
        if self._canonical is None:
            entries = [(env.target, env.payload.canonical()) for env in self._sent]
            for remaining, env in self._scheduled:
                entries.append((env.target, env.payload.canonical(), remaining))
            self._canonical = (self._peers, tuple(sorted(entries)))
        return self._canonical


class ReChordNetwork:
    """A set of Re-Chord peers driven by the synchronous kernel.

    The facade owns construction (peers, initial edges), round
    execution, stability detection, membership dynamics and the
    liveness oracle.  Minimal end-to-end use — two peers, one initial
    edge, run to the configuration fixpoint:

    >>> from repro.core.network import ReChordNetwork
    >>> net = ReChordNetwork()
    >>> a, b = net.add_peer(100), net.add_peer(9000)
    >>> net.add_initial_edge(net.ref(100), net.ref(9000))
    >>> report = net.run_until_stable()
    >>> net.matches_ideal()
    True
    >>> report.rounds_to_stable == report.rounds_executed - 1
    True

    Random weakly connected starts come from
    :func:`repro.workloads.initial.build_random_network`, adversity
    campaigns from :mod:`repro.scenarios`.
    """

    def __init__(
        self,
        space: Optional[IdSpace] = None,
        config: Optional[RuleConfig] = None,
        time_model: Optional[TimeModel] = None,
        engine: str = "columnar",
    ) -> None:
        self.space = space if space is not None else IdSpace()
        self.config = config if config is not None else RuleConfig()
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
        #: selected kernel: "full" (the full-scan reference) or
        #: "columnar" (the activity-tracked kernel)
        self.engine = engine
        #: whether the activity-tracked kernel drives the rounds (read-only)
        self.incremental = engine != "full"
        if self.incremental:
            self.scheduler: SynchronousScheduler = ColumnarScheduler(time_model=time_model)
            # the kernel picks the rule pipeline (module docstring): the
            # full-scan spec steps peer by peer, the tracked kernel
            # batches.  The pipeline keeps this oracle's verdicts per
            # oracle epoch
            self.scheduler.set_batch_stepper(
                BatchedRuleEngine(
                    oracle=self._ref_alive, oracle_epoch=self.oracle_epoch,
                    oracle_moves=self.oracle_moves,
                )
            )
        else:
            self.scheduler = SynchronousScheduler(time_model=time_model)
        self.peers: Dict[int, ReChordPeer] = {}
        #: the liveness oracle's frozen map: owner -> levels it simulates.
        #: Written only through _note_levels / _forget_levels / the
        #: full-scan rebuild, each of which moves the oracle epoch
        self._level_snapshot: Dict[int, frozenset] = {}
        self._oracle_epoch = 0
        #: owner -> the oracle epoch at which its answers last moved
        self._oracle_moved: Dict[int, int] = {}
        #: tracked kernel: owner ids referenced by each peer ...
        self._refs_out: Dict[int, frozenset] = {}
        #: ... and its inverse: peers whose purge consults each owner
        self._watchers: Dict[int, Set[int]] = {}
        #: peers whose boundary maintenance is due at the next round start
        #: (deferred so the oracle snapshot keeps the legacy round-start
        #: timing: changes made during round r become visible in round r+1)
        self._pending_refresh: Set[int] = set()
        #: owners whose liveness/phantom verdicts flipped since the last
        #: in-flight scan (level-set changes, membership); drained into
        #: one _wake_flow_refs pass per round start
        self._level_flips: Set[int] = set()
        #: application-plane handler installed on every peer (repro.traffic)
        self._traffic_handler = None
        #: telemetry recorder wired into the scheduler and every peer
        #: (repro.telemetry); None = disabled, the bit-for-bit default
        self.telemetry = None
        #: bumped on every join/leave/crash — cheap staleness probe for
        #: snapshot consumers (ReChordRouter caches key on view_version())
        self._membership_version = 0
        #: bumped on out-of-band topology edits (initial edges, pre-made
        #: virtual levels) that change the projection without a round
        self._mutation_version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: int) -> ReChordPeer:
        """Register a fresh peer (real node only, empty neighborhoods)."""
        self.space.check_id(peer_id)
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer_id}")
        state = PeerState(peer_id, self.space)
        peer = ReChordPeer(state, self.config, self._ref_alive)
        self.peers[peer_id] = peer
        if self.incremental:
            # defensive: stale references to this (formerly dead) id flip
            # their liveness verdict, so their holders must re-run
            self._membership_flip(peer_id)
            self._refs_out[peer_id] = frozenset()
        peer.traffic = self._traffic_handler
        peer.telemetry = self.telemetry
        self.scheduler.add_actor(peer_id, peer)
        self._note_levels(peer_id)
        self._membership_version += 1
        return peer

    def ensure_virtual(self, peer_id: int, level: int) -> NodeRef:
        """Pre-create a virtual node (for corrupt initial states)."""
        self._mutation_version += 1
        node = self.peers[peer_id].state.ensure_level(level)
        if not self.incremental:
            self._note_levels(peer_id)
        # tracked kernel: the version sweep in run_round refreshes the
        # snapshot AND re-activates peers watching this owner
        return node.ref

    def ref(self, peer_id: int, level: int = 0) -> NodeRef:
        """The ref of node ``level`` of ``peer_id`` (id derived)."""
        return make_ref(self.space, peer_id, level)

    def add_initial_edge(
        self,
        src: NodeRef,
        dst: NodeRef,
        kind: EdgeKind = EdgeKind.UNMARKED,
    ) -> None:
        """Inject an edge into the initial state (before any round).

        Creates the source node if it does not exist yet; the target may
        be any ref (including refs the protocol will later sanitize).
        """
        peer = self.peers.get(src.owner)
        if peer is None:
            raise KeyError(f"unknown peer {src.owner}")
        self._mutation_version += 1
        node = peer.state.ensure_level(src.level)
        if not self.incremental:
            self._note_levels(src.owner)
        if dst == node.ref:
            return
        if kind is EdgeKind.UNMARKED:
            node.nu.add(dst)
        elif kind is EdgeKind.RING:
            node.nr.add(dst)
        elif kind is EdgeKind.CONNECTION:
            node.nc.add(dst)
        else:
            raise ValueError(f"initial edges cannot be of kind {kind}")

    # ------------------------------------------------------------------
    # application plane (repro.traffic)
    # ------------------------------------------------------------------
    class _NullTrafficHandler:
        """Installed by :meth:`detach_traffic`: swallows in-flight
        traffic payloads so outstanding operations time out quietly
        instead of hitting the no-plane-attached error path."""

        def handle(self, peer, payloads, ctx) -> None:
            """Drop the payloads."""

    def attach_traffic(self, handler) -> None:
        """Install an application-plane handler on every peer.

        ``handler`` must provide ``handle(peer, payloads, ctx)`` (see
        :class:`repro.traffic.plane.TrafficPlane`); it receives the
        :class:`repro.netsim.messages.AppPayload` messages delivered to
        each peer, after the peer's stabilization rules ran, and may emit
        follow-up messages through ``ctx``.  Current and future peers are
        wired; use :meth:`detach_traffic` to unhook.

        Raises ``ValueError`` while application mail is in flight (next
        round's inboxes or the future queue): it belongs to an earlier
        plane, whose op ids the new one would reuse — it would handle
        the old requests and complete its own ops with the old replies.
        """
        sched = self.scheduler
        in_flight = sum(
            isinstance(env.payload, AppPayload)
            for env in [*sched.all_pending(), *(env for _, env in sched.future_pending())]
        )
        if in_flight:
            raise ValueError(
                f"{in_flight} application message(s) of an earlier traffic plane "
                "still in flight: after detach(), run rounds until they have been "
                "delivered (and dropped) before attaching a new plane"
            )
        self._traffic_handler = handler
        for peer in self.peers.values():
            peer.traffic = handler

    def detach_traffic(self) -> None:
        """Unhook the application plane from every peer.

        Traffic still in flight is dropped at delivery (a null handler
        replaces the plane), so outstanding operations simply time out;
        run rounds until it is gone before attaching another plane.
        """
        handler = ReChordNetwork._NullTrafficHandler()
        self._traffic_handler = handler
        for peer in self.peers.values():
            peer.traffic = handler

    # ------------------------------------------------------------------
    # telemetry plane (repro.telemetry)
    # ------------------------------------------------------------------
    def enable_telemetry(self, recorder=None):
        """Attach a telemetry recorder to the kernel and every peer.

        Purely observational (counters, wall-clock phase spans, sampled
        op traces): a run with telemetry enabled is bit-for-bit
        identical to the same run without — fingerprints, reports and
        baselines do not move.  Pass an existing
        :class:`repro.telemetry.TelemetryRecorder` to share one sink
        across networks, or let this create a fresh one.  Returns the
        attached recorder.
        """
        if recorder is None:
            from repro.telemetry import TelemetryRecorder

            recorder = TelemetryRecorder()
        self.telemetry = recorder
        self.scheduler.set_telemetry(recorder)
        for peer in self.peers.values():
            peer.telemetry = recorder
        return recorder

    def disable_telemetry(self) -> None:
        """Detach the telemetry recorder from the kernel and all peers."""
        self.telemetry = None
        self.scheduler.set_telemetry(None)
        for peer in self.peers.values():
            peer.telemetry = None

    def telemetry_census(self) -> dict:
        """The deterministic counter census, rule firings included.

        Merges the engine-invariant telemetry counters with a snapshot
        of the per-rule firing counters (which the protocol layer counts
        whether or not telemetry is enabled).  Raises if no recorder is
        attached.
        """
        if self.telemetry is None:
            raise RuntimeError("telemetry is not enabled on this network")
        self.telemetry.rule_fires = dict(self.counters().fires)
        return self.telemetry.census()

    @property
    def membership_version(self) -> int:
        """Monotonic counter of membership events (join/leave/crash)."""
        return self._membership_version

    def view_version(self) -> Tuple[int, int, int]:
        """Cheap staleness token for snapshot views of this network.

        Changes whenever membership changes, an out-of-band topology
        edit lands (:meth:`add_initial_edge` / :meth:`ensure_virtual`),
        or a round executes — the events that can invalidate a
        materialized routing view.  Snapshot consumers
        (:class:`repro.dht.lookup.ReChordRouter`) compare it against
        the version they were built at.  (Direct mutation of peer state
        in tests is outside the token's contract until the next round.)
        """
        return (self._membership_version, self._mutation_version, self.scheduler.round_no)

    # ------------------------------------------------------------------
    # liveness oracle ([D7]/[D11])
    # ------------------------------------------------------------------
    def _ref_alive(self, ref: NodeRef) -> str:
        levels = self._level_snapshot.get(ref.owner)
        if levels is None:
            return REF_DEAD
        return REF_OK if ref.level in levels else REF_PHANTOM

    def oracle_epoch(self) -> int:
        """Moves whenever an answer of the liveness oracle may: a verdict
        is a pure function of the ref given the frozen level map, so a
        consumer (the fast pipeline's purge phase) may keep verdicts for
        as long as the epoch stands.  It only ever grows."""
        return self._oracle_epoch

    def oracle_moves(self) -> Dict[int, int]:
        """``owner -> the epoch at which its answers last moved`` (read
        only): a verdict on a ref of an owner missing here, or moved at
        or before epoch ``e``, is the one it was at ``e``.  Under the
        columnar kernel only; the full-scan rebuild moves the epoch
        for every owner at once and is not recorded here."""
        return self._oracle_moved

    def _note_levels(self, pid: int) -> bool:
        """Freeze ``pid``'s current level set into the oracle's map;
        returns whether it changed."""
        levels = frozenset(self.peers[pid].state.nodes)
        if levels == self._level_snapshot.get(pid):
            return False
        self._level_snapshot[pid] = levels
        self._oracle_epoch += 1
        self._oracle_moved[pid] = self._oracle_epoch
        return True

    def _forget_levels(self, pid: int) -> None:
        """``pid`` is gone: its refs answer ``dead`` from now on."""
        if self._level_snapshot.pop(pid, None) is not None:
            self._oracle_epoch += 1
            self._oracle_moved[pid] = self._oracle_epoch

    # ------------------------------------------------------------------
    # activity bookkeeping (tracked kernel)
    # ------------------------------------------------------------------
    def _flush_pending_refresh(self) -> None:
        """Apply deferred boundary maintenance immediately.

        Membership events consult the watcher index between rounds; the
        index (and the oracle snapshot) must reflect the *last* boundary
        first, or peers that acquired a reference to the affected owner
        in the most recent round would be missed.
        """
        if self._pending_refresh:
            for pid in self._pending_refresh:
                if pid in self.peers:
                    self._refresh_peer(pid)
            self._pending_refresh.clear()

    def _dirty_watchers(self, owner: int) -> None:
        """Re-activate every peer whose purge consults ``owner``."""
        watchers = self._watchers.get(owner)
        if not watchers:
            return
        mark = self.scheduler.mark_dirty
        for pid in watchers:
            if pid in self.peers:
                mark(pid)

    def _wake_flow_refs(self, owners: Set[int]) -> None:
        """Re-activate receivers of in-flight messages that reference
        any owner in ``owners``.

        A liveness/phantom flip is visible not only to peers *holding*
        a reference (the watcher index) but also to peers about to
        *receive* one inside a circulating message (e.g. a streamed
        connection edge whose endpoint just crashed or whose virtual
        level was just dropped: the full-scan engine purges/rewrites it
        after delivery, so a replayed receiver must be woken to do the
        same).  The kernel answers who they are
        (:meth:`~repro.netsim.columnar.ColumnarScheduler.ref_receivers`),
        one query per batch of changed owners, whichever loop ran.
        """
        mark = self.scheduler.mark_dirty
        for target in self.scheduler.ref_receivers(owners):
            # carry: the message leaves the receiver's inbox one round
            # after it is consumed
            mark(target, carry=True)

    def _update_refs_out(self, pid: int) -> None:
        """Maintain the reverse (owner -> watchers) dependency index."""
        owners = frozenset(self.peers[pid].state.referenced_owners())
        old = self._refs_out.get(pid, frozenset())
        if owners == old:
            return
        watchers = self._watchers
        for o in old - owners:
            entry = watchers.get(o)
            if entry is not None:
                entry.discard(pid)
                if not entry:
                    del watchers[o]
        for o in owners - old:
            watchers.setdefault(o, set()).add(pid)
        self._refs_out[pid] = owners

    def _refresh_peer(self, pid: int) -> None:
        """Boundary maintenance after a peer's state changed.

        Updates the liveness-oracle snapshot (re-activating watchers on a
        level-set change, which can flip ``ok``/``phantom`` verdicts) and
        the reverse-dependency index.
        """
        if self._note_levels(pid):
            self._dirty_watchers(pid)
            # ok/phantom verdicts for this owner flipped: receivers of
            # in-flight refs to it must re-run too (drained in one scan)
            self._level_flips.add(pid)
        self._update_refs_out(pid)

    def _membership_flip(self, peer_id: int) -> None:
        """A join or departure flips ``peer_id``'s liveness verdict.

        Its watchers are woken at once, on a *current* watcher index,
        and the in-flight scan is queued in ``_level_flips`` for the
        next round start.  Membership changes only between rounds, so
        that scan sees the same pending mail plus any posted since, and
        a wave of k events costs one scan, not k.
        """
        self._flush_pending_refresh()
        self._dirty_watchers(peer_id)
        self._level_flips.add(peer_id)

    def _drain_level_flips(self) -> None:
        """One in-flight scan for all owners whose verdicts flipped."""
        if self._level_flips:
            self._wake_flow_refs(self._level_flips)
            self._level_flips.clear()

    def activity_stats(self) -> Tuple[int, int]:
        """``(executed, replayed)`` split of the last round."""
        return (
            self.scheduler.executed_last_round,
            self.scheduler.replayed_last_round,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def round_no(self) -> int:
        """Completed rounds."""
        return self.scheduler.round_no

    @property
    def peer_ids(self) -> List[int]:
        """Sorted live peer ids."""
        return sorted(self.peers)

    def set_delivery_model(self, model) -> None:
        """Install a delivery model mid-run (instance, kind name, or
        spec dict — see :mod:`repro.netsim.timemodel`).  Unit delivery
        is the default and reproduces the paper's semantics exactly."""
        self.scheduler.set_delivery_model(model)

    def set_daemon(self, daemon) -> None:
        """Install an activation daemon mid-run (instance, kind name,
        or spec dict); ``run_round()`` consults it when no explicit
        active set is passed."""
        self.scheduler.set_daemon(daemon)

    @property
    def time_model(self) -> TimeModel:
        """The scheduler's current notion of time (delivery + daemon)."""
        return self.scheduler.time_model

    def run_round(self, active: Optional[set] = None) -> None:
        """Execute one synchronous round (optionally partial activation).

        ``active`` limits which peers step — the fair-scheduling bridge
        toward asynchrony studied by the asynchrony experiment; peers
        left out keep their state and accumulate their inbox.  With no
        explicit set the scheduler consults the activation daemon of
        the installed :class:`repro.netsim.timemodel.TimeModel` (full
        activation by default).
        """
        if not self.incremental:
            # freeze the level map so the oracle answers with round-start
            # state regardless of peer iteration order (order-independence)
            self._level_snapshot = {
                pid: frozenset(peer.state.nodes) for pid, peer in self.peers.items()
            }
            self._oracle_epoch += 1
            self.scheduler.run_round(active)
            return
        sched = self.scheduler
        # boundary maintenance deferred from the previous round: the
        # snapshot now advances to the last boundary, re-activating
        # watchers of level-set changes (same visibility round as the
        # legacy engine's full round-start rebuild)
        self._flush_pending_refresh()
        # sweep for out-of-band mutations since the last boundary (tests,
        # join seeds, perturbations): cheap integer compare per peer —
        # read the scheduler's noted-version map directly, this loop is
        # the facade's only O(n) per-round cost under the columnar kernel
        noted = sched._ver
        for pid, peer in self.peers.items():
            if peer.state.version != noted.get(pid):
                sched.resync_actor(pid)
                sched.mark_dirty(pid)
                self._refresh_peer(pid)
        # one in-flight scan for all verdict flips the refreshes surfaced
        self._drain_level_flips()
        sched.run_round(active)
        # schedule boundary maintenance for peers this round changed
        # (the activation daemon may have chosen the set: ask the
        # scheduler what actually ran rather than trusting `active`)
        chosen = sched.active_last_round
        if chosen is None:
            self._pending_refresh.update(sched.state_changed_keys)
        else:
            self._pending_refresh.update(set(chosen) & set(self.peers))

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()

    def run_until_stable(
        self,
        max_rounds: int = 10_000,
        track_almost: bool = False,
    ) -> StabilizationReport:
        """Run until the global configuration repeats.

        Raises :class:`NotStableError` if not stable within ``max_rounds`` (a
        non-converging protocol must fail loudly).  With ``track_almost``
        the report also carries the first round at which all desired
        edges of the ideal topology existed.

        The tracked kernel detects the repeat from the scheduler's change
        flag (exact state tokens + flow flags), an O(active work) check;
        the full-scan kernel compares full O(n) fingerprints.  The differential tests assert both produce the
        same report on the same input.
        """
        ideal = compute_ideal(self.space, self.peer_ids) if track_almost else None
        almost: Optional[int] = None
        if ideal is not None and self._almost_stable(ideal):
            almost = 0
        if self.incremental:
            for executed in range(1, max_rounds + 1):
                self.run_round()
                if ideal is not None and almost is None and self._almost_stable(ideal):
                    almost = executed
                if not self.scheduler.changed_last_round:
                    return StabilizationReport(
                        rounds_to_stable=executed - 1,
                        rounds_to_almost=almost,
                        rounds_executed=executed,
                    )
            raise NotStableError(f"network not stable within {max_rounds} rounds")
        prev = self.fingerprint()
        for executed in range(1, max_rounds + 1):
            self.run_round()
            cur = self.fingerprint()
            if ideal is not None and almost is None and self._almost_stable(ideal):
                almost = executed
            if cur == prev:
                # the configuration reached at round `executed - 1` is final
                return StabilizationReport(
                    rounds_to_stable=executed - 1,
                    rounds_to_almost=almost,
                    rounds_executed=executed,
                )
            prev = cur
        raise NotStableError(f"network not stable within {max_rounds} rounds")

    # ------------------------------------------------------------------
    # stability / correctness predicates
    # ------------------------------------------------------------------
    def config_snapshot(self) -> ConfigSnapshot:
        """The global configuration (peer states + in-flight) at this
        boundary, cheap to take and canonicalized only on demand.

        In-flight covers next round's inboxes *and* delayed deliveries
        still parked in the scheduler's future queue.
        """
        return ConfigSnapshot(
            tuple(self.peers[pid].state.canonical() for pid in sorted(self.peers)),
            self.scheduler.all_pending(),
            self.scheduler.future_pending(),
        )

    def fingerprint(self) -> tuple:
        """Canonical global configuration: ``config_snapshot().canonical()``.

        Under unit delivery the future queue is empty and the
        fingerprint is byte-identical to the historical form.
        """
        return self.config_snapshot().canonical()

    def incremental_fingerprint(self) -> tuple:
        """The 64-bit configuration hash ``(states, pending)``.

        The state half is maintained by the activity-tracked scheduler
        from dirty peers only — O(active work) per round; the pending
        half is counted on demand over the in-flight messages,
        O(pending) per call (see ``ColumnarScheduler.config_hash``).
        Valid at round boundaries of the tracked kernel; equal
        configurations always hash equal, distinct ones collide with
        probability ~2^-64.
        """
        if not self.incremental:
            raise RuntimeError("incremental fingerprint requires the tracked kernel")
        return self.scheduler.config_hash()

    def is_fixed_point(self, peek: bool = False) -> bool:
        """Whether one more round leaves the configuration unchanged.

        With ``peek=False`` (historical behavior) this *runs a round on
        the live network* and compares: observationally non-destructive
        on a stable network — the stable state is invariant — but it
        advances :attr:`round_no` as a side effect and mutates state if
        the network was *not* stable.  With ``peek=True`` the probe round
        runs on a deep copy, leaving the network (round counter
        included) completely untouched in both outcomes.
        """
        probe = copy.deepcopy(self) if peek else self
        before = probe.fingerprint()
        probe.run_round()
        return probe.fingerprint() == before

    def matches_ideal(self, ideal: Optional[IdealTopology] = None) -> bool:
        """Whether every peer's state equals the ideal stable topology."""
        return not self.ideal_mismatches(ideal, limit=1)

    def ideal_mismatches(
        self,
        ideal: Optional[IdealTopology] = None,
        limit: int = 50,
    ) -> List[str]:
        """Human-readable differences from the ideal topology (<= limit)."""
        if ideal is None:
            ideal = compute_ideal(self.space, self.peer_ids)
        problems: List[str] = []

        def note(msg: str) -> None:
            if len(problems) < limit:
                problems.append(msg)

        for pid in sorted(self.peers):
            state = self.peers[pid].state
            want_levels = set(range(0, ideal.m_star[pid] + 1))
            have_levels = set(state.nodes)
            if want_levels != have_levels:
                note(f"peer {pid}: levels {sorted(have_levels)} != {sorted(want_levels)}")
                continue
            for level in sorted(state.nodes):
                node = state.nodes[level]
                ref = node.ref
                if node.nu != set(ideal.nu[ref]):
                    note(
                        f"{ref!r}: nu {sorted(node.nu)} != {sorted(ideal.nu[ref])}"
                    )
                if node.nr != set(ideal.nr[ref]):
                    note(f"{ref!r}: nr {sorted(node.nr)} != {sorted(ideal.nr[ref])}")
                if node.rl != ideal.rl[ref]:
                    note(f"{ref!r}: rl {node.rl!r} != {ideal.rl[ref]!r}")
                if node.rr != ideal.rr[ref]:
                    note(f"{ref!r}: rr {node.rr!r} != {ideal.rr[ref]!r}")
                if node.wrap_rl != ideal.wrap_rl[ref]:
                    note(f"{ref!r}: wrap_rl {node.wrap_rl!r} != {ideal.wrap_rl[ref]!r}")
                if node.wrap_rr != ideal.wrap_rr[ref]:
                    note(f"{ref!r}: wrap_rr {node.wrap_rr!r} != {ideal.wrap_rr[ref]!r}")
            if len(problems) >= limit:
                break
        return problems

    def _almost_stable(self, ideal: IdealTopology) -> bool:
        """All desired edges exist (extra edges allowed) — Fig. 6's
        "almost stable" state."""
        for pid in sorted(self.peers):
            state = self.peers[pid].state
            if set(state.nodes) != set(range(0, ideal.m_star[pid] + 1)):
                return False
            for level, node in state.nodes.items():
                ref = node.ref
                if not set(ideal.nu[ref]) <= node.nu:
                    return False
                if not set(ideal.nr[ref]) <= node.nr:
                    return False
        return True

    # ------------------------------------------------------------------
    # membership dynamics (Section 4)
    # ------------------------------------------------------------------
    def join(self, new_id: int, gateway_id: int) -> ReChordPeer:
        """A new peer joins, knowing one existing peer (Section 4.1)."""
        if gateway_id not in self.peers:
            raise KeyError(f"gateway {gateway_id} is not a live peer")
        peer = self.add_peer(new_id)
        peer.state.nodes[0].nu.add(make_ref(self.space, gateway_id, 0))
        return peer

    def leave(self, peer_id: int) -> None:
        """Graceful departure: introduce neighbors, then vanish."""
        peer = self.peers.get(peer_id)
        if peer is None:
            raise KeyError(f"unknown peer {peer_id}")
        for intro in peer.leave_introductions():
            if intro.target.owner == peer_id:
                continue
            self.scheduler.post(Envelope(peer_id, intro.target.owner, intro))
        self._remove_peer(peer_id)

    def crash(self, peer_id: int) -> None:
        """Abrupt failure: the peer and all its edges disappear."""
        if peer_id not in self.peers:
            raise KeyError(f"unknown peer {peer_id}")
        self._remove_peer(peer_id)

    def _remove_peer(self, peer_id: int) -> None:
        del self.peers[peer_id]
        self.scheduler.remove_actor(peer_id)
        self._forget_levels(peer_id)
        self._membership_version += 1
        if self.incremental:
            self._pending_refresh.discard(peer_id)
            # holders of references to the departed peer purge them at
            # their next step, as must receivers of in-flight messages
            # carrying its refs
            self._membership_flip(peer_id)
            old = self._refs_out.pop(peer_id, frozenset())
            for o in old:
                entry = self._watchers.get(o)
                if entry is not None:
                    entry.discard(peer_id)
                    if not entry:
                        del self._watchers[o]
            self._watchers.pop(peer_id, None)

    # ------------------------------------------------------------------
    # snapshots & accounting
    # ------------------------------------------------------------------
    def snapshot(self, include_pending: bool = True) -> TypedDigraph:
        """The overlay as a :class:`TypedDigraph` over :class:`NodeRef`.

        ``include_pending`` merges in-flight edge inserts (the stable
        state keeps some edges permanently in transit); candidate
        messages are guarded and therefore not edges.
        """
        g = TypedDigraph()
        for pid in sorted(self.peers):
            state = self.peers[pid].state
            for level in sorted(state.nodes):
                node = state.nodes[level]
                g.add_node(node.ref)
                for t in node.nu:
                    g.add_edge(node.ref, t, EdgeKind.UNMARKED)
                for t in node.nr:
                    g.add_edge(node.ref, t, EdgeKind.RING)
                for t in node.nc:
                    g.add_edge(node.ref, t, EdgeKind.CONNECTION)
                for t in node.wrap_refs():
                    g.add_edge(node.ref, t, EdgeKind.REAL_POINTER)
        if include_pending:
            from repro.core.events import EdgeAdd  # local import to avoid cycle

            # scheduled-but-not-matured deliveries count too: an edge on
            # a slow wire is still circulating, and weak-connectivity
            # accounting must see it
            in_flight = list(self.scheduler.all_pending())
            in_flight.extend(env for _, env in self.scheduler.future_pending())
            for env in in_flight:
                payload = env.payload
                if isinstance(payload, EdgeAdd) and payload.endpoint != payload.target:
                    kind = {
                        "u": EdgeKind.UNMARKED,
                        "r": EdgeKind.RING,
                        "c": EdgeKind.CONNECTION,
                    }[payload.kind]
                    g.add_edge(payload.target, payload.endpoint, kind)
                elif isinstance(payload, NeighborIntro) and payload.endpoint != payload.target:
                    g.add_edge(payload.target, payload.endpoint, EdgeKind.UNMARKED)
        return g

    def rechord_projection(self) -> set:
        """``E_ReChord``: real-peer pairs ``(u, v)`` with an edge
        ``(u_i, v_0)`` in ``E_u ∪ E_r`` (wrap pointers included [D6])."""
        edges = set()
        for pid in sorted(self.peers):
            state = self.peers[pid].state
            for node in state.nodes.values():
                targets = set(node.nu) | set(node.nr)
                targets.update(node.wrap_refs())
                for t in targets:
                    if t.is_real and t.owner != pid:
                        edges.add((pid, t.owner))
        return edges

    def counters(self) -> RuleCounters:
        """Merged rule-firing counters across all live peers."""
        if self.incremental:
            # the columnar kernel defers quiescent-round counter replays;
            # observation points settle them to the exact values
            self.scheduler.settle_replays()
        merged = RuleCounters()
        for pid in sorted(self.peers):
            merged = merged.merged(self.peers[pid].counters)
        return merged
