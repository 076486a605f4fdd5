"""The Re-Chord self-stabilization rules (Section 2.3 of the paper).

One :class:`ReChordPeer` is a scheduler actor simulating the peer's real
node and all its virtual siblings.  Every round it:

1. applies the delayed assignments delivered at the last round boundary
   (the paper's ``A <- B`` semantics);
2. purges references to crashed peers / nonexistent virtual nodes
   (DESIGN.md [D7]/[D11]);
3. runs rules 1–6 in the paper's order.  Direct assignments (``:=``)
   mutate the peer's own state immediately and are visible to later rules
   in the same round; delayed assignments are sent as messages.

Rule-to-method map:

========================  ======================================
paper rule                method
========================  ======================================
1  Virtual Nodes          :meth:`ReChordPeer._rule1_virtual_nodes`
2  Overlapping Neighbor.  :meth:`ReChordPeer._rule2_overlap`
3  Closest Real Neighbor  :meth:`ReChordPeer._rule3_closest_real`
4  Linearization          :meth:`ReChordPeer._rule4_linearize`
5  Ring Edge              :meth:`ReChordPeer._rule5_ring`
6  Connection Edges       :meth:`ReChordPeer._rule6_connection`
========================  ======================================

The module docstrings of :mod:`repro.core.events` and DESIGN.md Section 3
explain the deviations; inline comments below only flag the subtle spots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from time import perf_counter as _perf
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.events import (
    KIND_CONNECTION,
    KIND_RING,
    KIND_UNMARKED,
    EdgeAdd,
    NeighborIntro,
    RealCandidate,
    SIDE_LEFT,
    SIDE_RIGHT,
)
from repro.core.noderef import NodeRef
from repro.core.rules import RuleConfig, RuleCounters
from repro.core.state import LocalNode, PeerState
from repro.netsim.messages import AppPayload, Envelope
from repro.netsim.scheduler import RoundContext

#: liveness verdicts returned by the network's reference oracle
REF_OK = "ok"
REF_DEAD = "dead"
REF_PHANTOM = "phantom"

RefOracle = Callable[[NodeRef], str]

#: sort key accessor — sorting by the precomputed tuple is measurably
#: faster than dispatching NodeRef.__lt__ per comparison (hot path)
_KEY = attrgetter("_key")
_payload_of = attrgetter("payload")


def _untimed(phase: str, seconds: float, calls: int = 1) -> None:
    """``TelemetryRecorder.add_time`` for a step nobody records."""


def _no_plane_error(payload: AppPayload, peer_id: int) -> TypeError:
    return TypeError(
        f"traffic payload {payload!r} delivered to peer {peer_id} with no "
        "traffic plane attached (call ReChordNetwork.attach_traffic first)"
    )


class ReChordPeer:
    """Actor running the Re-Chord rules for one peer."""

    __slots__ = (
        "state", "config", "counters", "_ref_alive", "_replay_delta",
        "traffic", "telemetry", "_carry",
    )

    def __init__(
        self,
        state: PeerState,
        config: RuleConfig,
        ref_alive: RefOracle,
        counters: Optional[RuleCounters] = None,
    ) -> None:
        self.state = state
        self.config = config
        self.counters = counters if counters is not None else RuleCounters()
        self._ref_alive = ref_alive
        #: per-rule counter increments of the last executed step; replayed
        #: by the activity-tracked scheduler so quiescent rounds keep the
        #: exact same rule-firing accounting as fully executed ones
        self._replay_delta: dict = {}
        #: the batched pipeline's ``(state version, config, peer-wide
        #: reads)`` at the end of this peer's last step: while the version
        #: and config still hold, the levels' carry records describe the
        #: current state (repro.core.rules_batched); None when no record
        #: may be trusted
        self._carry = None
        #: application-plane handler (see repro.traffic); installed by
        #: ReChordNetwork.attach_traffic, None when no plane is attached
        self.traffic = None
        #: TelemetryRecorder receiving per-rule wall-clock spans; installed
        #: by ReChordNetwork.enable_telemetry, None (disabled) by default —
        #: the only cost then is this one attribute check per step
        self.telemetry = None

    # ------------------------------------------------------------------
    # actor entry point
    # ------------------------------------------------------------------
    def step(self, inbox: Sequence[Envelope], ctx: RoundContext) -> None:
        """One synchronous round: apply inbox, purge, rules 1-6, traffic.

        Application mail in the inbox goes to the traffic handler after
        the rules; the handler emits through ``ctx.send_once``, so the
        step's outbox and counter delta cover the rules alone and stay a
        valid replay template.  Each phase is closed by a wall-clock span
        under its ``rule.*`` / ``peer.*`` label — handed to the
        recorder's ``add_time``, or to :func:`_untimed` when telemetry is
        off — so the timed and the untimed step are one pipeline.
        """
        tel = self.telemetry
        add = _untimed if tel is None else tel.add_time
        fires_before = dict(self.counters.fires)
        app: Optional[List] = None
        if self.traffic is not None:
            app = [env.payload for env in inbox if isinstance(env.payload, AppPayload)]
            if app:
                inbox = [env for env in inbox if not isinstance(env.payload, AppPayload)]
        t = _perf()
        self._apply_inbox(inbox)
        t2 = _perf(); add("peer.apply_inbox", t2 - t); t = t2
        self._purge()
        t2 = _perf(); add("rule.purge", t2 - t); t = t2
        cfg = self.config
        if cfg.virtual_nodes:
            self._rule1_virtual_nodes()
            t2 = _perf(); add("rule.1_virtual_nodes", t2 - t); t = t2
        if cfg.overlap:
            self._rule2_overlap()
            t2 = _perf(); add("rule.2_overlap", t2 - t); t = t2
        if cfg.closest_real:
            self._rule3_closest_real(ctx)
            t2 = _perf(); add("rule.3_closest_real", t2 - t); t = t2
        if cfg.linearize:
            self._rule4_linearize(ctx)
            t2 = _perf(); add("rule.4_linearize", t2 - t); t = t2
        if cfg.ring:
            self._rule5_ring(ctx)
            t2 = _perf(); add("rule.5_ring", t2 - t); t = t2
        if cfg.connection:
            self._rule6_connection(ctx)
            t2 = _perf(); add("rule.6_connection", t2 - t); t = t2
        if app:
            self.traffic.handle(self, app, ctx)
            add("peer.traffic", _perf() - t)
        fires = self.counters.fires
        self._replay_delta = {
            rule: count - fires_before.get(rule, 0)
            for rule, count in fires.items()
            if count != fires_before.get(rule, 0)
        }

    # ------------------------------------------------------------------
    # the application lane (see repro.netsim.columnar)
    # ------------------------------------------------------------------
    def handle_app(self, inbox: Sequence[Envelope], ctx: RoundContext) -> None:
        """A lane-only round: application mail, no rule pipeline.

        Called by the dirty-set kernel instead of :meth:`step` when the
        peer is clean and its inbox differs from the replay baseline only
        by :class:`AppPayload` envelopes (``inbox`` holds exactly those).
        The rules would reproduce the cached step, so only the handler
        runs — against the boundary state, which for a clean peer is the
        state the handler would see after the rules — and the rule
        counters keep settling as replays.
        """
        tel = self.telemetry
        if tel is None:
            self._handle_lane(inbox, ctx)
        else:
            t = _perf()
            self._handle_lane(inbox, ctx)
            tel.add_time("peer.traffic", _perf() - t)

    def _handle_lane(self, inbox: Sequence[Envelope], ctx: RoundContext) -> None:
        """:meth:`handle_app` without the span (the batched backend
        times its whole handler phase as one)."""
        if self.traffic is None:
            raise _no_plane_error(inbox[0].payload, self.state.peer_id)
        state = self.state
        version = state.version
        self.traffic.handle(self, list(map(_payload_of, inbox)), ctx)
        if state.version != version:
            # the lane is sound only because handlers leave the overlay
            # alone: a mutation here would never reach the rules' replay
            # baseline, the fingerprint probes or the watcher index
            kinds = sorted({type(env.payload).__name__ for env in inbox})
            raise RuntimeError(
                f"application handler mutated the overlay state of peer "
                f"{state.peer_id} while handling {', '.join(kinds)}: handlers may "
                "read peer state, stores and the message, never write the overlay"
            )

    # ------------------------------------------------------------------
    # activity-tracking probes (see repro.netsim.columnar)
    # ------------------------------------------------------------------
    def state_version(self) -> int:
        """Cheap monotonic possibly-changed counter of the peer state."""
        return self.state.version

    def state_token(self) -> tuple:
        """Exact boundary state (the peer's canonical fingerprint part)."""
        return self.state.canonical()

    def replay_steps(self, count: int) -> None:
        """Re-apply ``count`` quiescent rounds of counter deltas at once.

        The columnar engine settles accounting lazily: a peer that sat
        quiescent for ``count`` rounds owes ``count`` copies of its last
        step's delta, applied in one batch when the counters are next
        observed (or when the peer wakes).
        """
        if count <= 0:
            return
        for rule, amount in self._replay_delta.items():
            self.counters.bump(rule, amount * count)

    # ------------------------------------------------------------------
    # message delivery (delayed assignments)
    # ------------------------------------------------------------------
    def _apply_inbox(self, inbox: Sequence[Envelope]) -> None:
        # exact-type dispatch ordered by frequency (the payload classes
        # are final; see repro.core.events), with the EdgeAdd delivery
        # body inlined — this loop handles every message of every round
        resolve = self.state.resolve
        peer_id = self.state.peer_id
        for env in inbox:
            payload = env.payload
            cls = type(payload)
            if cls is EdgeAdd:
                node = resolve(payload.target)
                if node is None:  # misrouted — network bug, not protocol state
                    raise LookupError(
                        f"message for {payload.target!r} delivered to peer {peer_id}"
                    )
                endpoint = payload.endpoint
                if endpoint == node.ref:
                    continue  # self-edge sanitation [D10]
                kind = payload.kind
                if kind == KIND_UNMARKED:
                    node._nu.add(endpoint)
                elif kind == KIND_RING:
                    node._nr.add(endpoint)
                elif kind == KIND_CONNECTION:
                    node._nc.add(endpoint)
                else:  # pragma: no cover - protocol violation
                    raise ValueError(f"unknown edge kind {kind!r}")
            elif cls is RealCandidate:
                self._deliver_candidate(payload)
            elif cls is NeighborIntro:
                self._deliver_edge(payload.target, payload.endpoint, KIND_UNMARKED)
            elif isinstance(payload, AppPayload):
                raise _no_plane_error(payload, peer_id)
            else:  # pragma: no cover - protocol violation
                raise TypeError(f"unknown payload {payload!r}")

    def _deliver_edge(self, target: NodeRef, endpoint: NodeRef, kind: str) -> None:
        node = self.state.resolve(target)
        if node is None:  # misrouted — network bug, not protocol state
            raise LookupError(f"message for {target!r} delivered to peer {self.state.peer_id}")
        if endpoint == node.ref:
            return  # self-edge sanitation [D10]
        if kind == KIND_UNMARKED:
            node._nu.add(endpoint)
        elif kind == KIND_RING:
            node._nr.add(endpoint)
        elif kind == KIND_CONNECTION:
            node._nc.add(endpoint)
        else:  # pragma: no cover - protocol violation
            raise ValueError(f"unknown edge kind {kind!r}")

    def _deliver_candidate(self, msg: RealCandidate) -> None:
        node = self.state.resolve(msg.target)
        if node is None:  # pragma: no cover - misrouted
            raise LookupError(f"candidate for {msg.target!r} at peer {self.state.peer_id}")
        cand = msg.candidate
        if not cand.is_real or cand == node.ref:
            return
        if msg.wrap:
            self._adopt_wrap_candidate(node, cand, msg.side)
        else:
            self._adopt_linear_candidate(node, cand, msg.side)

    def _adopt_linear_candidate(self, node: LocalNode, cand: NodeRef, side: str) -> None:
        """Rule 3's receiver-side guard: adopt only strict improvements.

        The paper's guard ``v > rl(y)`` (resp. ``v < rr(y)``) reads the
        receiver's pointer, so it must run here [D9].  An adopted
        candidate goes into ``nu`` exactly as the paper's
        ``Nu(y) <- Nu(y) ∪ {v}`` writes it; rule 3 will recompute the
        cached pointer from knowledge next round.
        """
        ck = cand._key
        if side == SIDE_LEFT:
            if ck >= node.ref._key:
                return  # wrong side — stale or corrupt sender state
            rl = node._rl
            if rl is None or ck > rl._key:
                node._nu.add(cand)
                self.counters.bump("rule3_adopt")
        else:
            if ck <= node.ref._key:
                return
            rr = node._rr
            if rr is None or ck < rr._key:
                node._nu.add(cand)
                self.counters.bump("rule3_adopt")

    def _adopt_wrap_candidate(self, node: LocalNode, cand: NodeRef, side: str) -> None:
        """Seam-exchange adoption [D6].

        A wrap pointer is only meaningful while the node has no *linear*
        real neighbor on that side; improvements move toward the global
        extreme real node (smaller for ``wrap_rr``, larger for
        ``wrap_rl``).  Replaced values are demoted into ``nu`` so no
        reference (and hence no connectivity) is ever lost.
        """
        if not self.config.wrap_pointers:
            return
        if side == SIDE_RIGHT:
            if node.rr is not None:
                return  # has a linear successor-side real; no wrap needed
            if node.wrap_rr is None or cand < node.wrap_rr:
                if node.wrap_rr is not None and node.wrap_rr != node.ref:
                    node.nu.add(node.wrap_rr)
                node.wrap_rr = cand
                self.counters.bump("wrap_adopt")
        else:
            if node.rl is not None:
                return
            if node.wrap_rl is None or cand > node.wrap_rl:
                if node.wrap_rl is not None and node.wrap_rl != node.ref:
                    node.nu.add(node.wrap_rl)
                node.wrap_rl = cand
                self.counters.bump("wrap_adopt")

    # ------------------------------------------------------------------
    # reference purging [D7]/[D11]
    # ------------------------------------------------------------------
    def _purge(self) -> None:
        """Drop references to dead peers; re-point phantom virtual refs.

        A reference to a virtual node its owner no longer simulates is
        rewritten to the owner's *real* node (whose address the ref
        carries), so a corrupt initial state cannot lose its only link to
        a component — the paper's weak-connectivity precondition survives
        sanitation.
        """
        alive = self._ref_alive
        # most refs recur across the ~log(n) levels of a peer (the same
        # neighbor appears in many neighborhoods), so liveness verdicts
        # are memoized per step — a verdict depends only on the ref
        verdicts: Dict[NodeRef, str] = {}
        for level in sorted(self.state.nodes):
            node = self.state.nodes[level]
            nref = node.ref
            for refs in (node._nu, node._nr, node._nc):
                bad: Optional[List[NodeRef]] = None
                for r in refs:
                    if r == nref:
                        if bad is None:
                            bad = []
                        bad.append(r)
                        continue
                    v = verdicts.get(r)
                    if v is None:
                        v = verdicts[r] = alive(r)
                    if v != REF_OK:
                        if bad is None:
                            bad = []
                        bad.append(r)
                if bad is None:
                    continue
                for ref in bad:
                    refs.discard(ref)
                    if ref == nref:
                        continue
                    if verdicts[ref] == REF_PHANTOM:
                        real = NodeRef.real(ref.owner)
                        if real != nref:
                            refs.add(real)
                        self.counters.bump("purge_phantom")
                    else:
                        self.counters.bump("purge_dead")
            for attr, ref in (
                ("rl", node._rl),
                ("rr", node._rr),
                ("wrap_rl", node._wrap_rl),
                ("wrap_rr", node._wrap_rr),
            ):
                if ref is None:
                    continue
                if ref.level != 0 or ref == nref:
                    setattr(node, attr, None)
                    self.counters.bump("purge_slot")
                    continue
                v = verdicts.get(ref)
                if v is None:
                    v = verdicts[ref] = alive(ref)
                if v != REF_OK:
                    setattr(node, attr, None)
                    self.counters.bump("purge_slot")
            # corrupt cached pointers on the wrong side are cleared (the
            # ref stays reachable through nu if it was ever real state)
            nk = nref._key
            rl = node._rl
            if rl is not None and rl._key >= nk:
                node.rl = None
            rr = node._rr
            if rr is not None and rr._key <= nk:
                node.rr = None

    # ------------------------------------------------------------------
    # rule 1 — virtual nodes
    # ------------------------------------------------------------------
    def _rule1_virtual_nodes(self) -> None:
        state = self.state
        gap = state.closest_real_gap()
        m = state.space.level_count(gap)
        for level in range(1, m + 1):
            if level not in state.nodes:
                state.ensure_level(level)
                self.counters.bump("rule1_create")
        doomed = [lvl for lvl in state.nodes if lvl > m]
        if doomed:
            target = state.nodes[m]
            for level in sorted(doomed):
                dead = state.drop_level(level)
                inherited = dead.all_out_refs()
                inherited.discard(target.ref)
                inherited.discard(dead.ref)
                # the paper: "the virtual node u_m is informed about
                # u_i's neighborhood" — everything arrives unmarked
                target.nu |= inherited
                self.counters.bump("rule1_delete")

    # ------------------------------------------------------------------
    # rule 2 — overlapping neighborhood
    # ------------------------------------------------------------------
    def _rule2_overlap(self) -> None:
        state = self.state
        sibs = state.sibling_refs()
        if len(sibs) < 2:
            return
        # sibs is sorted, so "the closest sibling strictly between w and
        # ui" is a bisect on the key column, not a scan of all siblings
        sib_keys = [s._key for s in sibs]
        nsibs = len(sibs)
        for level in sorted(state.nodes):
            node = state.nodes[level]
            ui = node.ref
            uik = ui._key
            for w in sorted(node._nu, key=_KEY):
                wk = w._key
                if wk < uik:
                    # siblings strictly between w and ui; closest to w wins
                    idx = bisect_right(sib_keys, wk)
                    target = (
                        sibs[idx] if idx < nsibs and sib_keys[idx] < uik else None
                    )
                else:
                    idx = bisect_left(sib_keys, wk)
                    target = (
                        sibs[idx - 1] if idx > 0 and sib_keys[idx - 1] > uik else None
                    )
                if target is None:
                    continue
                node._nu.discard(w)
                peer_node = state.nodes[target.level]
                if w != peer_node.ref:
                    peer_node._nu.add(w)
                self.counters.bump("rule2_move")

    # ------------------------------------------------------------------
    # rule 3 — closest real neighbor
    # ------------------------------------------------------------------
    def _rule3_closest_real(self, ctx: RoundContext) -> None:
        state = self.state
        reals = state.known_reals()
        real_keys = [r._key for r in reals]
        for level in sorted(state.nodes):
            node = state.nodes[level]
            ui = node.ref
            idx = bisect_left(real_keys, ui._key)
            rl = reals[idx - 1] if idx > 0 else None
            if idx < len(reals) and reals[idx] == ui:
                rr = reals[idx + 1] if idx + 1 < len(reals) else None
            else:
                rr = reals[idx] if idx < len(reals) else None
            node.rl, node.rr = rl, rr
            if rl is not None:
                node._nu.add(rl)  # the paper's Nu(ui) := Nu(ui) ∪ {v}
            if rr is not None:
                node._nu.add(rr)
            if self.config.wrap_pointers:
                self._maintain_wrap_slots(node)
            # announce to neighbors per the paper's y-conditions
            eco = self.config.economical_broadcast
            nu_sorted = sorted(node._nu, key=_KEY)
            uik = ui._key
            if rl is not None:
                rlk = rl._key
                recipients = []
                for y in nu_sorted:
                    if y == rl:
                        continue
                    yk = y._key
                    if yk > uik or rlk < yk < uik:
                        recipients.append(y)
                for y in recipients:
                    if eco and rl == node.bcast_rl and (
                        node.bcast_rl_targets is not None and y in node.bcast_rl_targets
                    ):
                        continue  # already announced this value to y
                    ctx.send(y.owner, RealCandidate(y, rl, SIDE_LEFT))
                if eco:
                    node.bcast_rl = rl
                    node.bcast_rl_targets = frozenset(recipients)
            elif eco:
                node.bcast_rl = None
                node.bcast_rl_targets = None
            if rr is not None:
                rrk = rr._key
                recipients = []
                for y in nu_sorted:
                    if y == rr:
                        continue
                    yk = y._key
                    if yk < uik or uik < yk < rrk:
                        recipients.append(y)
                for y in recipients:
                    if eco and rr == node.bcast_rr and (
                        node.bcast_rr_targets is not None and y in node.bcast_rr_targets
                    ):
                        continue
                    ctx.send(y.owner, RealCandidate(y, rr, SIDE_RIGHT))
                if eco:
                    node.bcast_rr = rr
                    node.bcast_rr_targets = frozenset(recipients)
            elif eco:
                node.bcast_rr = None
                node.bcast_rr_targets = None
            if self.config.wrap_pointers:
                self._relay_wrap(node, ctx)

    def _maintain_wrap_slots(self, node: LocalNode) -> None:
        """Clear wrap pointers made obsolete by a linear real neighbor.

        The cleared target is demoted into ``nu`` so the reference (and
        any connectivity riding on it) survives.
        """
        if node.rr is not None and node.wrap_rr is not None:
            if node.wrap_rr != node.ref:
                node.nu.add(node.wrap_rr)
            node.wrap_rr = None
        if node.rl is not None and node.wrap_rl is not None:
            if node.wrap_rl != node.ref:
                node.nu.add(node.wrap_rl)
            node.wrap_rl = None

    def _relay_wrap(self, node: LocalNode, ctx: RoundContext) -> None:
        """Propagate wrap pointers through the top/bottom identifier gaps.

        A node still lacking a linear real neighbor relays its wrap
        pointer to its closest neighbor on that side (and to its linear
        real neighbor on the *other* side, which shortcuts the gap) —
        the flow stays confined to the gaps and is constant in the
        stable state.
        """
        ui = node.ref
        if node.rr is None and node.wrap_rr is not None:
            lefts = [w for w in node.nu if w < ui]
            targets = set()
            if lefts:
                targets.add(max(lefts))
            if node.rl is not None:
                targets.add(node.rl)
            for t in sorted(targets):
                ctx.send(t.owner, RealCandidate(t, node.wrap_rr, SIDE_RIGHT, wrap=True))
        if node.rl is None and node.wrap_rl is not None:
            rights = [w for w in node.nu if w > ui]
            targets = set()
            if rights:
                targets.add(min(rights))
            if node.rr is not None:
                targets.add(node.rr)
            for t in sorted(targets):
                ctx.send(t.owner, RealCandidate(t, node.wrap_rl, SIDE_LEFT, wrap=True))

    # ------------------------------------------------------------------
    # rule 4 — linearization + mirroring
    # ------------------------------------------------------------------
    def _rule4_linearize(self, ctx: RoundContext) -> None:
        state = self.state
        forwards = 0
        for level in sorted(state.nodes):
            node = state.nodes[level]
            ui = node.ref
            uik = ui._key
            nu = node._nu
            lefts = sorted((w for w in nu if w._key < uik), key=_KEY, reverse=True)
            for a, b in zip(lefts, lefts[1:]):
                # forward: starting point moves closer to the endpoint
                ctx.send(a.owner, EdgeAdd(a, b, KIND_UNMARKED))
                nu.discard(b)
                forwards += 1
            rights = sorted((w for w in nu if w._key > uik), key=_KEY)
            for a, b in zip(rights, rights[1:]):
                ctx.send(a.owner, EdgeAdd(a, b, KIND_UNMARKED))
                nu.discard(b)
                forwards += 1
            # mirroring: at this point nu holds only the two closest
            # neighbors (paper's note on rule 4)
            for v in sorted(nu, key=_KEY):
                ctx.send(v.owner, EdgeAdd(v, ui, KIND_UNMARKED))
            # re-add the closest real neighbors (paper: Nu(ui) := Nu(ui)
            # ∪ {rl(ui)} ∪ {rr(ui)})
            if node._rl is not None:
                nu.add(node._rl)
            if node._rr is not None:
                nu.add(node._rr)
        if forwards:
            self.counters.bump("rule4_forward", forwards)

    # ------------------------------------------------------------------
    # rule 5 — ring edges
    # ------------------------------------------------------------------
    def _rule5_ring(self, ctx: RoundContext) -> None:
        state = self.state
        knowledge = state.knowledge()
        kmin = min(knowledge, key=_KEY)
        kmax = max(knowledge, key=_KEY)
        reals = state.known_reals(knowledge)
        for level in sorted(state.nodes):
            node = state.nodes[level]
            ui = node.ref
            uik = ui._key
            has_left = has_right = False
            for w in node._nu:
                wk = w._key
                if wk < uik:
                    has_left = True
                elif wk > uik:
                    has_right = True
            if not has_left and kmax != ui:
                # believe to be the minimum: ask the largest known node to
                # hold a ring edge toward us
                ctx.send(kmax.owner, EdgeAdd(kmax, ui, KIND_RING))
                self.counters.bump("rule5_create")
            if not has_right and kmin != ui:
                ctx.send(kmin.owner, EdgeAdd(kmin, ui, KIND_RING))
                self.counters.bump("rule5_create")
            nr = node._nr
            for w in sorted(nr, key=_KEY):
                if w == ui:
                    nr.discard(w)  # self-edge sanitation [D10]
                    continue
                # scope max/min over (knowledge ∪ node.nr): the extreme of
                # the union is the extreme of the two extremes
                wk = w._key
                if wk > uik:
                    # w believes itself the maximum; this edge must reach
                    # the global minimum
                    x = kmax
                    xk = x._key
                    for y in nr:
                        yk = y._key
                        if yk > xk:
                            x = y
                            xk = yk
                    if xk > wk:
                        # w is not the maximum: hand it to a larger node
                        ctx.send(x.owner, EdgeAdd(x, w, KIND_UNMARKED))
                        nr.discard(w)
                        self.counters.bump("rule5_convert")
                    elif kmin != ui:
                        ctx.send(kmin.owner, EdgeAdd(kmin, w, KIND_RING))
                        nr.discard(w)
                        self.counters.bump("rule5_forward")
                    else:
                        # we are the smallest known node: hold the edge.
                        # Seam exchange [D6]: tell the other side the
                        # smallest real node we know.
                        if self.config.wrap_pointers and reals:
                            ctx.send(w.owner, RealCandidate(w, reals[0], SIDE_RIGHT, wrap=True))
                else:
                    x = kmin
                    xk = x._key
                    for y in nr:
                        yk = y._key
                        if yk < xk:
                            x = y
                            xk = yk
                    if xk < wk:
                        ctx.send(x.owner, EdgeAdd(x, w, KIND_UNMARKED))
                        nr.discard(w)
                        self.counters.bump("rule5_convert")
                    elif kmax != ui:
                        ctx.send(kmax.owner, EdgeAdd(kmax, w, KIND_RING))
                        nr.discard(w)
                        self.counters.bump("rule5_forward")
                    else:
                        if self.config.wrap_pointers and reals:
                            ctx.send(w.owner, RealCandidate(w, reals[-1], SIDE_LEFT, wrap=True))

    # ------------------------------------------------------------------
    # rule 6 — connection edges
    # ------------------------------------------------------------------
    def _rule6_connection(self, ctx: RoundContext) -> None:
        state = self.state
        sibs = state.sibling_refs()
        for a, b in zip(sibs, sibs[1:]):
            # contiguous virtual siblings are chained with connection edges
            state.nodes[a.level].nc.add(b)
        forward = backward = 0
        for level in sorted(state.nodes):
            node = state.nodes[level]
            nc = node._nc
            if not nc:
                continue
            ui = node.ref
            # predecessor of v in (nu ∪ siblings): one bisect over the
            # merged sorted column, built once per level (nc routinely
            # holds several connection edges per round in the stable
            # flow, so the merge amortizes)
            cands = sorted([*node._nu, *sibs], key=_KEY)
            cand_keys = [c._key for c in cands]
            for v in sorted(nc, key=_KEY):
                if v == ui:
                    nc.discard(v)
                    continue
                idx = bisect_left(cand_keys, v._key)
                w = cands[idx - 1] if idx > 0 else None
                if w is None or w == ui:
                    # we are the largest known node below v: close the
                    # chain with a backward unmarked edge (v -> ui)
                    ctx.send(v.owner, EdgeAdd(v, ui, KIND_UNMARKED))
                    nc.discard(v)
                    backward += 1
                else:
                    ctx.send(w.owner, EdgeAdd(w, v, KIND_CONNECTION))
                    nc.discard(v)
                    forward += 1
        if forward:
            self.counters.bump("rule6_forward", forward)
        if backward:
            self.counters.bump("rule6_backward", backward)

    # ------------------------------------------------------------------
    # graceful leave support
    # ------------------------------------------------------------------
    def leave_introductions(self) -> List[NeighborIntro]:
        """Introductions to send before departing (Section 4.2).

        For every simulated node, its foreign neighbors (all kinds) are
        chained pairwise in sorted order, which keeps the remaining graph
        weakly connected and locally ordered; the normal rules absorb the
        introductions within O(log n) rounds.
        """
        me = self.state.peer_id
        intros: List[NeighborIntro] = []
        for level in sorted(self.state.nodes):
            node = self.state.nodes[level]
            others = sorted(r for r in node.all_out_refs() if r.owner != me)
            for a, b in zip(others, others[1:]):
                intros.append(NeighborIntro(a, b))
                intros.append(NeighborIntro(b, a))
        return intros
