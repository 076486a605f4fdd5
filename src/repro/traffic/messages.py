"""In-band traffic messages: lookups and KV operations as first-class
payloads routed *through* the simulated overlay.

Unlike the snapshot router (:mod:`repro.dht.lookup`), these messages
travel the :mod:`repro.netsim` scheduler alongside stabilization
traffic: each peer forwards a request greedily using its **current**
(possibly degraded) Re-Chord view, one hop per synchronous round.  A
request is hop-stamped (``hops``) and carries the visited-peer ``path``
as an explicit seen-set, so routing loops over corrupt views are
detected in-band instead of burning the TTL.

Payloads subclass :class:`repro.netsim.messages.AppPayload` and provide
the same ``canonical()`` / ``refs()`` surface as the protocol events —
in-flight traffic is part of the global configuration fingerprint, and
the liveness-flip scans of the tracked kernel enumerate every
pending payload's refs.  Traffic messages carry peer *addresses* (plain
ids), never :class:`NodeRef` s, and handlers never consult the liveness
oracle, so ``refs()`` is empty: a membership flip cannot change what a
receiver does with a traffic message, which keeps the dirty-set wake
rules exact without extra scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.netsim.messages import AppPayload
from repro.telemetry.tracing import TraceContext

#: operation kinds carried by requests
OP_LOOKUP = "lookup"
OP_GET = "get"
OP_PUT = "put"

#: terminal statuses stamped on replies (in-band failures included)
ST_OK = "ok"
ST_NOTFOUND = "notfound"
ST_LOOP = "loop"
ST_TTL = "ttl"
ST_DEAD_END = "dead_end"

#: collector-side outcomes that never ride a reply message
OUT_TIMEOUT = "timeout"
OUT_MISROUTE = "misroute"
OUT_ORIGIN_DEAD = "origin_dead"


@dataclass(frozen=True)
class LookupRequest(AppPayload):
    """A routed operation in flight toward the peer responsible for
    ``kid``.

    ``op`` selects lookup/get/put semantics at the terminal peer;
    ``origin`` is the peer awaiting the reply; ``path`` lists every peer
    that has held the request (origin first) and doubles as the
    loop-detection seen-set; ``value`` is the payload of put requests.
    """

    op: str
    op_id: int
    origin: int
    kid: int
    ttl: int
    hops: int = 0
    path: Tuple[int, ...] = ()
    value: Any = None
    #: 1-based attempt number of the resilient request plane; retries
    #: relaunch the op with attempt 2, 3, ... so replies can be matched
    #: to the attempt that produced them (stale-failure suppression)
    attempt: int = 1
    #: True for the duplicate probe a hedged op launches after its
    #: hedge delay (first reply wins, the loser is suppressed)
    hedge: bool = False
    #: causal hop trace of a telemetry-sampled op.  ``compare=False``
    #: keeps it out of equality/hash AND it is excluded from
    #: ``canonical()``: a traced run is byte-identical to an untraced
    #: one (fingerprints, interning, pending multisets all unchanged)
    trace: Optional[TraceContext] = field(compare=False, default=None)

    def forwarded(
        self, next_hop: int, trace: Optional[TraceContext] = None
    ) -> "LookupRequest":
        """The hop-stamped copy sent to ``next_hop``.

        The causal trace is carried along; pass ``trace`` to carry an
        extended one instead (a sampled op recording this hop).  Built
        field by field: this runs once per hop of every op, and
        ``dataclasses.replace`` re-derives the field list on each call.
        """
        return LookupRequest(
            self.op,
            self.op_id,
            self.origin,
            self.kid,
            self.ttl,
            self.hops + 1,
            self.path + (next_hop,),
            self.value,
            self.attempt,
            self.hedge,
            trace if trace is not None else self.trace,
        )

    def canonical(self) -> tuple:
        """Sortable identity tuple for fingerprints.

        The resilience fields are appended only when non-default: a run
        with the resilience plane disabled produces byte-identical
        tuples — and therefore identical configuration fingerprints and
        baseline digests — to every run recorded before retries existed.
        """
        base = (
            "traffic-req",
            self.op,
            self.op_id,
            self.origin,
            self.kid,
            self.ttl,
            self.hops,
            self.path,
            repr(self.value),
        )
        if self.attempt != 1 or self.hedge:
            return base + (self.attempt, self.hedge)
        return base

    def refs(self) -> tuple:
        """Traffic carries peer addresses, not node refs (see module doc)."""
        return ()


@dataclass(frozen=True)
class LookupReply(AppPayload):
    """Terminal verdict of one request, sent straight back to the origin.

    ``owner`` is the peer that terminated the request (the self-believed
    responsible peer for ``ok``/``notfound``, the peer where forwarding
    failed otherwise); ``hops`` is the request's hop stamp at
    termination.  The reply uses the origin address carried by the
    request — the connection-layer direct response, one round — so
    latency measures the *forward* routing path.
    """

    op: str
    op_id: int
    origin: int
    kid: int
    status: str
    owner: int
    hops: int
    value: Any = None
    #: attempt number echoed from the request that produced this reply
    attempt: int = 1
    #: True when this reply answers a hedged duplicate probe
    hedge: bool = False
    #: completed hop trace of a sampled op (see LookupRequest.trace)
    trace: Optional[TraceContext] = field(compare=False, default=None)

    def canonical(self) -> tuple:
        """Sortable identity tuple for fingerprints.

        As on :meth:`LookupRequest.canonical`, the resilience fields are
        appended only when non-default so resilience-off runs keep their
        historical fingerprints bit-for-bit.
        """
        base = (
            "traffic-rep",
            self.op,
            self.op_id,
            self.origin,
            self.kid,
            self.status,
            self.owner,
            self.hops,
            repr(self.value),
        )
        if self.attempt != 1 or self.hedge:
            return base + (self.attempt, self.hedge)
        return base

    def refs(self) -> tuple:
        """Traffic carries peer addresses, not node refs (see module doc)."""
        return ()
