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

Requests, replies and the collector's :class:`~repro.traffic.slo.IssuedOp`
are built once per hop or per op, so they are slotted named tuples
(:class:`TrafficRecord`) rather than frozen dataclasses: one C-level
tuple build instead of an ``object.__setattr__`` call per field.
"""

from __future__ import annotations

from collections import namedtuple

from repro.netsim.messages import AppPayload

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


class TrafficRecord:
    """Dataclass-style equality for the traffic plane's named-tuple
    value classes (mixed in ahead of the ``namedtuple`` base).

    An instance equals only an instance of the same class (never a
    plain tuple), compared and hashed over the fields ``_compared``
    selects: all but the trailing ``trace`` by default, so a traced run
    interns, fingerprints and compares exactly like an untraced one.
    Immutability, ``__slots__ = ()``, pickling and ``deepcopy`` come
    from the tuple; ``_replace(**changes)`` is the ``dataclasses.replace``
    of these classes.
    """

    __slots__ = ()
    #: the fields equality and hash look at
    _compared = slice(None, -1)

    # False, not NotImplemented, for another class: the reflected
    # tuple.__eq__ would otherwise equal a plain tuple of the fields.
    # __ne__ is spelled out because tuple's own would compare the trace
    def __eq__(self, other: object) -> bool:
        part = self._compared
        return other.__class__ is self.__class__ and self[part] == other[part]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[self._compared])


_RequestFields = namedtuple(
    "_RequestFields",
    "op op_id origin kid ttl hops path value attempt hedge trace",
    defaults=(0, (), None, 1, False, None),
)


class LookupRequest(TrafficRecord, _RequestFields, AppPayload):
    """A routed operation in flight toward the peer responsible for
    ``kid``.

    ``op`` selects lookup/get/put semantics at the terminal peer;
    ``origin`` is the peer awaiting the reply; ``path`` lists every peer
    that has held the request (origin first) and doubles as the
    loop-detection seen-set; ``value`` is the payload of put requests.

    ``attempt`` is the 1-based attempt number of the resilient request
    plane (retries relaunch the op with attempt 2, 3, ... so replies can
    be matched to the attempt that produced them); ``hedge`` is true for
    the duplicate probe a hedged op launches after its hedge delay.
    ``trace`` is the causal hop trace of a telemetry-sampled op
    (:class:`TraceContext`): it is left out of equality, hash and
    ``canonical()``, so a traced run is byte-identical to an untraced
    one (fingerprints, interning, pending multisets all unchanged).
    """

    __slots__ = ()

    def canonical(self) -> tuple:
        """Sortable identity tuple for fingerprints.

        The resilience fields are appended only when non-default: a run
        with the resilience plane disabled produces byte-identical
        tuples — and therefore identical configuration fingerprints and
        baseline digests — to every run recorded before retries existed.
        """
        op, op_id, origin, kid, ttl, hops, path, value, attempt, hedge, _ = self
        base = ("traffic-req", op, op_id, origin, kid, ttl, hops, path, repr(value))
        if attempt != 1 or hedge:
            return base + (attempt, hedge)
        return base

    def refs(self) -> tuple:
        """Traffic carries peer addresses, not node refs (see module doc)."""
        return ()


_ReplyFields = namedtuple(
    "_ReplyFields",
    "op op_id origin kid status owner hops value attempt hedge trace",
    defaults=(None, 1, False, None),
)


class LookupReply(TrafficRecord, _ReplyFields, AppPayload):
    """Terminal verdict of one request, sent straight back to the origin.

    ``owner`` is the peer that terminated the request (the self-believed
    responsible peer for ``ok``/``notfound``, the peer where forwarding
    failed otherwise); ``hops`` is the request's hop stamp at
    termination.  The reply uses the origin address carried by the
    request — the connection-layer direct response, one round — so
    latency measures the *forward* routing path.  ``attempt`` and
    ``hedge`` are echoed from the request that produced the reply;
    ``trace`` is the completed hop trace of a sampled op, outside
    equality, hash and ``canonical()`` (see :class:`LookupRequest`).
    """

    __slots__ = ()

    def canonical(self) -> tuple:
        """Sortable identity tuple for fingerprints.

        As on :meth:`LookupRequest.canonical`, the resilience fields are
        appended only when non-default so resilience-off runs keep their
        historical fingerprints bit-for-bit.
        """
        op, op_id, origin, kid, status, owner, hops, value, attempt, hedge, _ = self
        base = ("traffic-rep", op, op_id, origin, kid, status, owner, hops, repr(value))
        if attempt != 1 or hedge:
            return base + (attempt, hedge)
        return base

    def refs(self) -> tuple:
        """Traffic carries peer addresses, not node refs (see module doc)."""
        return ()
