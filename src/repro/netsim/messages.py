"""Message envelopes for the synchronous kernel."""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Optional, Sequence, Set

#: 64-bit wrap-around for the multiset fingerprints (``SubFlow.fp_sum``)
HASH_MASK = (1 << 64) - 1


class AppPayload:
    """Marker base for application-plane payloads (the traffic plane).

    The kernel buffers, delivers, drop-filters, delays, counts and
    fingerprints (via ``canonical()``) these like any other payload, but
    the protocol layer routes them to the peer's attached traffic
    handler instead of the stabilization rules.  Subclasses must provide
    ``canonical()`` and ``refs()`` like the protocol payloads do.

    The lane contract (dirty-set kernels): application messages are
    *one-shot*, never steady flow.  They enter the network through
    ``post()`` or a handler's ``RoundContext.send_once()`` — never
    ``send()`` — so they stay out of the steady-emission cache, and a
    step that consumed or emitted one remains a valid replay template.
    Handlers may read the peer's state, external stores and the message
    — never the liveness oracle — and must not mutate overlay state
    (enforced on lane-only rounds).  In return application mail does
    not dirty the overlay: in the dirty-set kernel a clean receiver
    replays its rules and runs only the handler.  ``RoundContext.send()``
    refuses one where it builds a new envelope.
    """

    __slots__ = ()


class Envelope:
    """A message in flight between two actors.

    ``sender``/``target`` are actor keys known to the scheduler; ``payload``
    is protocol-defined and treated opaquely by the kernel.  Envelopes are
    immutable: the synchronous model forbids a sender from mutating a
    message after the send.

    Immutability is kept by the class: ``__setattr__`` and
    ``__delattr__`` raise ``AttributeError`` for every name, so only
    the holders of the slot descriptors write a slot — the constructor
    (``Envelope.sender.__set__``, ...; unpickling reuses it) and the
    ``_fp`` memo of :func:`envelope_fingerprint`.  Building through the
    descriptors roughly halves the cost of a frozen dataclass's
    ``object.__setattr__`` per field: every traffic hop mints one.
    Equality/hash are field-wise, without tuple allocations in
    ``__eq__`` (the innermost loop of the round-boundary outbox diffs).
    """

    __slots__ = ("sender", "target", "payload", "_fp")

    sender: Hashable
    target: Hashable
    payload: Any

    def __init__(self, sender: Hashable, target: Hashable, payload: Any) -> None:
        _set_sender(self, sender)
        _set_target(self, target)
        _set_payload(self, payload)

    def __setattr__(self, name: str, *_: Any) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}: envelopes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Envelope({self.sender!r} -> {self.target!r}: {self.payload!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Envelope:
            return NotImplemented
        return (
            self.target == other.target
            and self.sender == other.sender
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.sender, self.target, self.payload))

    def __getstate__(self) -> tuple:
        # the memoized fingerprint (see envelope_fingerprint) is only
        # valid within this process — hash() of strings is randomized
        # per interpreter — so it must not survive pickling
        return (self.sender, self.target, self.payload)

    def __setstate__(self, state: tuple) -> None:
        Envelope.__init__(self, *state)


# the slot writers: the only way into an envelope (see Envelope)
_set_sender = Envelope.sender.__set__
_set_target = Envelope.target.__set__
_set_payload = Envelope.payload.__set__
_set_fp = Envelope._fp.__set__


def envelope_fingerprint(env: Envelope) -> int:
    """Order-independent fingerprint contribution of one in-flight message.

    Mirrors the canonical pending-message identity used by the global
    network fingerprint: ``(target, payload.canonical())`` — the sender
    is deliberately excluded.  Payloads without ``canonical()`` (generic
    actors in unit tests) hash directly, falling back to ``repr`` for
    unhashable ones; exactness guarantees only cover canonical payloads.

    The value is memoized on the (immutable) envelope: a steady
    envelope is interned and stays in flight round after round, so the
    sub-flow sums (:attr:`SubFlow.fp_sum`) and the columnar kernel's
    front diff hash its payload once.
    """
    try:
        return env._fp
    except AttributeError:
        pass
    payload = env.payload
    canon = payload.canonical() if hasattr(payload, "canonical") else payload
    try:
        fp = hash((env.target, canon)) & HASH_MASK
    except TypeError:
        fp = hash((env.target, repr(canon))) & HASH_MASK
    _set_fp(env, fp)
    return fp


class SubFlow(list):
    """One sender's steady envelopes to one target, in emission order.

    The unit the columnar kernel diffs (``_post_step``), stores in its
    columns (one piece per delay class) and hands to the stepper: a
    steady outbox is a set of sub-flows, and between two executions of
    its sender almost all of them repeat.
    A ``SubFlow`` is **immutable once built** — a changed sub-flow is a
    new object, an unchanged one stays the *same* object in the sender's
    split and in the receiver's column — so what is derived from its
    content is derived once per change, not once per round or envelope:

    * :attr:`fp_sum` — the multiset fingerprint sum of its envelopes
      (two sub-flows whose sums differ hold different multisets, which
      is how the kernel knows a changed sub-flow sends a change front
      without diffing it), computed on first use;
    * :meth:`owners` — the owner ids its envelopes reference (what the
      columnar kernel's ``ref_receivers`` query tests), computed on
      first use;
    * :meth:`kept` — what of it a drop filter lets through, computed
      once per filter object;
    * :meth:`delay_buckets` — its envelopes grouped by delivery delay
      under one delivery model, computed on first use and kept while
      that model object stays the one asked for (a model switch
      recomputes it once per live sub-flow) — one ``delay()`` call for
      a model that declares ``per_link`` delays;
    * :attr:`parsed` — a slot that belongs to the *receiving* side: the
      consumer of the sub-flow (the batched rule pipeline) may store its
      parsed form there, tagged with the receiver it was parsed for.
      The kernels never read or clear it.

    One-shot messages (posts, ``send_once``) are never sub-flows: a
    value that is used once has nothing to amortize.
    """

    __slots__ = ("_fp_sum", "_owners", "parsed", "_delays", "_kept")

    def __init__(self, envelopes: Sequence[Envelope] = ()) -> None:
        super().__init__(envelopes)
        self._fp_sum: Optional[int] = None
        self._owners: Optional[frozenset] = None
        self.parsed: Any = None
        self._delays: Optional[tuple] = None
        self._kept: Optional[tuple] = None

    def kept(self, drop: Any) -> "SubFlow":
        """What of it passes the drop filter ``drop``: itself when
        nothing is dropped, else one sub-flow of the survivors, kept
        while that filter object stays the one asked for."""
        cached = self._kept
        if cached is None or cached[0] is not drop:
            survivors = [env for env in self if not drop(env)]
            cached = self._kept = (
                drop, self if len(survivors) == len(self) else SubFlow(survivors)
            )
        return cached[1]

    def delay_buckets(self, model: Any) -> tuple:
        """``((delay, envelopes), ...)`` under delivery ``model``: every
        envelope in exactly one bucket, delays ascending, each bucket in
        emission order.

        The delays are cached per model object (a model must not change
        its answers, see :mod:`repro.netsim.timemodel`).  One sender and
        one target share one link, so a model that declares ``per_link``
        delays is asked once, for the first envelope, and the sub-flow
        is one delay class; only that number is kept — no copy of the
        envelopes, no reference from the sub-flow to itself.  Under a
        payload-keyed model (``reorder``) every envelope is asked, and
        a sub-flow split across delays keeps each bucket as a
        :class:`SubFlow` of its own, so a receiver's parsed form of a
        bucket lasts as long as the bucket.
        """
        cached = self._delays
        if cached is None or cached[0] is not model:
            if not self:
                cached = (model, ())
            elif model.per_link:
                cached = (model, model.delay(self[0]))
            else:
                delay = model.delay
                by_delay: dict = {}
                for env in self:
                    by_delay.setdefault(delay(env), []).append(env)
                if len(by_delay) == 1:
                    (d,) = by_delay
                    cached = (model, d)
                else:
                    cached = (
                        model,
                        tuple((d, SubFlow(envs)) for d, envs in sorted(by_delay.items())),
                    )
            self._delays = cached
        entry = cached[1]
        return entry if entry.__class__ is tuple else ((entry, self),)

    @property
    def fp_sum(self) -> int:
        """The multiset fingerprint sum of its envelopes."""
        fp = self._fp_sum
        if fp is None:
            fp = self._fp_sum = sum(map(envelope_fingerprint, self)) & HASH_MASK
        return fp

    def owners(self) -> frozenset:
        """The owner ids referenced by any of its envelopes (every
        payload enumerates its refs, like the ``ref_receivers`` scan)."""
        owners = self._owners
        if owners is None:
            owners = self._owners = frozenset(ref_owners(self))
        return owners

    def __reduce__(self):
        # derived data is rebuilt, not pickled: fingerprints are only
        # valid within one process (see Envelope.__getstate__)
        return (SubFlow, (list(self),))


def group_by_target(outbox: Sequence[Envelope]) -> dict:
    """``target -> [envelopes]`` of one sender's outbox, targets in
    first-emission order, envelopes in emission order."""
    by_target: dict = {}
    for env in outbox:
        sub = by_target.get(env.target)
        if sub is None:
            by_target[env.target] = [env]
        else:
            sub.append(env)
    return by_target


def ref_owners(envelopes: Sequence[Envelope]) -> Iterator:
    """The owner ids referenced by ``envelopes``, lazily, with repeats.
    Every payload must enumerate its refs (``refs()``): a protocol
    payload without one is a bug, so this fails loudly rather than skip
    it."""
    return (ref.owner for env in envelopes for ref in env.payload.refs())


def receivers_referencing(owners: Set, *mailboxes: dict) -> set:
    """The targets of ``mailboxes`` (``target -> envelopes`` dicts) whose
    mail references any owner in ``owners`` (a box is read up to its
    first hit)."""
    disjoint = owners.isdisjoint
    return {
        target
        for boxes in mailboxes
        for target, box in boxes.items()
        if not disjoint(ref_owners(box))
    }


def envelope_canon(env: Envelope) -> object:
    """The hashable canonical pending identity of one payload.

    Mirrors the identity used by :func:`envelope_fingerprint` and the
    global network fingerprint, but returns the value itself (for keyed
    fingerprints and seeded per-message draws) instead of a hash.  Falls
    back to ``repr``
    for unhashable payloads without ``canonical()`` (generic unit-test
    actors) — exactness guarantees only cover canonical payloads.
    """
    payload = env.payload
    canon = payload.canonical() if hasattr(payload, "canonical") else payload
    try:
        hash(canon)
    except TypeError:
        return repr(canon)
    return canon
