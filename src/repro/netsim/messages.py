"""Message envelopes for the synchronous kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

#: 64-bit wrap-around for the rolling multiset fingerprints
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
    not dirty the overlay: the tracked kernel runs a one-shot's target
    the round it consumes it and nothing more, and the columnar kernel
    holds the mail in a per-target lane and runs only the handler.
    """

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Envelope:
    """A message in flight between two actors.

    ``sender``/``target`` are actor keys known to the scheduler; ``payload``
    is protocol-defined and treated opaquely by the kernel.  Envelopes are
    immutable: the synchronous model forbids a sender from mutating a
    message after the send.

    ``_fp`` is the lazily memoized fingerprint slot (see
    :func:`envelope_fingerprint`); slots keep construction and field
    access cheap on the millions of envelopes a large run mints.
    Equality/hash are hand-rolled with the usual dataclass semantics
    (field-wise) but without intermediate tuple allocations: the
    round-boundary outbox diffs compare whole outboxes every round, and
    this is their innermost loop.
    """

    __slots__ = ("sender", "target", "payload", "_fp")

    sender: Hashable
    target: Hashable
    payload: Any

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
        object.__setattr__(self, "sender", state[0])
        object.__setattr__(self, "target", state[1])
        object.__setattr__(self, "payload", state[2])


def envelope_fingerprint(env: Envelope) -> int:
    """Order-independent fingerprint contribution of one in-flight message.

    Mirrors the canonical pending-message identity used by the global
    network fingerprint: ``(target, payload.canonical())`` — the sender
    is deliberately excluded.  Payloads without ``canonical()`` (generic
    actors in unit tests) hash directly, falling back to ``repr`` for
    unhashable ones; exactness guarantees only cover canonical payloads.

    The value is memoized on the (immutable) envelope: the rolling
    pending-multiset hashes touch the same envelope several times over
    its life (post, account, deliver), and the columnar kernel's flow
    surgery would otherwise recompute canonical forms per boundary.
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
    object.__setattr__(env, "_fp", fp)
    return fp


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


def future_fingerprint(env: Envelope, remaining: int) -> int:
    """Fingerprint contribution of a scheduled (not yet matured)
    delivery: the pending identity extended with the remaining delay in
    rounds — two configurations holding the same envelope at different
    maturities are different configurations."""
    return hash((env.target, envelope_canon(env), remaining)) & HASH_MASK


def outbox_fingerprint(outbox: Sequence[Envelope]) -> int:
    """Multiset hash-sum of one actor's emissions (64-bit wrap-around)."""
    total = 0
    for env in outbox:
        total = (total + envelope_fingerprint(env)) & HASH_MASK
    return total
