"""Identities of real and virtual nodes.

A peer with identifier ``u`` simulates virtual nodes ``u_i`` at positions
``(u + 2**(bits-i)) mod 2**bits``.  A :class:`NodeRef` names one such node:
``(id, owner, level)`` with ``level == 0`` for the real node itself.  Refs
are what travels in messages and populates neighborhoods — they carry
enough information to reach the owner (the peer) and to address the
specific simulated node.

Ordering: the protocol's rules 2–6 need a *strict total order* on nodes
(unique "closest" nodes).  Identifiers alone are not enough in small test
id-spaces where a virtual position can collide with another node, so refs
order by ``(id, is_virtual, owner, level)`` — real nodes sort before
virtual nodes at equal ids (DESIGN.md [D2]).  With 64-bit random ids the
tie-break never fires in practice.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.idspace.ring import IdSpace


class NodeRef:
    """Immutable reference to a (real or virtual) node.

    Construct via :func:`make_ref` (or :meth:`NodeRef.real`) so that the
    ``id`` is always consistent with ``(owner, level)`` — the protocol and
    its proofs assume this consistency, and the factory makes corrupt
    ids unrepresentable.
    """

    __slots__ = ("id", "owner", "level", "iid", "_key", "_hash")

    def __init__(self, ident: int, owner: int, level: int) -> None:
        object.__setattr__(self, "id", ident)
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "level", level)
        # dense intern id; -1 until the registry adopts this ref
        object.__setattr__(self, "iid", -1)
        object.__setattr__(self, "_key", (ident, 0 if level == 0 else 1, owner, level))
        object.__setattr__(self, "_hash", hash((owner, level)))

    # refs are conceptually frozen
    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("NodeRef is immutable")

    # immutability makes copying the identity function (and keeps
    # ``copy.deepcopy`` away from the raising ``__setattr__``)
    def __copy__(self) -> "NodeRef":
        return self

    def __deepcopy__(self, memo: dict) -> "NodeRef":
        return self

    def __reduce__(self):
        return (_reconstruct, (self.id, self.owner, self.level))

    @staticmethod
    def real(owner: int) -> "NodeRef":
        """The real node (level 0) of peer ``owner``."""
        return INTERN.intern(owner, owner, 0)

    @property
    def is_real(self) -> bool:
        """Whether this names a real node (level 0)."""
        return self.level == 0

    @property
    def key(self) -> Tuple[int, int, int, int]:
        """The strict-total-order sort key."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NodeRef):
            return NotImplemented
        return self.owner == other.owner and self.level == other.level

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "NodeRef") -> bool:
        return self._key < other._key

    def __le__(self, other: "NodeRef") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "NodeRef") -> bool:
        return self._key > other._key

    def __ge__(self, other: "NodeRef") -> bool:
        return self._key >= other._key

    def __repr__(self) -> str:
        kind = "R" if self.level == 0 else f"V{self.level}"
        return f"<{kind} id={self.id} owner={self.owner}>"


class InternTable:
    """Process-global registry mapping each node identity to one ref.

    Every ref minted through :func:`make_ref` / :meth:`NodeRef.real` is a
    singleton per ``(id, owner, level)`` triple and carries a dense
    integer ``iid``: the order in which the table first saw it.  The
    batched rule engine keys its envelope cache on ``iid``s, which are
    cheaper to hash than refs.

    Rows never evict: a peer leaving the network keeps its rows, so an
    ``iid`` observed once names the same identity for good — the
    property that cache relies on.

    Direct ``NodeRef(...)`` construction remains legal (``iid == -1``,
    equality and hashing unchanged); interning is an acceleration layer,
    not a semantic one.
    """

    __slots__ = ("_by_key",)

    def __init__(self) -> None:
        self._by_key: Dict[Tuple[int, int, int], NodeRef] = {}

    def intern(self, ident: int, owner: int, level: int) -> NodeRef:
        """The singleton ref for ``(ident, owner, level)`` (minted once)."""
        key = (ident, owner, level)
        ref = self._by_key.get(key)
        if ref is None:
            ref = NodeRef(ident, owner, level)
            object.__setattr__(ref, "iid", len(self._by_key))
            self._by_key[key] = ref
        return ref


#: the process-wide intern table (grows monotonically, never evicts —
#: the batched engine's envelope cache keys on ``iid``s, so an ``iid``
#: must name one identity for good, and evicting would also let two
#: live objects claim the same identity)
INTERN = InternTable()


def _reconstruct(ident: int, owner: int, level: int) -> NodeRef:
    """Unpickle hook: route through the registry to keep refs singleton."""
    return INTERN.intern(ident, owner, level)


def make_ref(space: IdSpace, owner: int, level: int) -> NodeRef:
    """Build the ref of node ``u_level`` of peer ``owner`` (id derived)."""
    if level < 0 or level > space.max_level():
        raise ValueError(f"level must be in [0, {space.max_level()}], got {level}")
    return INTERN.intern(space.virtual_id(owner, level), owner, level)
