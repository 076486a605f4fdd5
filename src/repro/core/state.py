"""Per-peer protocol state.

A peer simulates its real node ``u_0`` plus virtual nodes ``u_1..u_m``
(the *siblings*).  Every simulated node keeps the outgoing neighborhoods
of Section 2.2:

* ``nu`` — unmarked edges ``E_u`` (includes the closest-real pointers
  ``rl``/``rr`` exactly as in the paper's rule 3);
* ``nr`` — ring edges ``E_r``;
* ``nc`` — connection edges ``E_c``;
* ``wrap_rl``/``wrap_rr`` — the wrap-around closest-real pointers of the
  seam extension (DESIGN.md [D6]); these live outside ``nu`` so the
  linearization never tries to "sort" an intentionally far edge;
* ``rl``/``rr`` — cached results of rule 3's closest-real computation,
  re-derived every round; they parameterize the receiver-side guards of
  rule 3's candidate messages.

All mutation happens through the owning peer's rule pipeline; this module
only provides the containers plus the derived *knowledge* queries
(``N``/``K`` in DESIGN.md [D5]).

Activity tracking
-----------------

Every :class:`PeerState` carries a cheap monotonic ``version`` counter
that is bumped by **every state-changing operation** — set membership
changes (through :class:`TrackedSet`), pointer-slot writes (through the
property setters of :class:`LocalNode`), and level creation/deletion.
No-op writes (adding a present element, re-assigning an equal pointer)
do *not* bump, so a peer whose round left its state identical keeps its
version.  The activity-tracked scheduler uses the counter as a cheap
"possibly changed" probe: only when the version moved does it pay for an
exact :meth:`PeerState.canonical` comparison.  Note that a steady-state
round may bump the version transiently (e.g. connection edges are
delivered into ``nc`` and re-forwarded out of it within one step), which
is why the counter alone is a *conservative* signal, never a proof of
change.
"""

from __future__ import annotations

import copy as _copy
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from repro.core.noderef import NodeRef, make_ref
from repro.idspace.ring import IdSpace

#: sort-key accessor (C-level tuple compare beats NodeRef.__lt__ dispatch)
_KEY = attrgetter("_key")


class TrackedSet(set):
    """A ``set`` that bumps its owner's state version on real mutations.

    Only *effective* mutations bump (adding an element already present or
    discarding a missing one is a no-op).  Results of binary operators
    (``|``, ``&``, …) on CPython are plain ``set`` objects, so derived
    collections never alias the tracking; the ``_owner = None`` class
    default keeps any stray untracked instance safe to mutate.
    """

    _owner: Optional["PeerState"] = None

    def __init__(self, owner: Optional["PeerState"] = None, iterable: Iterable = ()) -> None:
        super().__init__(iterable)
        self._owner = owner

    # -- effective-mutation wrappers -----------------------------------
    def add(self, element) -> None:
        if element not in self:
            set.add(self, element)
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def discard(self, element) -> None:
        if element in self:
            set.discard(self, element)
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def remove(self, element) -> None:
        set.remove(self, element)  # raises KeyError on a miss, like set
        owner = self._owner
        if owner is not None:
            owner.version += 1

    def pop(self):
        element = set.pop(self)
        owner = self._owner
        if owner is not None:
            owner.version += 1
        return element

    def clear(self) -> None:
        if self:
            set.clear(self)
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def update(self, *others) -> None:
        before = len(self)
        set.update(self, *others)
        if len(self) != before:
            owner = self._owner
            if owner is not None:
                owner.version += 1

    __ior__ = None  # replaced below; set.__ior__ would bypass tracking

    def difference_update(self, *others) -> None:
        before = len(self)
        set.difference_update(self, *others)
        if len(self) != before:
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def intersection_update(self, *others) -> None:
        before = len(self)
        set.intersection_update(self, *others)
        if len(self) != before:
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def symmetric_difference_update(self, other) -> None:
        # materialize once: `other` may be a one-shot iterator, and the
        # length may be preserved while content changes
        other = set(other)
        changed = bool(other - self) or bool(self & other)
        set.symmetric_difference_update(self, other)
        if changed:
            owner = self._owner
            if owner is not None:
                owner.version += 1

    def __deepcopy__(self, memo: dict) -> "TrackedSet":
        new = TrackedSet(_copy.deepcopy(self._owner, memo))
        for element in self:
            set.add(new, _copy.deepcopy(element, memo))
        return new

    def __reduce__(self):
        # the default set reduction would rebuild via TrackedSet(items),
        # binding the element list to the ``owner`` parameter and
        # silently producing an EMPTY set under pickle / copy.copy
        return (_rebuild_tracked_set, (list(self), self._owner))


def _rebuild_tracked_set(items: list, owner: Optional["PeerState"]) -> "TrackedSet":
    """Pickle/copy reconstructor for :class:`TrackedSet`."""
    return TrackedSet(owner, items)


def _ior(self: TrackedSet, other) -> TrackedSet:
    self.update(other)
    return self


def _isub(self: TrackedSet, other) -> TrackedSet:
    self.difference_update(other)
    return self


def _iand(self: TrackedSet, other) -> TrackedSet:
    self.intersection_update(other)
    return self


def _ixor(self: TrackedSet, other) -> TrackedSet:
    self.symmetric_difference_update(other)
    return self


TrackedSet.__ior__ = _ior
TrackedSet.__isub__ = _isub
TrackedSet.__iand__ = _iand
TrackedSet.__ixor__ = _ixor


def _tracked_set_slot(slot: str) -> property:
    """Neighborhood-set property: assignment rewraps into a TrackedSet."""

    def fget(self: "LocalNode") -> TrackedSet:
        return getattr(self, slot)

    def fset(self: "LocalNode", value: Iterable) -> None:
        old = getattr(self, slot, None)
        if value is old:
            return  # in-place operators (|=) re-assign the same object
        new = TrackedSet(self._state, value)
        setattr(self, slot, new)
        owner = self._state
        if owner is not None and (old is None or set.__ne__(old, new)):
            owner.version += 1

    return property(fget, fset)


def _tracked_scalar_slot(slot: str) -> property:
    """Pointer-slot property: assignment bumps only on a real change."""

    def fget(self: "LocalNode"):
        return getattr(self, slot)

    def fset(self: "LocalNode", value) -> None:
        if getattr(self, slot) != value:
            setattr(self, slot, value)
            owner = self._state
            if owner is not None:
                owner.version += 1

    return property(fget, fset)


class LocalNode:
    """State of one simulated node (real or virtual).

    The ``bcast_*`` fields are only used by the *economical broadcast*
    extension (``RuleConfig.economical_broadcast``): they memoize the
    last announced closest-real values and recipients so rule 3 can
    suppress redundant re-announcements.  They are protocol state (they
    influence the dynamics when the extension is on) and therefore part
    of the canonical fingerprint.

    All mutable fields route through tracking wrappers (see the module
    docstring): the neighborhoods are :class:`TrackedSet` instances and
    the pointer slots are properties that bump the owning peer's version
    only on effective changes.
    """

    __slots__ = (
        "ref",
        "_state",
        "_nu",
        "_nr",
        "_nc",
        "_rl",
        "_rr",
        "_wrap_rl",
        "_wrap_rr",
        "_bcast_rl",
        "_bcast_rl_targets",
        "_bcast_rr",
        "_bcast_rr_targets",
        "_memo",
        "_carry",
        "_canon",
    )

    def __init__(self, ref: NodeRef, state: Optional["PeerState"] = None) -> None:
        self.ref = ref
        self._state = state
        self._nu = TrackedSet(state)
        self._nr = TrackedSet(state)
        self._nc = TrackedSet(state)
        self._rl: Optional[NodeRef] = None
        self._rr: Optional[NodeRef] = None
        self._wrap_rl: Optional[NodeRef] = None
        self._wrap_rr: Optional[NodeRef] = None
        self._bcast_rl: Optional[NodeRef] = None
        self._bcast_rl_targets: Optional[frozenset] = None
        self._bcast_rr: Optional[NodeRef] = None
        self._bcast_rr_targets: Optional[frozenset] = None
        #: the fast rule pipeline's per-(node, phase) memo (see
        #: repro.core.rules_batched): derived data, never protocol state —
        #: outside canonical(), dropped by copies and pickles, gone with
        #: the node when its level is dropped
        self._memo: Optional[list] = None
        #: the fast pipeline's record of this node's last execution, which
        #: lets a later step carry the node instead of running it; derived
        #: data like ``_memo``
        self._carry: Optional[list] = None
        #: content-keyed memo of :meth:`canonical` — ``(nu, nr, nc frozen,
        #: pointer slots, the tuple)``; derived data like ``_memo``
        self._canon: Optional[tuple] = None

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_memo", "_carry", "_canon")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._memo = None
        self._carry = None
        self._canon = None

    nu = _tracked_set_slot("_nu")
    nr = _tracked_set_slot("_nr")
    nc = _tracked_set_slot("_nc")
    rl = _tracked_scalar_slot("_rl")
    rr = _tracked_scalar_slot("_rr")
    wrap_rl = _tracked_scalar_slot("_wrap_rl")
    wrap_rr = _tracked_scalar_slot("_wrap_rr")
    bcast_rl = _tracked_scalar_slot("_bcast_rl")
    bcast_rl_targets = _tracked_scalar_slot("_bcast_rl_targets")
    bcast_rr = _tracked_scalar_slot("_bcast_rr")
    bcast_rr_targets = _tracked_scalar_slot("_bcast_rr_targets")

    def wrap_refs(self) -> List[NodeRef]:
        """The wrap pointers that are set, as a list."""
        out = []
        if self._wrap_rl is not None:
            out.append(self._wrap_rl)
        if self._wrap_rr is not None:
            out.append(self._wrap_rr)
        return out

    def all_out_refs(self) -> Set[NodeRef]:
        """Every outgoing reference of this node (all kinds + wraps)."""
        out = set(self._nu)
        out |= self._nr
        out |= self._nc
        out.update(self.wrap_refs())
        return out

    def canonical(self) -> tuple:
        """Deterministic state tuple for fingerprints.

        Memoized on content: an executed step moves the peer's version
        but usually leaves most levels as they were, and comparing three
        sets and eight slots (C-level, identity first) is far cheaper
        than re-sorting them.  An unchanged level hands back the *same*
        tuple, so comparing two peer tokens short-circuits on it.
        """
        slots = (
            self._rl, self._rr, self._wrap_rl, self._wrap_rr,
            self._bcast_rl, self._bcast_rl_targets,
            self._bcast_rr, self._bcast_rr_targets,
        )
        cached = self._canon
        if (
            cached is not None
            and cached[0] == self._nu
            and cached[1] == self._nr
            and cached[2] == self._nc
            and cached[3] == slots
        ):
            return cached[4]

        def k(ref: Optional[NodeRef]) -> tuple | None:
            return None if ref is None else ref.key

        def ks(refs: Optional[frozenset]) -> tuple | None:
            return None if refs is None else tuple(sorted(r.key for r in refs))

        value = (
            self.ref.key,
            tuple(sorted(r.key for r in self._nu)),
            tuple(sorted(r.key for r in self._nr)),
            tuple(sorted(r.key for r in self._nc)),
            k(self._rl),
            k(self._rr),
            k(self._wrap_rl),
            k(self._wrap_rr),
            k(self._bcast_rl),
            ks(self._bcast_rl_targets),
            k(self._bcast_rr),
            ks(self._bcast_rr_targets),
        )
        self._canon = (
            frozenset(self._nu), frozenset(self._nr), frozenset(self._nc), slots, value
        )
        return value


class PeerState:
    """All simulated nodes of one peer, plus derived knowledge queries."""

    __slots__ = ("peer_id", "space", "nodes", "version", "_canon")

    def __init__(self, peer_id: int, space: IdSpace) -> None:
        space.check_id(peer_id)
        self.peer_id = peer_id
        self.space = space
        #: monotonic mutation counter (see module docstring); bumped by
        #: every effective state change, compared cheaply by the
        #: activity-tracked scheduler
        self.version = 0
        #: (version, tuple) memo of :meth:`canonical` — valid exactly
        #: while the version has not moved, because every effective
        #: mutation bumps it (the same invariant the tracked kernel
        #: already relies on)
        self._canon = (-1, None)
        self.nodes: Dict[int, LocalNode] = {
            0: LocalNode(make_ref(space, peer_id, 0), self)
        }

    # ------------------------------------------------------------------
    # sibling management
    # ------------------------------------------------------------------
    @property
    def real_ref(self) -> NodeRef:
        """The ref of the real node ``u_0``."""
        return self.nodes[0].ref

    def levels(self) -> List[int]:
        """Existing levels, sorted ascending."""
        return sorted(self.nodes)

    def max_level(self) -> int:
        """The highest existing level (``u_m``'s level; 0 only pre-step)."""
        return max(self.nodes)

    def ensure_level(self, level: int) -> LocalNode:
        """Create the node at ``level`` (empty neighborhoods) if missing."""
        node = self.nodes.get(level)
        if node is None:
            node = LocalNode(make_ref(self.space, self.peer_id, level), self)
            self.nodes[level] = node
            self.version += 1
        return node

    def drop_level(self, level: int) -> LocalNode:
        """Remove and return the node at ``level`` (never level 0)."""
        if level == 0:
            raise ValueError("the real node cannot be dropped")
        node = self.nodes.pop(level)
        self.version += 1
        return node

    def sibling_refs(self) -> List[NodeRef]:
        """Refs of all existing siblings, in linear (key) order."""
        return sorted((n.ref for n in self.nodes.values()), key=_KEY)

    def resolve(self, ref: NodeRef) -> Optional[LocalNode]:
        """The local node a message to ``ref`` lands on.

        Exact level if it exists; otherwise the current highest level
        ``u_m``, which inherited deleted nodes' neighborhoods (DESIGN.md
        [D8]).  Returns ``None`` only if the ref names another peer.
        """
        if ref.owner != self.peer_id:
            return None
        node = self.nodes.get(ref.level)
        if node is not None:
            return node
        return self.nodes[self.max_level()]

    # ------------------------------------------------------------------
    # knowledge (the paper's N / DESIGN.md's K)
    # ------------------------------------------------------------------
    def knowledge(self) -> Set[NodeRef]:
        """Every node ref this peer can name: siblings + all out-refs."""
        known: Set[NodeRef] = {n.ref for n in self.nodes.values()}
        for node in self.nodes.values():
            known |= node._nu
            known |= node._nr
            known |= node._nc
            known.update(node.wrap_refs())
        return known

    def referenced_owners(self) -> Set[int]:
        """Owner ids of every ref whose liveness this peer's step consults.

        The reverse-dependency index of the tracked kernel: a change
        to one of these owners (crash, graceful leave, or a level-set
        change that flips an ``ok``/``phantom`` verdict) can alter this
        peer's purge behavior, so the peer must be re-activated.
        """
        owners: Set[int] = set()
        for node in self.nodes.values():
            for ref in node._nu:
                owners.add(ref.owner)
            for ref in node._nr:
                owners.add(ref.owner)
            for ref in node._nc:
                owners.add(ref.owner)
            for ref in (node._rl, node._rr, node._wrap_rl, node._wrap_rr):
                if ref is not None:
                    owners.add(ref.owner)
        return owners

    def known_reals(self, knowledge: Optional[Iterable[NodeRef]] = None) -> List[NodeRef]:
        """All *real* refs in the peer's knowledge, sorted linearly."""
        source = self.knowledge() if knowledge is None else knowledge
        return sorted((r for r in source if r.level == 0), key=_KEY)

    def closest_real_gap(self, reals: Optional[Iterable[NodeRef]] = None) -> int:
        """Clockwise distance to the nearest known real node (≠ self).

        Returns the full ring size when no other real node is known —
        the ``m = 1`` case of rule 1.  ``reals`` passes the peer's known
        reals when the caller already has them.
        """
        best = self.space.size
        me = self.peer_id
        for ref in self.known_reals() if reals is None else reals:
            if ref.owner == me:
                continue
            d = self.space.distance_cw(me, ref.id)
            if 0 < d < best:
                best = d
        return best

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        """Deterministic peer-state tuple for fingerprints.

        Cached keyed on :attr:`version`: quiescence probes and global
        fingerprints of unchanged peers return the memoized tuple
        instead of rebuilding it — the scan cost of a full fingerprint
        then scales with the peers that actually changed.
        """
        cached_version, cached = self._canon
        if cached_version == self.version:
            return cached
        value = (
            self.peer_id,
            tuple(self.nodes[level].canonical() for level in sorted(self.nodes)),
        )
        self._canon = (self.version, value)
        return value

    def edge_count(self) -> int:
        """Total outgoing edges of this peer (all kinds + wrap pointers)."""
        return sum(
            len(n._nu) + len(n._nr) + len(n._nc) + len(n.wrap_refs())
            for n in self.nodes.values()
        )
