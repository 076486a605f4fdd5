"""Integer identifier-circle arithmetic.

Identifiers live on the circle ``[0, 2**bits)``.  The paper (Section 2)
uses real identifiers in ``[0, 1)``; we use the standard Chord integer form.
All virtual-node positions ``u_i = u + 1/2**i (mod 1)`` map to
``(u + 2**(bits - i)) mod 2**bits`` which is *exact* in integer arithmetic —
using binary floats here would silently round for large ``i`` and break the
"unique closest node" requirements of the protocol.

Two order relations coexist (DESIGN.md Section 3.2):

* the **linear** order of plain integers — used by the self-stabilization
  rules 2-6 (linearization produces a sorted list; ring edges close the
  seam);
* the **ring** order (clockwise distances, wrap-around intervals) — used by
  the ``m`` computation, Chord finger targets and the DHT layer.

This module provides both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default number of identifier bits.  64 bits makes random-id collisions
#: negligible (the paper assumes unique identifiers) while keeping ids
#: machine-word sized on CPython.
DEFAULT_BITS = 64


def ring_distance_cw(a: int, b: int, size: int) -> int:
    """Clockwise (increasing-id) distance from ``a`` to ``b`` on a ring.

    Returns a value in ``[0, size)``; ``0`` iff ``a == b``.
    """
    return (b - a) % size


def ring_between_open(a: int, x: int, b: int, size: int) -> bool:
    """Whether ``x`` lies in the *open* ring interval ``(a, b)``.

    This is the paper's ``[u, v]`` notation from Section 2.2 (their bracket
    notation is exclusive of the endpoints: ``0.2 not in [0.3, 0.8]`` but
    ``0, 0.2 in [0.8, 0.3]``).  When ``a == b`` the interval is the whole
    circle minus the point ``a``.
    """
    if a == b:
        return x != a
    return 0 < (x - a) % size < (b - a) % size


def ring_between_open_closed(a: int, x: int, b: int, size: int) -> bool:
    """Whether ``x`` lies in the half-open ring interval ``(a, b]``.

    Used for Chord key responsibility: the successor of ``k`` is the first
    node ``s`` with ``k`` in ``(predecessor(s), s]``.
    """
    if a == b:
        return True  # single-node ring owns everything
    return 0 < (x - a) % size <= (b - a) % size


@dataclass(frozen=True)
class IdSpace:
    """The identifier circle ``[0, 2**bits)`` and its derived geometry.

    Parameters
    ----------
    bits:
        Number of identifier bits ``B``.  Identifiers are integers in
        ``[0, 2**B)``.  Virtual level ``i`` of a peer with identifier ``u``
        sits at ``(u + 2**(B - i)) mod 2**B``; levels are capped at ``B``
        (deviation [D1] in DESIGN.md — beyond ``B`` the offset would be
        fractional).

    ``size``, the number of points on the circle (``2**bits``), is
    derived once at construction — the ring helpers read it on every
    call — and takes no part in equality, hash, repr or pickling.
    """

    bits: int = DEFAULT_BITS
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"IdSpace needs at least 1 bit, got {self.bits}")
        object.__setattr__(self, "size", 1 << self.bits)

    def __reduce__(self):
        return (IdSpace, (self.bits,))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check_id(self, ident: int) -> int:
        """Validate that ``ident`` is on the circle and return it."""
        if not isinstance(ident, int) or isinstance(ident, bool):
            raise TypeError(f"identifier must be an int, got {type(ident).__name__}")
        if not 0 <= ident < self.size:
            raise ValueError(f"identifier {ident} outside [0, 2**{self.bits})")
        return ident

    # ------------------------------------------------------------------
    # ring geometry
    # ------------------------------------------------------------------
    def distance_cw(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b``."""
        return ring_distance_cw(a, b, self.size)

    def distance_ccw(self, a: int, b: int) -> int:
        """Counter-clockwise distance from ``a`` to ``b``."""
        return ring_distance_cw(b, a, self.size)

    def between_open(self, a: int, x: int, b: int) -> bool:
        """``x`` in the open ring interval ``(a, b)``."""
        return ring_between_open(a, x, b, self.size)

    def between_open_closed(self, a: int, x: int, b: int) -> bool:
        """``x`` in the half-open ring interval ``(a, b]``."""
        return ring_between_open_closed(a, x, b, self.size)

    # ------------------------------------------------------------------
    # virtual nodes / fingers
    # ------------------------------------------------------------------
    def max_level(self) -> int:
        """The largest supported virtual level (= ``bits``)."""
        return self.bits

    def virtual_offset(self, level: int) -> int:
        """Clockwise offset of virtual level ``level``: ``2**(bits-level)``."""
        if not 1 <= level <= self.bits:
            raise ValueError(f"virtual level must be in [1, {self.bits}], got {level}")
        return 1 << (self.bits - level)

    def virtual_id(self, ident: int, level: int) -> int:
        """Identifier of virtual node ``u_level`` of a peer with id ``ident``.

        ``level == 0`` is the real node itself.
        """
        if level == 0:
            return ident
        return (ident + self.virtual_offset(level)) & (self.size - 1)

    def level_count(self, gap: int) -> int:
        """Number of virtual nodes ``m`` for a clockwise gap of ``gap``.

        ``gap`` is the clockwise distance from a peer to the nearest *known
        real* node (``2**bits`` when no other real node is known — a full
        loop back to itself).  ``m`` is the minimal ``i >= 1`` such that
        ``2**(bits - i) < gap``, i.e. the number of fingers Chord would
        materialize: ``u_m`` lies strictly between ``u`` and its real
        successor (DESIGN.md [D3]).  The result is clamped to
        ``[1, bits]``.
        """
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        if gap > self.size:
            raise ValueError(f"gap {gap} exceeds ring size {self.size}")
        # minimal i with 2**(bits-i) < gap  <=>  2**(bits-i) <= gap-1
        #   <=>  bits - i <= floor(log2(gap-1))  <=>  i >= bits - bl(gap-1) + 1
        m = self.bits - (gap - 1).bit_length() + 1
        return max(1, min(self.bits, m))

    def finger_target(self, ident: int, level: int) -> int:
        """Chord finger target position: ``ident + 2**(bits-level)`` (mod).

        Identical to :meth:`virtual_id`; provided under the Chord name for
        the baseline implementation.
        """
        return self.virtual_id(ident, level)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_unit(self, ident: int) -> float:
        """Map an identifier to the paper's ``[0, 1)`` picture (lossy)."""
        return ident / self.size

    def from_unit(self, x: float) -> int:
        """Map a ``[0, 1)`` real to the nearest identifier below it."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"unit position must be in [0, 1), got {x}")
        return min(self.size - 1, int(x * self.size))
