"""Classic Chord baseline (Stoica et al., SIGCOMM 2001).

A faithful message-based implementation of the original Chord maintenance
protocol on the same synchronous kernel as Re-Chord: ``stabilize`` /
``notify`` / ``fix_fingers`` / successor lists and iterative
``find_successor`` lookups, over a fixed peer population.

Its role in the reproduction is the motivating contrast of the paper's
introduction: classic Chord keeps a correct ring correct, but it is
**not self-stabilizing** — e.g. a "two-ring"
state (two disjoint, internally consistent rings) is a fixed point of its
maintenance protocol and is never repaired, whereas Re-Chord recovers
from *any* weakly connected state (experiment E8).
"""

from repro.chord.node import ChordPeer, FingerTable
from repro.chord.network import ChordNetwork

__all__ = ["ChordPeer", "ChordNetwork", "FingerTable"]
