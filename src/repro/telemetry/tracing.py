"""Causal op tracing: the hop path of a sampled lookup.

A :class:`TraceContext` rides on ``LookupRequest``/``LookupReply``
payloads of sampled operations and accumulates one ``(peer, round,
rule)`` record per forwarding decision.  The trace field is excluded
from payload equality, hashing and ``canonical()`` so that tracing a
run changes **nothing** observable: envelope interning, outbox diffs,
pending multisets and fingerprints are identical with tracing on or
off.

The ``rule`` label names the forwarding decision the traffic plane
took at that hop:

* ``issue`` — the operation entered the network at its origin;
* ``greedy`` — forwarded to the closest predecessor of the key in the
  peer's live view (the paper's greedy routing step);
* ``fallback`` — no view member preceded the key; forwarded to the
  clockwise-closest view member instead;
* a terminal status (``ok``/``notfound``/``dead_end``/``loop``/
  ``ttl``) — the hop where the operation completed, as classified by
  the traffic plane.

>>> t = TraceContext(op_id=4)
>>> t = t.extended(peer=10, round_no=3, rule="issue")
>>> t = t.extended(peer=22, round_no=4, rule="greedy")
>>> t.hops
((10, 3, 'issue'), (22, 4, 'greedy'))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class TraceContext:
    """The accumulated (peer, round, rule) path of one sampled op."""

    op_id: int
    hops: Tuple[Tuple[int, int, str], ...] = ()

    def extended(self, peer: int, round_no: int, rule: str) -> "TraceContext":
        """A new context with one more hop record appended."""
        return replace(self, hops=self.hops + ((peer, round_no, rule),))
