"""Churn schedules: sequences of join / leave / crash events.

Section 4 of the paper analyzes isolated joins (Theorem 4.1, O(log² n)
rounds) and leaves/failures (Theorem 4.2, O(log n) rounds).  A
:class:`ChurnSchedule` scripts such events — possibly in bursts — against
a live network; the experiments replay schedules and measure the rounds
back to stability after each event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Literal, Optional, Sequence

from repro.core.network import ReChordNetwork
from repro.workloads.initial import random_peer_ids

EventKind = Literal["join", "leave", "crash"]


@dataclass(frozen=True)
class ChurnEvent:
    """A single membership event.

    ``peer_id`` is the joining/leaving peer; ``gateway_id`` is only used
    by joins (the one existing peer the newcomer knows).
    """

    kind: EventKind
    peer_id: int
    gateway_id: Optional[int] = None


def apply_event(net: ReChordNetwork, event: ChurnEvent) -> None:
    """Apply one event to a live network."""
    if event.kind == "join":
        if event.gateway_id is None:
            raise ValueError("join events need a gateway")
        net.join(event.peer_id, event.gateway_id)
    elif event.kind == "leave":
        net.leave(event.peer_id)
    elif event.kind == "crash":
        net.crash(event.peer_id)
    else:  # pragma: no cover - Literal guards this
        raise ValueError(f"unknown event kind {event.kind!r}")


class ChurnSchedule:
    """A reproducible random sequence of churn events."""

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self.events: List[ChurnEvent] = list(events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    @staticmethod
    def random(
        net: ReChordNetwork,
        events: int,
        seed: int,
        join_prob: float = 0.4,
        crash_prob: float = 0.3,
    ) -> "ChurnSchedule":
        """Script ``events`` random events against the current peer set.

        Joins draw fresh random ids; leaves/crashes pick uniformly among
        peers that will still be alive at that point.  The schedule never
        empties the network.
        """
        rng = random.Random(seed)
        alive = set(net.peer_ids)
        out: List[ChurnEvent] = []
        for _ in range(events):
            roll = rng.random()
            if roll < join_prob or len(alive) <= 2:
                new_id = random_peer_ids(1, rng, net.space)[0]
                while new_id in alive:
                    new_id = random_peer_ids(1, rng, net.space)[0]
                gateway = rng.choice(sorted(alive))
                out.append(ChurnEvent("join", new_id, gateway))
                alive.add(new_id)
            else:
                victim = rng.choice(sorted(alive))
                kind: EventKind = "crash" if roll < join_prob + crash_prob else "leave"
                out.append(ChurnEvent(kind, victim))
                alive.discard(victim)
        return ChurnSchedule(out)
