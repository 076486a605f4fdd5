"""Synchronous message-passing simulation kernel.

Implements the paper's execution model (Section 2.1): time proceeds in
synchronous rounds; in round ``i`` every actor inspects only its own state
plus the messages delivered at the end of round ``i-1``, and all messages
generated in round ``i`` are delivered simultaneously at the end of round
``i``.  The kernel is protocol-agnostic: Re-Chord, the classic-Chord
baseline and the linearization baseline all run on it.
"""

from repro.netsim.messages import Envelope
from repro.netsim.scheduler import Actor, RoundContext, SynchronousScheduler
from repro.netsim.timemodel import (
    ActivationDaemon,
    DeliveryModel,
    TimeModel,
    make_daemon,
    make_delivery_model,
)
from repro.netsim.rng import SeedSequence

__all__ = [
    "ActivationDaemon",
    "Actor",
    "DeliveryModel",
    "Envelope",
    "RoundContext",
    "SeedSequence",
    "SynchronousScheduler",
    "TimeModel",
    "make_daemon",
    "make_delivery_model",
]
