"""Re-Chord: a self-stabilizing Chord overlay network (SPAA 2011).

Full reproduction of Kniesburges, Koutsopoulos & Scheideler's Re-Chord:
the self-stabilizing protocol itself (:mod:`repro.core`), the synchronous
message-passing substrate (:mod:`repro.netsim`), identifier-space
arithmetic (:mod:`repro.idspace`), the classic Chord baseline
(:mod:`repro.chord`), a DHT layer on
top of the stabilized overlay (:mod:`repro.dht`), an in-band traffic
plane routing live operations through the overlay *while* it stabilizes
(:mod:`repro.traffic`), a declarative adversity-scenario engine
(:mod:`repro.scenarios`), workload generators (:mod:`repro.workloads`)
and the experiment harness regenerating every figure of the paper
(:mod:`repro.experiments`).  ``docs/ARCHITECTURE.md`` is the map.

Quickstart::

    from repro import ReChordNetwork, build_random_network

    net = build_random_network(n=32, seed=1)
    report = net.run_until_stable(track_almost=True)
    assert net.matches_ideal()
"""

from repro.idspace import IdSpace
from repro.core import (
    NodeRef,
    ReChordNetwork,
    RuleConfig,
    compute_ideal,
)
from repro.workloads import build_random_network

__version__ = "1.0.0"

__all__ = [
    "IdSpace",
    "NodeRef",
    "ReChordNetwork",
    "RuleConfig",
    "compute_ideal",
    "build_random_network",
    "__version__",
]
