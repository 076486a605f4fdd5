"""Re-Chord: the paper's primary contribution.

* :mod:`repro.core.noderef` — identities of real and virtual nodes;
* :mod:`repro.core.state` — per-peer protocol state (sibling set and the
  typed neighborhoods ``Nu``/``Nr``/``Nc`` plus real-pointer slots);
* :mod:`repro.core.events` — the delayed-assignment messages;
* :mod:`repro.core.rules` — rule configuration and firing counters;
* :mod:`repro.core.protocol` — the six self-stabilization rules (the
  per-peer actor);
* :mod:`repro.core.network` — the top-level facade: build a network from
  any initial topology, run rounds, join/leave/crash, detect stability;
* :mod:`repro.core.ideal` — the unique target topology for a live peer
  set, used as the correctness oracle;
* :mod:`repro.core.checker` — the local-checkability predicate;
* :mod:`repro.core.metrics` — edge/node/message accounting for the
  experiments.
"""

from repro.core.noderef import NodeRef
from repro.core.rules import RuleConfig, RuleCounters
from repro.core.network import ReChordNetwork
from repro.core.ideal import IdealTopology, compute_ideal
from repro.core.checker import local_check_peer
from repro.core.metrics import NetworkMetrics

__all__ = [
    "NodeRef",
    "RuleConfig",
    "RuleCounters",
    "ReChordNetwork",
    "IdealTopology",
    "compute_ideal",
    "local_check_peer",
    "NetworkMetrics",
]
