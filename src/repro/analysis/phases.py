"""Executable postconditions of the proof's five phases (Section 3.1).

============  ==========  ====================================================
phase         paper ref   postcondition implemented here
============  ==========  ====================================================
connection    Lemma 3.2   all simulated nodes weakly connected by unmarked
                          edges alone
linearize     Lemma 3.6   consecutive nodes (global sorted order) mutually
                          connected by unmarked edges
ring          Lemma 3.9   the global min/max nodes hold each other's ring
                          edges (the sorted list is closed into a ring)
closest_real  Lemma 3.10  every node's rl/rr (and wrap pointers) equal the
                          ideal values
cleanup       Lemma 3.11  no unnecessary edges: the state *is* the ideal
                          topology
============  ==========  ====================================================

A :class:`PhaseTracker` samples all predicates each round; the completion
round of a phase is the first round from which its predicate holds
forever (phases can transiently flicker while earlier phases still
churn, so post-hoc suffix evaluation is required — the proof itself
argues "the resulting properties hold forever *once established*").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ideal import IdealTopology, compute_ideal
from repro.core.network import ReChordNetwork, StabilityWatch
from repro.core.noderef import NodeRef
from repro.graphs.unionfind import UnionFind

#: phase names in proof order
PHASES: Tuple[str, ...] = ("connection", "linearize", "ring", "closest_real", "cleanup")


def _simulated_refs(net: ReChordNetwork) -> List[NodeRef]:
    refs: List[NodeRef] = []
    for pid in sorted(net.peers):
        for level in sorted(net.peers[pid].state.nodes):
            refs.append(net.peers[pid].state.nodes[level].ref)
    return sorted(refs, key=lambda r: r.key)


def phase1_connection(net: ReChordNetwork, ideal: IdealTopology) -> bool:
    """All simulated nodes in one component of the *unmarked* subgraph."""
    refs = _simulated_refs(net)
    if not refs:
        return True
    uf = UnionFind(refs)
    simulated = set(refs)
    for pid in net.peers:
        for node in net.peers[pid].state.nodes.values():
            for t in node.nu:
                if t in simulated:
                    uf.union(node.ref, t)
    return uf.component_count == 1


def phase2_linearize(net: ReChordNetwork, ideal: IdealTopology) -> bool:
    """Consecutive nodes mutually connected by unmarked edges.

    Evaluated over the *current* simulated nodes (sorted order), which
    coincide with the ideal refs only once rule 1 settled.
    """
    refs = _simulated_refs(net)
    nodes = {
        node.ref: node
        for pid in net.peers
        for node in net.peers[pid].state.nodes.values()
    }
    for a, b in zip(refs, refs[1:]):
        if b not in nodes[a].nu or a not in nodes[b].nu:
            return False
    return True


def phase3_ring(net: ReChordNetwork, ideal: IdealTopology) -> bool:
    """The extremes hold each other's ring edges (list closed to a ring)."""
    refs = _simulated_refs(net)
    if len(refs) < 2:
        return True
    nodes = {
        node.ref: node
        for pid in net.peers
        for node in net.peers[pid].state.nodes.values()
    }
    lo, hi = refs[0], refs[-1]
    return hi in nodes[lo].nr and lo in nodes[hi].nr


def phase4_closest_real(net: ReChordNetwork, ideal: IdealTopology) -> bool:
    """All real pointers (linear and wrap) equal the ideal values."""
    for pid in net.peers:
        state = net.peers[pid].state
        if set(state.nodes) != set(range(ideal.m_star.get(pid, 0) + 1)):
            return False
        for node in state.nodes.values():
            ref = node.ref
            if node.rl != ideal.rl.get(ref) or node.rr != ideal.rr.get(ref):
                return False
            if node.wrap_rl != ideal.wrap_rl.get(ref):
                return False
            if node.wrap_rr != ideal.wrap_rr.get(ref):
                return False
    return True


def phase5_cleanup(net: ReChordNetwork, ideal: IdealTopology) -> bool:
    """No unnecessary edges: the state equals the ideal topology."""
    return net.matches_ideal(ideal)


def phase_predicates() -> Dict[str, Callable[[ReChordNetwork, IdealTopology], bool]]:
    """Name -> predicate map, in proof order."""
    return {
        "connection": phase1_connection,
        "linearize": phase2_linearize,
        "ring": phase3_ring,
        "closest_real": phase4_closest_real,
        "cleanup": phase5_cleanup,
    }


@dataclass(frozen=True)
class PhaseReport:
    """Completion rounds per phase (None = never completed)."""

    completion: Dict[str, Optional[int]]
    rounds_executed: int

    def as_row(self) -> Dict[str, float]:
        """Flat metric row (missing phases reported as the run length)."""
        return {
            name: float(self.completion[name]) if self.completion[name] is not None else float(self.rounds_executed)
            for name in PHASES
        }


class PhaseTracker:
    """Samples all phase predicates at every round boundary."""

    def __init__(self, net: ReChordNetwork) -> None:
        self.net = net
        self.ideal = compute_ideal(net.space, net.peer_ids)
        self._series: Dict[str, List[bool]] = {name: [] for name in PHASES}
        self._predicates = phase_predicates()
        self.sample()  # round-0 state

    def sample(self) -> None:
        """Record each predicate for the current boundary."""
        for name, predicate in self._predicates.items():
            self._series[name].append(predicate(self.net, self.ideal))

    def run_until_stable(self, max_rounds: int = 10_000) -> PhaseReport:
        """Drive the network to stability, sampling every round."""
        for _ in StabilityWatch(self.net).run(max_rounds):
            self.sample()
        return self.report()

    def report(self) -> PhaseReport:
        """Completion rounds: first index from which a phase holds on."""
        completion: Dict[str, Optional[int]] = {}
        for name in PHASES:
            series = self._series[name]
            done: Optional[int] = None
            for idx in range(len(series) - 1, -1, -1):
                if not series[idx]:
                    break
                done = idx
            completion[name] = done
        rounds = len(self._series[PHASES[0]]) - 1
        return PhaseReport(completion=completion, rounds_executed=rounds)
