"""Initial network states.

``build_random_network`` reproduces the paper's Section 5 setup exactly:
``n`` real nodes with uniformly random identifiers, connected as a random
weakly connected graph (random spanning tree + optional extra edges,
random edge orientation), no virtual nodes at time 0.

``build_shaped_network`` starts from degenerate undirected shapes (line,
star, bridged cliques, lollipop) and ``corrupt_network`` injects arbitrary
garbage (pre-existing virtual nodes, wrong ring/connection edges) to
exercise the "any weakly connected initial state" claim of Theorem 1.1.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.network import ReChordNetwork
from repro.core.rules import RuleConfig
from repro.graphs.digraph import EdgeKind
from repro.graphs.generators import (
    gnp_connected_graph,
    line_graph,
    lollipop_graph,
    random_orientation,
    star_graph,
    two_cliques_bridge,
)
from repro.idspace.ring import IdSpace

#: named degenerate shapes accepted by build_shaped_network
SHAPES: Dict[str, Callable[[int], list]] = {
    "line": line_graph,
    "star": star_graph,
    "two_cliques": two_cliques_bridge,
    "lollipop": lollipop_graph,
}


def random_peer_ids(n: int, rng: random.Random, space: IdSpace) -> List[int]:
    """``n`` distinct identifiers drawn uniformly from the id space."""
    if n > space.size:
        raise ValueError(f"cannot draw {n} distinct ids from a space of {space.size}")
    ids: set[int] = set()
    while len(ids) < n:
        ids.add(rng.randrange(space.size))
    return sorted(ids)


def _wire(
    net: ReChordNetwork,
    ids: Sequence[int],
    undirected_edges: Sequence[tuple],
    rng: random.Random,
) -> ReChordNetwork:
    for u in ids:
        net.add_peer(u)
    directed = random_orientation(undirected_edges, rng)
    for a, b in directed:
        net.add_initial_edge(net.ref(ids[a]), net.ref(ids[b]), EdgeKind.UNMARKED)
    return net


def build_random_network(
    n: int,
    seed: int,
    space: Optional[IdSpace] = None,
    config: Optional[RuleConfig] = None,
    extra_edge_prob: float = 0.05,
    engine: str = "columnar",
) -> ReChordNetwork:
    """The paper's Section 5 workload: a random weakly connected start.

    ``engine`` selects the simulation kernel ("columnar" or the
    full-scan spec "full", see :class:`repro.core.network.ReChordNetwork`).
    The differential tests build the same seed with both kernels and
    compare round-for-round.
    """
    if n < 1:
        raise ValueError("need at least one peer")
    space = space if space is not None else IdSpace()
    rng = random.Random(seed)
    ids = random_peer_ids(n, rng, space)
    net = ReChordNetwork(space, config, engine=engine)
    edges = gnp_connected_graph(n, extra_edge_prob, rng) if n > 1 else []
    return _wire(net, ids, edges, rng)


def build_shaped_network(
    shape: str,
    n: int,
    seed: int,
    space: Optional[IdSpace] = None,
    config: Optional[RuleConfig] = None,
    engine: str = "columnar",
) -> ReChordNetwork:
    """A degenerate initial shape (see :data:`SHAPES`)."""
    try:
        maker = SHAPES[shape]
    except KeyError:
        raise ValueError(f"unknown shape {shape!r}; choose from {sorted(SHAPES)}") from None
    space = space if space is not None else IdSpace()
    rng = random.Random(seed)
    ids = random_peer_ids(n, rng, space)
    net = ReChordNetwork(space, config, engine=engine)
    return _wire(net, ids, maker(n) if n > 1 else [], rng)


def build_two_rings_network(
    ids: Sequence[int],
    space: Optional[IdSpace] = None,
    config: Optional[RuleConfig] = None,
    engine: str = "columnar",
) -> ReChordNetwork:
    """The interleaved two-ring split that permanently breaks classic Chord.

    Peers are sorted by identifier and split by parity into two groups;
    each group forms a directed cycle of unmarked edges.  The cycles
    interleave on the identifier circle but share no edge, so classic
    Chord's stabilization can never merge them (Section 1 of the paper).
    Re-Chord only needs the *union* to be weakly connected, which two
    disjoint cycles are not — a single bridge edge is added, the minimum
    adversarial concession the model requires.
    """
    space = space if space is not None else IdSpace()
    net = ReChordNetwork(space, config, engine=engine)
    ordered = sorted(ids)
    for u in ordered:
        net.add_peer(u)
    if len(ordered) < 2:
        return net
    for group in (ordered[0::2], ordered[1::2]):
        for i, u in enumerate(group):
            net.add_initial_edge(
                net.ref(u), net.ref(group[(i + 1) % len(group)]), EdgeKind.UNMARKED
            )
    net.add_initial_edge(net.ref(ordered[0]), net.ref(ordered[1]), EdgeKind.UNMARKED)
    return net


def corrupt_network(
    net: ReChordNetwork,
    seed: int,
    virtual_fraction: float = 0.5,
    garbage_edges: int = 3,
) -> ReChordNetwork:
    """Inject arbitrary corruption into an initial state.

    * pre-creates random virtual levels on a fraction of peers (possibly
      more than the stable ``m*`` — rule 1 must delete the excess and
      re-home their neighborhoods);
    * adds random ring and connection edges between arbitrary nodes
      (the forwarding rules must drain or convert them);
    * adds unmarked edges to *phantom* virtual refs (levels nobody
      simulates — the purge step must re-point them [D11]).

    Corruption never removes edges, so weak connectivity is preserved.
    """
    rng = random.Random(seed)
    ids = net.peer_ids
    if not ids:
        return net
    max_level = net.space.max_level()
    for pid in ids:
        if rng.random() < virtual_fraction:
            for _ in range(rng.randint(1, 3)):
                net.ensure_virtual(pid, rng.randint(1, min(8, max_level)))
    all_refs = [
        node.ref
        for pid in ids
        for node in net.peers[pid].state.nodes.values()
    ]
    for _ in range(garbage_edges * len(ids)):
        src = rng.choice(all_refs)
        kind = rng.choice([EdgeKind.UNMARKED, EdgeKind.RING, EdgeKind.CONNECTION])
        if rng.random() < 0.2:
            # phantom target: a virtual level its owner may not simulate
            owner = rng.choice(ids)
            dst = net.ref(owner, rng.randint(1, min(10, max_level)))
        else:
            dst = rng.choice(all_refs)
        if dst != src:
            net.add_initial_edge(src, dst, kind)
    return net
