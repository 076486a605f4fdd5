"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import settings

from repro.core.network import ReChordNetwork
from repro.core.protocol import REF_OK
from repro.core.rules import RuleConfig
from repro.core.state import PeerState
from repro.idspace.ring import IdSpace
from repro.netsim.columnar import ColumnarScheduler

# Keep property-based tests fast and deterministic in CI.
settings.register_profile("suite", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("suite")

#: the default kernel with its settled-unit shortcut off: every round,
#: unit ones included, takes the delivery point that latency, partial
#: rounds and model switches need (patches scheduled for their arrival
#: round, the wake wheel, the flux horizon and its landing entries).  As
#: shipped, a unit run takes it only for the rounds after such an event,
#: so the differential suites run this leg beside it to keep that path
#: compared with the ``engine="full"`` spec over whole runs
GENERAL = "general"
#: the two legs of the default kernel
KERNELS = ("columnar", GENERAL)
#: the spec first, then the two legs of the default kernel
ENGINES = ("full",) + KERNELS


def _never_settled(self) -> bool:
    return False


def general_every_round(sched: ColumnarScheduler) -> ColumnarScheduler:
    """Send every round of ``sched`` through its general delivery point;
    returns ``sched``."""
    sched._unit_settled = _never_settled.__get__(sched)
    return sched


def build(builder, engine: str, *args, **kwargs) -> ReChordNetwork:
    """``builder(*args, engine=engine, **kwargs)``; ``GENERAL`` builds
    the default kernel and sends every round through its general
    delivery point."""
    if engine != GENERAL:
        return builder(*args, engine=engine, **kwargs)
    net = builder(*args, engine="columnar", **kwargs)
    general_every_round(net.scheduler)
    return net


@contextmanager
def leg(engine: str):
    """Yield the ``engine=`` value that builds ``engine``; inside the
    block every columnar kernel takes its general delivery point in
    every round when ``engine`` is ``GENERAL`` (for callers that build
    their own network, e.g. ``run_scenario``)."""
    if engine != GENERAL:
        yield engine
        return
    saved = ColumnarScheduler._unit_settled
    ColumnarScheduler._unit_settled = _never_settled
    try:
        yield "columnar"
    finally:
        ColumnarScheduler._unit_settled = saved


@pytest.fixture
def space16() -> IdSpace:
    """A tiny 16-bit id space for hand-computed cases."""
    return IdSpace(16)


@pytest.fixture
def space8() -> IdSpace:
    """An 8-bit id space (256 positions) for exhaustive checks."""
    return IdSpace(8)


class SendRecorder:
    """Stand-in for :class:`RoundContext` that records sends.

    Used by the per-rule unit tests to execute a single peer's rules in
    isolation and inspect the delayed assignments it would emit.
    """

    def __init__(self, round_no: int = 0, alive: Any = None) -> None:
        self.round_no = round_no
        self.sent: List[Tuple[int, Any]] = []
        self._alive = alive if alive is not None else (lambda key: True)

    def send(self, target: int, payload: Any) -> None:
        self.sent.append((target, payload))

    def actor_exists(self, key: int) -> bool:
        return self._alive(key)

    def payloads_to(self, target: int) -> List[Any]:
        """All payloads addressed to one peer."""
        return [p for t, p in self.sent if t == target]


@pytest.fixture
def recorder() -> SendRecorder:
    """A fresh send recorder."""
    return SendRecorder()


def make_peer(space: IdSpace, peer_id: int, config: RuleConfig | None = None):
    """A standalone ReChordPeer whose liveness oracle says everything is OK."""
    from repro.core.protocol import ReChordPeer

    state = PeerState(peer_id, space)
    return ReChordPeer(state, config or RuleConfig(), lambda ref: REF_OK)


def stabilized(n: int, seed: int, **kw) -> ReChordNetwork:
    """A stabilized random network (asserts it reaches the ideal state)."""
    from repro.workloads.initial import build_random_network

    net = build_random_network(n=n, seed=seed, **kw)
    net.run_until_stable(max_rounds=5000)
    assert net.matches_ideal(), net.ideal_mismatches(limit=5)
    return net
