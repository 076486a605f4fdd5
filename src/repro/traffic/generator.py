"""Closed-loop workload generation for the traffic plane.

Arrivals are generated per round from a fractional-rate accumulator
(rate 0.5 injects one op every other round; rate 8 injects eight per
round), optionally throttled to a maximum number of outstanding
operations — the closed loop: completions free slots, so the offered
load adapts to what the (possibly churning) overlay can absorb.  Key
popularity is uniform or Zipf over a fixed named-key universe, origins
are uniform over *live* peers, and every draw comes from one seeded
stream, so a schedule is exactly reproducible — the engine-equivalence
tests drive two kernels with twin generators and compare fingerprints.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect_left
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple

from repro.idspace.keys import key_id
from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT
from repro.traffic.plane import TrafficPlane

#: popularity shapes
POP_UNIFORM = "uniform"
POP_ZIPF = "zipf"


def check_number(name: str, value: Any, kind: type = numbers.Real) -> None:
    """``value`` is a finite number of ``kind`` (a bool is none here)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r} ({type(value).__name__})")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_rate(rate: float) -> None:
    """An arrival rate (ops per round) is a finite number >= 0."""
    check_number("rate", rate)
    if rate < 0:
        raise ValueError("rate must be non-negative")


def check_workload(
    rate: float, op_mix: Sequence[Tuple[str, float]], key_universe: int,
    popularity: str, zipf_s: float,
) -> None:
    """The arrival process's bounds (see :class:`WorkloadGenerator`):
    each bad value is a ``ValueError`` naming its field, raised before
    the first round."""
    check_rate(rate)
    check_number("key_universe", key_universe, numbers.Integral)
    if key_universe < 1:
        raise ValueError("need at least one key")
    for op, weight in op_mix:
        if op not in (OP_LOOKUP, OP_GET, OP_PUT):
            raise ValueError(f"unknown op {op!r} in mix")
        check_number(f"op weight of {op!r}", weight)
        if weight < 0:
            raise ValueError("op weights must be non-negative")
    check_number("zipf_s", zipf_s)
    if sum(w for _, w in op_mix) <= 0:
        raise ValueError("op mix weights sum to zero")
    if popularity not in (POP_UNIFORM, POP_ZIPF):
        raise ValueError(f"unknown popularity {popularity!r}")


class WorkloadGenerator:
    """Seeded per-round arrival process bound to one plane.

    ``op_mix`` weights the operation kinds, e.g.
    ``((OP_LOOKUP, 0.6), (OP_GET, 0.2), (OP_PUT, 0.2))``; puts carry
    deterministic serial values so runs are comparable.  Construction
    registers the generator on the plane (``plane.run_round`` calls
    :meth:`inject` each round); set :attr:`active` to False to pause.

    Rate 2 injects two seeded arrivals per traffic-carrying round:

    >>> from repro.experiments.scaling import build_ideal_network
    >>> from repro.traffic.plane import TrafficPlane
    >>> from repro.traffic.generator import WorkloadGenerator
    >>> plane = TrafficPlane(build_ideal_network(16, 1))
    >>> gen = WorkloadGenerator(plane, rate=2.0, seed=7)
    >>> plane.run(4)
    >>> gen.issued
    8
    """

    def __init__(
        self,
        plane: TrafficPlane,
        rate: float = 2.0,
        op_mix: Sequence[Tuple[str, float]] = ((OP_LOOKUP, 1.0),),
        key_universe: int = 64,
        popularity: str = POP_UNIFORM,
        zipf_s: float = 1.1,
        deadline: Optional[int] = None,
        ttl: Optional[int] = None,
        max_outstanding: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        check_workload(rate, op_mix, key_universe, popularity, zipf_s)
        self.plane = plane
        plane.generator = self
        self.rate = float(rate)
        self.deadline = deadline
        self.ttl = ttl
        self.max_outstanding = max_outstanding
        self.rng = random.Random(seed)
        self.keys: Tuple[str, ...] = tuple(f"key-{i}" for i in range(key_universe))
        self.kids: Tuple[int, ...] = tuple(key_id(k, plane.net.space) for k in self.keys)
        # cumulative popularity and op-mix edges, the last one infinite so
        # that the first edge >= a draw always exists (the end clamp of a
        # per-arrival scan); a None popularity means uniform
        self._cum: Optional[Tuple[float, ...]] = None
        self._cum_total = 0.0
        if popularity == POP_ZIPF:
            acc, cum = 0.0, []
            for rank in range(1, key_universe + 1):
                acc += 1.0 / rank**zipf_s
                cum.append(acc)
            self._cum_total = acc
            self._cum = (*cum[:-1], math.inf)
        total = sum(w for _, w in op_mix)
        acc, edges = 0.0, []
        for _op, weight in op_mix:
            acc += weight / total
            edges.append(acc)
        self._mix_edges: Tuple[float, ...] = (*edges[:-1], math.inf)
        self._mix_ops: Tuple[str, ...] = tuple(op for op, _ in op_mix)
        self._credit = 0.0
        self._value_serial = 0
        #: total ops handed to the plane
        self.issued = 0
        #: pause switch (drain phases leave the generator attached)
        self.active = True

    # ------------------------------------------------------------------
    # draws
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # the per-round arrival process
    # ------------------------------------------------------------------
    def inject(self) -> int:
        """Issue this round's arrivals; returns how many were injected.

        With ``max_outstanding`` set, arrivals beyond the free slots are
        *dropped*, not queued — the closed loop throttles offered load
        instead of building a retroactive burst.

        The round's arrivals are drawn as one batch and handed to
        :meth:`TrafficPlane.issue_batch` in a single registration/post
        sweep; the seeded draw stream (and with it every recorded
        schedule) is identical to the historical one-op-at-a-time loop
        — see :meth:`_draw_batch`.
        """
        if not self.active or self.rate == 0:
            return 0
        ids = self.plane.live_ids()
        if not ids:
            return 0
        self._credit += self.rate
        budget = int(self._credit)
        self._credit -= budget
        if self.max_outstanding is not None:
            budget = min(
                budget,
                max(0, self.max_outstanding - self.plane.collector.outstanding_count()),
            )
        if budget <= 0:
            return budget
        self.plane.issue_batch(
            self._draw_batch(budget, ids), ttl=self.ttl, deadline=self.deadline
        )
        self.issued += budget
        return budget

    def _draw_batch(
        self, budget: int, ids: Sequence[int]
    ) -> List[Tuple[str, int, int, Any]]:
        """Draw ``budget`` arrivals as ``(op, kid, origin, value)`` rows.

        Stream identity is the contract here: the raw draws replay the
        historical per-arrival order exactly — op uniform, key draw,
        origin index, one triple per arrival from the same seeded
        ``random.Random`` stream (``choice(ids)`` and
        ``randrange(len(ids))`` consume identical ``_randbelow`` calls)
        — so every seeded schedule, and every baseline recorded from
        one, is unchanged.  Only the *mapping* of raw uniforms onto the
        cumulative op-mix/Zipf edges is batched: one ``bisect_left``
        sweep per column, the first edge >= x, and the infinite last
        edge reproduces the historical clamp to the last op or key.
        Keys come from the pre-hashed :attr:`kids` table, so batch
        injection never re-digests a key name.
        """
        rng = self.rng
        n_keys = len(self.keys)
        n_ids = len(ids)
        uniform = self._cum is None
        op_draws: List[float] = []
        key_draws: list = []
        origin_idx: List[int] = []
        if uniform:
            for _ in range(budget):
                op_draws.append(rng.random())
                key_draws.append(rng.randrange(n_keys))
                origin_idx.append(rng.randrange(n_ids))
        else:
            cum_total = self._cum_total
            for _ in range(budget):
                op_draws.append(rng.random())
                key_draws.append(rng.random() * cum_total)
                origin_idx.append(rng.randrange(n_ids))
        op_idx = map(partial(bisect_left, self._mix_edges), op_draws)
        key_idx = key_draws if uniform else map(partial(bisect_left, self._cum), key_draws)
        mix_ops = self._mix_ops
        kids = self.kids
        rows: List[Tuple[str, int, int, Any]] = []
        for oi, ki, gi in zip(op_idx, key_idx, origin_idx):
            op = mix_ops[oi]
            value = None
            if op == OP_PUT:
                value = f"v{self._value_serial}"
                self._value_serial += 1
            rows.append((op, kids[ki], ids[gi], value))
        return rows
