"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a *value*: a seeded, self-contained
description of one adversity campaign — the initial topology, a timeline
of fault/churn/corruption events, the concurrent traffic workload, and
the sampling/recovery policy.  Specs are plain dataclasses, round-trip
losslessly through JSON (:meth:`ScenarioSpec.to_json` /
:meth:`ScenarioSpec.from_json`), and are executed by
:func:`repro.scenarios.executor.run_scenario` on either simulation
kernel.  Everything downstream of a ``(spec, kernel)`` pair is
deterministic; the determinism and engine-equivalence suites rely on
that.

Example::

    >>> from repro.scenarios import ScenarioSpec, EventSpec, TrafficSpec
    >>> spec = ScenarioSpec(
    ...     name="two-crashes", n=16, seed=7, start="ideal", rounds=12,
    ...     events=(EventSpec(at=4, kind="crash_wave", params={"count": 2}),),
    ...     traffic=TrafficSpec(rate=1.0),
    ... )
    >>> ScenarioSpec.from_json(spec.to_json()) == spec
    True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.scenarios.events import EVENT_KINDS, check_event
from repro.traffic.generator import check_workload
from repro.traffic.messages import OP_GET, OP_LOOKUP, OP_PUT
from repro.traffic.plane import check_budget, check_resilience
from repro.traffic.slo import check_quantiles


def _section(value: Any, what: str, allowed: Optional[Tuple[str, ...]] = None) -> dict:
    """``value`` as the JSON object ``what`` names, copied; with
    ``allowed``, an unknown key is refused naming the allowed ones."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    unknown = sorted(map(str, set(value) - set(allowed or value)))
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {unknown}; allowed: {sorted(allowed)}")
    return dict(value)


def _field_names(cls) -> Tuple[str, ...]:
    """The dataclass's field names: the keys its JSON section may hold."""
    return tuple(f.name for f in fields(cls))


#: initial-topology builders accepted by ScenarioSpec.start
START_KINDS = (
    "ideal",        # the unique stable topology (build_ideal_network)
    "random",       # Section 5's random weakly connected start
    "line",         # degenerate shapes (build_shaped_network)
    "star",
    "two_cliques",
    "lollipop",
    "two_rings",    # the interleaved split that breaks classic Chord
)


@dataclass(frozen=True)
class EventSpec:
    """One timed adversity event.

    ``at`` is the round offset from campaign start at which the event
    fires (events fire at a round *boundary*, before that round
    executes); ``kind`` names an entry of
    :data:`repro.scenarios.events.EVENT_KINDS`; ``params`` are the
    kind-specific knobs, checked at construction against the handler's
    signature and, for the wave kinds, their ranges and choices
    (:func:`repro.scenarios.events.check_event`) — a bad event fails
    when the spec is parsed, not when it fires.
    """

    at: int
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.at, int) or isinstance(self.at, bool):
            raise ValueError(
                f"at must be an integer, got {self.at!r} ({type(self.at).__name__})"
            )
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; choose from {sorted(EVENT_KINDS)}"
            )
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object, got {self.params!r}")
        check_event(self.kind, self.params)

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {"at": self.at, "kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_dict(data: dict) -> "EventSpec":
        """Inverse of :meth:`to_dict`."""
        data = _section(data, "event", _field_names(EventSpec))
        return EventSpec(
            at=data["at"],
            kind=str(data["kind"]),
            params=_section(data.get("params", {}), "params"),
        )


@dataclass(frozen=True)
class TrafficSpec:
    """The concurrent workload riding the campaign (see
    :class:`repro.traffic.generator.WorkloadGenerator` for the knobs).

    ``op_mix`` weights are normalized by the generator; a mix containing
    ``put``/``get`` makes the executor attach a
    :class:`repro.dht.storage.KeyValueStore` automatically.  Every knob
    is checked against the generator's and the plane's bounds at
    construction, so a bad spec fails when it is parsed.
    """

    rate: float = 2.0
    op_mix: Tuple[Tuple[str, float], ...] = ((OP_LOOKUP, 1.0),)
    key_universe: int = 64
    popularity: str = "uniform"
    zipf_s: float = 1.1
    deadline: int = 32
    ttl: Optional[int] = None
    max_outstanding: Optional[int] = None
    #: opt-in extra latency quantiles in (0, 1) (e.g. ``(0.5, 0.99)``),
    #: each the exact nearest rank, under separate ``latency_p*_sketch``
    #: summary keys, so default reports (and their baselines) are unchanged
    sketch_quantiles: Optional[Tuple[float, ...]] = None
    #: resilient request plane (see TrafficPlane): attempts budget per
    #: op (1 = retries off), base backoff in rounds, hedge delay in
    #: rounds (None = hedging off), and redundant-successor fan
    #: (1 = single-choice forwarding).  All defaults leave the plane
    #: bit-for-bit identical to the pre-resilience behavior.
    max_attempts: int = 1
    retry_backoff: int = 4
    hedge_after: Optional[int] = None
    route_redundancy: int = 1

    def __post_init__(self) -> None:
        check_workload(
            self.rate, self.op_mix, self.key_universe, self.popularity, self.zipf_s
        )
        check_budget("deadline", self.deadline)
        check_budget("ttl", self.ttl)
        check_resilience(
            self.max_attempts, self.retry_backoff, self.hedge_after, self.route_redundancy
        )
        check_quantiles(self.sketch_quantiles or ())

    def needs_store(self) -> bool:
        """Whether the mix issues KV operations."""
        return any(op in (OP_GET, OP_PUT) and w > 0 for op, w in self.op_mix)

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "rate": self.rate,
            "op_mix": [[op, w] for op, w in self.op_mix],
            "key_universe": self.key_universe,
            "popularity": self.popularity,
            "zipf_s": self.zipf_s,
            "deadline": self.deadline,
            "ttl": self.ttl,
            "max_outstanding": self.max_outstanding,
            "sketch_quantiles": (
                list(self.sketch_quantiles) if self.sketch_quantiles else None
            ),
            "max_attempts": self.max_attempts,
            "retry_backoff": self.retry_backoff,
            "hedge_after": self.hedge_after,
            "route_redundancy": self.route_redundancy,
        }

    @staticmethod
    def from_dict(data: dict) -> "TrafficSpec":
        """Inverse of :meth:`to_dict`."""
        kw = _section(data, "traffic", _field_names(TrafficSpec))
        mix = kw.get("op_mix", [["lookup", 1.0]])
        if not isinstance(mix, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in mix
        ):
            raise ValueError(f"traffic: op_mix must be a list of [op, weight] pairs, got {mix!r}")
        kw["op_mix"] = tuple((str(op), float(w)) for op, w in mix)
        quantiles = kw.get("sketch_quantiles")
        if quantiles is not None:
            if not isinstance(quantiles, list):
                raise ValueError(f"traffic: sketch_quantiles must be a list, got {quantiles!r}")
            kw["sketch_quantiles"] = tuple(float(q) for q in quantiles)
        return TrafficSpec(**kw)


#: the integer fields of ScenarioSpec and their lower bounds (None: any
#: int — the seed only keys SHA-256 derivations); a bool or a numeric
#: string from a JSON spec is rejected, not coerced
_INT_FIELDS = (
    ("n", 1),
    ("seed", None),
    ("rounds", 0),
    ("sample_every", 1),
    ("max_recovery_rounds", 1),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seeded adversity campaign.

    Execution phases (see :func:`repro.scenarios.executor.run_scenario`):

    1. **start** — build the initial topology named by ``start`` (with
       ``start_params``: ``"corrupt"`` may be ``true`` or a dict of
       :func:`repro.workloads.initial.corrupt_network` intensity knobs,
       e.g. ``{"corrupt": {"virtual_fraction": 1.0}}``) and optionally
       pre-stabilize it (``start_params["stabilize"]``);
    2. **adversity window** — drive ``rounds`` traffic-carrying rounds,
       firing every :class:`EventSpec` at its offset;
    3. **recovery** — pause the workload and run until the global
       configuration repeats *and* all outstanding operations complete,
       bounded by ``max_recovery_rounds``.

    ``sample_every`` sets the cadence of the repair-curve samples
    (local-checker violations, pending messages, outstanding ops).

    ``latency`` / ``daemon`` install a delivery model / activation
    daemon (spec dicts, see :mod:`repro.netsim.timemodel`) for the
    whole campaign — the time model the network starts the adversity
    window under; mid-campaign changes go through the ``set_latency``,
    ``jitter_storm``, ``slow_links``, ``latency_partition`` and
    ``set_daemon`` events instead.  ``None`` keeps the paper's model
    (unit delivery, full activation).
    """

    name: str
    n: int
    seed: int
    rounds: int
    start: str = "ideal"
    start_params: Dict[str, Any] = field(default_factory=dict)
    events: Tuple[EventSpec, ...] = ()
    traffic: Optional[TrafficSpec] = TrafficSpec()
    sample_every: int = 2
    max_recovery_rounds: int = 5000
    description: str = ""
    latency: Optional[Dict[str, Any]] = None
    daemon: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        for name in ("name", "description"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(
                    f"{name} must be a string, got {value!r} ({type(value).__name__})"
                )
        if self.start not in START_KINDS:
            raise ValueError(f"unknown start {self.start!r}; choose from {START_KINDS}")
        # fail loudly at construction, not mid-campaign
        if self.latency is not None:
            from repro.netsim.timemodel import make_delivery_model

            make_delivery_model(dict(self.latency))
        if self.daemon is not None:
            from repro.netsim.timemodel import make_daemon

            make_daemon(dict(self.daemon))
        for name, low in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an integer, got {value!r} ({type(value).__name__})"
                )
            if low is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for event in self.events:
            # events fire at the boundary BEFORE their round executes, so
            # valid offsets are 0..rounds-1: an event at `rounds` would
            # silently never fire
            if event.at < 0 or event.at >= self.rounds:
                raise ValueError(
                    f"event {event.kind!r} at round {event.at} lies outside "
                    f"the adversity window (valid offsets: 0..{self.rounds - 1})"
                )

    def with_overrides(self, **kw: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (used by the CLI)."""
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON-serializable form (lossless; see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "n": self.n,
            "seed": self.seed,
            "rounds": self.rounds,
            "start": self.start,
            "start_params": dict(self.start_params),
            "events": [event.to_dict() for event in self.events],
            "traffic": None if self.traffic is None else self.traffic.to_dict(),
            "sample_every": self.sample_every,
            "max_recovery_rounds": self.max_recovery_rounds,
            "description": self.description,
            "latency": None if self.latency is None else dict(self.latency),
            "daemon": None if self.daemon is None else dict(self.daemon),
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`.  Each section's shape is checked
        here, so a malformed document is refused naming its field."""
        kw = _section(data, "scenario", _field_names(ScenarioSpec))
        events = kw.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"events must be a list, got {events!r}")
        parsed = []
        for index, event in enumerate(events):
            try:
                parsed.append(EventSpec.from_dict(event))
            except (KeyError, ValueError) as exc:
                what = exc.args[0] if isinstance(exc, ValueError) else f"missing field {exc}"
                raise ValueError(f"event {index}: {what}") from None
        kw["events"] = tuple(parsed)
        traffic = kw.get("traffic")
        kw["traffic"] = None if traffic is None else TrafficSpec.from_dict(traffic)
        kw["start_params"] = _section(kw.get("start_params", {}), "start_params")
        for name in ("latency", "daemon"):
            if kw.get(name) is not None:
                kw[name] = _section(kw[name], name)
        return ScenarioSpec(**kw)

    def to_json(self, **json_kw: Any) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, **json_kw)

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        """Parse a spec from JSON (inverse of :meth:`to_json`)."""
        return ScenarioSpec.from_dict(json.loads(text))
