"""The pluggable time model: delivery latency + activation daemons.

The synchronous kernel's original notion of time is implicit: every
message sent in round ``i`` is consumed in round ``i + 1`` and every
actor steps every round.  This module makes both halves explicit and
swappable:

* a :class:`DeliveryModel` assigns each send a **delivery delay in
  rounds** (``unit`` reproduces the paper's model bit-for-bit; other
  models give constant-``k`` slow links, a seeded fraction of slow
  links, per-link log-normal latency, region/WAN matrices, adversarial
  reorder-within-bound, or a slow cut across an explicit peer set);
* an :class:`ActivationDaemon` decides which actors step each round
  (``full`` is the paper's model; ``partial`` flips seeded per-actor
  coins, ``round_robin`` rotates fair stripes, ``unfair`` is the
  adversary that activates every actor exactly once per window, as
  rarely as the fairness bound allows).

Exactness contract
------------------

Both halves must be **deterministic pure functions** so the two
simulation kernels (dirty-set and full-scan) stay round-for-round
equivalent and seeded runs reproduce across processes and platforms:

* ``DeliveryModel.delay(env)`` may depend only on the model's own
  parameters/seed and the envelope *content* (sender, target, canonical
  payload) — never on wall clock, call order, or mutable state.  A
  replayed steady emission is content-identical to the executed one, so
  it draws the same delay; that is what keeps the steady-emission
  replay and the pending-configuration fingerprints exact under
  latency.  Seeded draws go through :func:`stable_u64` (BLAKE2) or a
  ``random.Random`` seeded from it — never through builtin ``hash``,
  which is process-randomized.
* A model must not change its answers while it is installed — nor
  after, if the same object may be installed again: the scheduler's
  sub-flows cache their delays per model object
  (:meth:`repro.netsim.messages.SubFlow.delay_buckets`), so a replayed
  steady emission is not asked again.
* A model whose delay depends only on the link ``(sender, target)``
  says so with the class attribute ``per_link = True`` (every model here
  but ``reorder``): the kernel then asks it once per sub-flow — one
  sender's envelopes to one target — instead of once per envelope, and
  treats a sub-flow as one delay class.  A model that keys any delay on
  the payload must leave ``per_link`` false (the default).  It is a
  fact about the class, not a parameter: it is in neither
  :meth:`DeliveryModel.params` nor :meth:`DeliveryModel.to_dict`.
* A message to yourself never crosses the network: ``delay`` is 1 for
  ``sender == target`` under every model (traffic injection posts into
  the origin's own inbox and must not be wire-delayed).
* ``ActivationDaemon.select(round_no, keys)`` may depend only on the
  daemon's parameters/seed, the round number and the sorted key list.

Models and daemons are values: ``to_dict()`` round-trips through JSON
and :func:`make_delivery_model` / :func:`make_daemon` rebuild them,
which is how :class:`repro.scenarios.spec.ScenarioSpec` and the CLI
(``--latency-model`` / ``--daemon``) carry them.

>>> from repro.netsim.timemodel import make_delivery_model, make_daemon
>>> make_delivery_model({"kind": "constant", "delay": 3}).delay_bound()
3
>>> make_delivery_model("unit").is_unit
True
>>> sorted(make_daemon({"kind": "round_robin", "groups": 2}).select(0, [1, 2, 3]))
[1, 3]
"""

from __future__ import annotations

import random
from hashlib import blake2b
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Type

from repro.netsim.messages import Envelope


def stable_u64(*parts: object) -> int:
    """A process-stable 64-bit hash of the ``repr`` of ``parts``.

    Builtin ``hash`` is randomized per process (strings) and therefore
    unusable for seeded delay draws that must reproduce across runs,
    machines and CI; BLAKE2 of the canonical reprs is.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8", "backslashreplace"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _int_param(name: str, value: Any, low: Optional[int] = None) -> int:
    """``value`` as the integer parameter ``name``: a bool or a float is
    rejected, naming the parameter, never truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r} ({type(value).__name__})")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _payload_identity(env: Envelope) -> object:
    """The canonical payload identity used for per-envelope delay keys."""
    payload = env.payload
    return payload.canonical() if hasattr(payload, "canonical") else payload


# ----------------------------------------------------------------------
# delivery models
# ----------------------------------------------------------------------
class DeliveryModel:
    """Assigns every send a delivery delay in rounds (``>= 1``).

    ``delay(env) == d`` means an envelope sent during round ``r`` is
    consumed by its target during round ``r + d`` (``d == 1`` is the
    paper's synchronous delivery).  Subclasses implement
    :meth:`_link_delay`; the base class enforces the self-link and
    lower-bound contracts.
    """

    kind = "?"
    #: whether ``delay`` depends on ``(sender, target)`` only (see the
    #: exactness contract above); the conservative default is no
    per_link = False

    def delay(self, env: Envelope) -> int:
        """Delivery delay for one envelope (deterministic, ``>= 1``)."""
        if env.sender == env.target:
            return 1
        return max(1, int(self._link_delay(env)))

    def _link_delay(self, env: Envelope) -> int:
        raise NotImplementedError

    def delay_bound(self) -> int:
        """The largest delay this model can assign (``unit`` iff 1)."""
        raise NotImplementedError

    @property
    def is_unit(self) -> bool:
        """Whether the model is indistinguishable from unit delivery."""
        return self.delay_bound() <= 1

    def params(self) -> Dict[str, Any]:
        """JSON-serializable parameters (inverse of the constructor)."""
        return {}

    def to_dict(self) -> Dict[str, Any]:
        """The model as a spec dict (see :func:`make_delivery_model`)."""
        return {"kind": self.kind, **self.params()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.to_dict()!r})"


class UnitDelivery(DeliveryModel):
    """Today's behavior: every message is consumed the next round."""

    kind = "unit"
    per_link = True

    def _link_delay(self, env: Envelope) -> int:
        return 1

    def delay_bound(self) -> int:
        return 1


class ConstantDelivery(DeliveryModel):
    """Every cross-peer link takes a constant ``delay`` rounds."""

    kind = "constant"
    per_link = True

    def __init__(self, delay: int = 2) -> None:
        self._delay = _int_param("delay", delay, 1)

    def _link_delay(self, env: Envelope) -> int:
        return self._delay

    def delay_bound(self) -> int:
        return self._delay

    def params(self) -> Dict[str, Any]:
        return {"delay": self._delay}


class SlowLinksDelivery(DeliveryModel):
    """A seeded fraction of directed links is slow (constant ``delay``).

    Link classification is a pure function of ``(seed, sender, target)``
    and memoized, so a link's speed never changes while the model is
    installed — the heterogeneous-bandwidth population of HSkip+.
    """

    kind = "slow_links"
    per_link = True

    def __init__(self, fraction: float = 0.25, delay: int = 4, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self._fraction = float(fraction)
        self._delay = _int_param("delay", delay, 1)
        self._seed = _int_param("seed", seed)
        self._memo: Dict[tuple, int] = {}

    def _link_delay(self, env: Envelope) -> int:
        link = (env.sender, env.target)
        got = self._memo.get(link)
        if got is None:
            u = stable_u64("slow_links", self._seed, *link) / 2.0**64
            got = self._delay if u < self._fraction else 1
            self._memo[link] = got
        return got

    def delay_bound(self) -> int:
        return self._delay if self._fraction > 0 else 1

    def params(self) -> Dict[str, Any]:
        return {"fraction": self._fraction, "delay": self._delay, "seed": self._seed}


class LogNormalDelivery(DeliveryModel):
    """Per-link log-normal latency, capped at ``cap`` rounds.

    Each directed link draws ``1 + floor(lognormvariate(mu, sigma))``
    once (seeded per link, memoized): a long-tailed but *fixed* latency
    population, the WAN-like heterogeneity of HSkip+-style systems.
    """

    kind = "lognormal"
    per_link = True

    def __init__(
        self, mu: float = 0.0, sigma: float = 0.8, cap: int = 8, seed: int = 0
    ) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self._mu = float(mu)
        self._sigma = float(sigma)
        self._cap = _int_param("cap", cap, 1)
        self._seed = _int_param("seed", seed)
        self._memo: Dict[tuple, int] = {}

    def _link_delay(self, env: Envelope) -> int:
        link = (env.sender, env.target)
        got = self._memo.get(link)
        if got is None:
            rng = random.Random(stable_u64("lognormal", self._seed, *link))
            got = min(self._cap, 1 + int(rng.lognormvariate(self._mu, self._sigma)))
            self._memo[link] = got
        return got

    def delay_bound(self) -> int:
        return self._cap

    def params(self) -> Dict[str, Any]:
        return {"mu": self._mu, "sigma": self._sigma, "cap": self._cap, "seed": self._seed}


class RegionDelivery(DeliveryModel):
    """A WAN matrix: peers hash into ``regions``; cross-region links
    cost ``delay`` rounds, intra-region links are unit."""

    kind = "regions"
    per_link = True

    def __init__(self, regions: int = 2, delay: int = 4, seed: int = 0) -> None:
        self._regions = _int_param("regions", regions, 1)
        self._delay = _int_param("delay", delay, 1)
        self._seed = _int_param("seed", seed)
        self._memo: Dict[Hashable, int] = {}

    def _region(self, peer: Hashable) -> int:
        got = self._memo.get(peer)
        if got is None:
            got = stable_u64("region", self._seed, peer) % self._regions
            self._memo[peer] = got
        return got

    def _link_delay(self, env: Envelope) -> int:
        return self._delay if self._region(env.sender) != self._region(env.target) else 1

    def delay_bound(self) -> int:
        return self._delay if self._regions > 1 else 1

    def params(self) -> Dict[str, Any]:
        return {"regions": self._regions, "delay": self._delay, "seed": self._seed}


class ReorderDelivery(DeliveryModel):
    """Adversarial reorder-within-bound: every envelope draws a delay in
    ``[1, bound]`` keyed on its full content (link *and* payload), so
    distinct messages on the same link overtake each other — the
    maximally unordered delivery the bound admits.  Content-identical
    envelopes still draw the same delay, which keeps steady flows (and
    their replay) deterministic.
    """

    kind = "reorder"

    def __init__(self, bound: int = 3, seed: int = 0) -> None:
        self._bound = _int_param("bound", bound, 1)
        self._seed = _int_param("seed", seed)

    def _link_delay(self, env: Envelope) -> int:
        u = stable_u64(
            "reorder", self._seed, env.sender, env.target, _payload_identity(env)
        )
        return 1 + u % self._bound

    def delay_bound(self) -> int:
        return self._bound

    def params(self) -> Dict[str, Any]:
        return {"bound": self._bound, "seed": self._seed}


class CrossCutDelivery(DeliveryModel):
    """A latency partition: links crossing an explicit cut are slow.

    The slow analog of the scenario engine's drop-filter partition —
    the cut's messages arrive late instead of never.  ``side_a`` is an
    explicit peer-id collection so an event can slow exactly the arc it
    chose.
    """

    kind = "cross_cut"
    per_link = True

    def __init__(self, side_a: Sequence[int] = (), delay: int = 5) -> None:
        if isinstance(side_a, (str, bytes)) or not hasattr(side_a, "__iter__"):
            raise ValueError(
                f"side_a must be a collection of peer ids, got {side_a!r} "
                f"({type(side_a).__name__})"
            )
        for peer in side_a:
            _int_param("side_a entry", peer)
        self._side_a = frozenset(side_a)
        self._delay = _int_param("delay", delay, 1)

    def _link_delay(self, env: Envelope) -> int:
        crosses = (env.sender in self._side_a) != (env.target in self._side_a)
        return self._delay if crosses else 1

    def delay_bound(self) -> int:
        return self._delay if self._side_a else 1

    def params(self) -> Dict[str, Any]:
        return {"side_a": sorted(self._side_a), "delay": self._delay}


#: delivery-model registry: kind -> class
DELIVERY_KINDS: Dict[str, Type[DeliveryModel]] = {
    cls.kind: cls
    for cls in (
        UnitDelivery,
        ConstantDelivery,
        SlowLinksDelivery,
        LogNormalDelivery,
        RegionDelivery,
        ReorderDelivery,
        CrossCutDelivery,
    )
}


def make_delivery_model(spec: "DeliveryModel | str | Dict[str, Any]") -> DeliveryModel:
    """Build a delivery model from an instance, a kind name, or a spec
    dict (``{"kind": ..., **params}`` — the :meth:`DeliveryModel.to_dict`
    form, JSON round-trippable)."""
    if isinstance(spec, DeliveryModel):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    kw = dict(spec)
    kind = kw.pop("kind", None)
    cls = DELIVERY_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown delivery model {kind!r}; choose from {sorted(DELIVERY_KINDS)}"
        )
    return cls(**kw)


# ----------------------------------------------------------------------
# activation daemons
# ----------------------------------------------------------------------
class ActivationDaemon:
    """Chooses the actors that execute each round.

    ``select`` returns ``None`` for full activation or the (possibly
    empty) set of active keys; actors left out keep their state and
    accumulate their inboxes — the standard bridge from the synchronous
    model toward asynchrony.
    """

    kind = "?"
    #: full daemons short-circuit to the paper's every-actor semantics
    is_full = False

    def select(
        self, round_no: int, keys: Sequence[Hashable]
    ) -> Optional[FrozenSet[Hashable]]:
        """The active set for ``round_no`` (``keys`` arrive sorted)."""
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """JSON-serializable parameters (inverse of the constructor)."""
        return {}

    def to_dict(self) -> Dict[str, Any]:
        """The daemon as a spec dict (see :func:`make_daemon`)."""
        return {"kind": self.kind, **self.params()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.to_dict()!r})"


class FullActivation(ActivationDaemon):
    """Everyone steps every round — the paper's model."""

    kind = "full"
    is_full = True

    def select(self, round_no, keys):
        return None


class SeededPartialActivation(ActivationDaemon):
    """Independent seeded coin flips: each actor is active with
    probability ``p`` each round (fair: activated infinitely often)."""

    kind = "partial"

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"activation probability must be in (0, 1], got {p}")
        self._p = float(p)
        self._seed = _int_param("seed", seed)

    @property
    def is_full(self) -> bool:
        return self._p >= 1.0

    def select(self, round_no, keys):
        if self._p >= 1.0:
            return None
        rng = random.Random(stable_u64("partial", self._seed, round_no))
        return frozenset(key for key in keys if rng.random() < self._p)

    def params(self) -> Dict[str, Any]:
        return {"p": self._p, "seed": self._seed}


class RoundRobinActivation(ActivationDaemon):
    """Fair stripes: the sorted key list is split into ``groups``
    stripes and stripe ``round_no % groups`` steps — every actor is
    activated exactly once per ``groups`` rounds."""

    kind = "round_robin"

    def __init__(self, groups: int = 2) -> None:
        self._groups = _int_param("groups", groups, 1)

    @property
    def is_full(self) -> bool:
        return self._groups == 1

    def select(self, round_no, keys):
        turn = round_no % self._groups
        return frozenset(key for i, key in enumerate(keys) if i % self._groups == turn)

    def params(self) -> Dict[str, Any]:
        return {"groups": self._groups}


class UnfairBoundedActivation(ActivationDaemon):
    """The adversary at the edge of the fairness bound: every actor is
    activated exactly once per ``bound``-round window, at a seeded
    per-actor phase — as rarely and as skewed as the bound allows."""

    kind = "unfair"

    def __init__(self, bound: int = 4, seed: int = 0) -> None:
        self._bound = _int_param("bound", bound, 1)
        self._seed = _int_param("seed", seed)

    @property
    def is_full(self) -> bool:
        return self._bound == 1

    def select(self, round_no, keys):
        turn = round_no % self._bound
        return frozenset(
            key
            for key in keys
            if stable_u64("unfair", self._seed, key) % self._bound == turn
        )

    def params(self) -> Dict[str, Any]:
        return {"bound": self._bound, "seed": self._seed}


#: daemon registry: kind -> class
DAEMON_KINDS: Dict[str, Type[ActivationDaemon]] = {
    cls.kind: cls
    for cls in (
        FullActivation,
        SeededPartialActivation,
        RoundRobinActivation,
        UnfairBoundedActivation,
    )
}


def make_daemon(spec: "ActivationDaemon | str | Dict[str, Any]") -> ActivationDaemon:
    """Build an activation daemon from an instance, a kind name, or a
    spec dict (the :meth:`ActivationDaemon.to_dict` form)."""
    if isinstance(spec, ActivationDaemon):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    kw = dict(spec)
    kind = kw.pop("kind", None)
    cls = DAEMON_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown daemon {kind!r}; choose from {sorted(DAEMON_KINDS)}")
    return cls(**kw)


# ----------------------------------------------------------------------
# the combined time model
# ----------------------------------------------------------------------
class TimeModel:
    """One value owning both halves of the simulation's notion of time:
    a :class:`DeliveryModel` and an :class:`ActivationDaemon`."""

    __slots__ = ("delivery", "daemon")

    def __init__(
        self,
        delivery: "DeliveryModel | str | Dict[str, Any] | None" = None,
        daemon: "ActivationDaemon | str | Dict[str, Any] | None" = None,
    ) -> None:
        self.delivery = make_delivery_model(delivery if delivery is not None else "unit")
        self.daemon = make_daemon(daemon if daemon is not None else "full")

    @staticmethod
    def unit() -> "TimeModel":
        """The paper's model: unit delivery, full activation."""
        return TimeModel()

    @property
    def is_unit(self) -> bool:
        """Whether the model reproduces the paper's semantics exactly."""
        return self.delivery.is_unit and self.daemon.is_full

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {"delivery": self.delivery.to_dict(), "daemon": self.daemon.to_dict()}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TimeModel":
        """Rebuild a model from its :meth:`to_dict` form."""
        return TimeModel(data.get("delivery"), data.get("daemon"))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"delivery={self.delivery.to_dict()} daemon={self.daemon.to_dict()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeModel({self.describe()})"
