"""Rule configuration and firing counters.

The six rules of Section 2.3 can be individually disabled for the
ablation experiments (DESIGN.md E10): e.g. without the ring rule the
protocol degenerates to plain linearization (a sorted list, no ring and no
wrap fingers); without the connection rule, virtual siblings created into
empty neighborhoods may never re-attach from adversarial initial states.

``RuleCounters`` tallies how often each rule *changed state* — used by the
message-complexity experiment and by tests asserting that the stable state
fires no state-changing rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict


@dataclass(frozen=True)
class RuleConfig:
    """Feature flags for the rule pipeline (all on = the full protocol)."""

    virtual_nodes: bool = True     #: rule 1 — create/delete virtual siblings
    overlap: bool = True           #: rule 2 — overlapping neighborhood
    closest_real: bool = True      #: rule 3 — closest real neighbor
    linearize: bool = True         #: rule 4 — linearization + mirroring
    ring: bool = True              #: rule 5 — ring edges
    connection: bool = True        #: rule 6 — connection edges
    wrap_pointers: bool = True     #: seam extension [D6] (wrap fingers)
    #: extension (paper §6 asks for "more efficient rules"): rule 3
    #: announces a closest-real candidate only when the pointer changed
    #: or the recipient is newly met, instead of re-broadcasting every
    #: round.  Off by default — the default pipeline is paper-faithful.
    economical_broadcast: bool = False

    def ablated(self, **changes: bool) -> "RuleConfig":
        """A copy with some flags flipped, e.g. ``cfg.ablated(ring=False)``;
        an unknown flag raises ``KeyError``."""
        flags = {f.name for f in fields(self)}
        for key in changes:
            if key not in flags:
                raise KeyError(f"unknown rule flag {key!r}")
        return replace(self, **changes)


@dataclass
class RuleCounters:
    """State-changing rule firings, by rule name."""

    fires: Dict[str, int] = field(default_factory=dict)

    def bump(self, rule: str, amount: int = 1) -> None:
        """Record ``amount`` state-changing firings of ``rule``."""
        if amount:
            self.fires[rule] = self.fires.get(rule, 0) + amount

    def total(self) -> int:
        """Total state-changing firings recorded."""
        return sum(self.fires.values())

    def merged(self, other: "RuleCounters") -> "RuleCounters":
        """Counter union (for aggregating across peers)."""
        out = RuleCounters(dict(self.fires))
        for rule, amount in other.fires.items():
            out.bump(rule, amount)
        return out
