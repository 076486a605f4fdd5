"""Text renderers for the telemetry plane (the `rechord observe` body).

Deterministic content (censuses, traces) renders deterministically;
wall-clock tables are explicitly labeled as such and never enter a
baseline.

>>> from repro.telemetry.recorder import TelemetryRecorder
>>> rec = TelemetryRecorder()
>>> rec.messages["Introduce"] += 2
>>> rec.on_round(sent=2, dropped=1, executed=1, replayed=3)
>>> print(render_census(rec))          # doctest: +NORMALIZE_WHITESPACE
rounds           : 1
messages sent    : 2
drop-filter hits : 1
executed         : 1
replayed         : 3
dirty-set peak   : 1
message census:
  Introduce 2
"""

from __future__ import annotations

from typing import List

from repro.telemetry.recorder import TelemetryRecorder


def render_census(rec: TelemetryRecorder) -> str:
    """The deterministic counter census (plus the kernel split)."""
    census = rec.census()
    kernel = rec.kernel_stats()
    lines = [
        f"rounds           : {census['rounds']}",
        f"messages sent    : {census['sent']}",
        f"drop-filter hits : {census['dropped']}",
        f"executed         : {kernel['executed']}",
        f"replayed         : {kernel['replayed']}",
        f"dirty-set peak   : {kernel['dirty_peak']}",
    ]
    if census["messages"]:
        lines.append("message census:")
        for name, count in census["messages"].items():
            lines.append(f"  {name:<24} {count:>8}")
    if census["rules"]:
        lines.append("rule firings:")
        for name, count in census["rules"].items():
            lines.append(f"  {name:<24} {count:>8}")
    return "\n".join(lines)


def render_phase_table(rec: TelemetryRecorder) -> str:
    """Wall-clock flame table, slowest phase first (nondeterministic)."""
    rows = rec.phase_table()
    if not rows:
        return "phase timers: (no spans recorded)"
    total = sum(seconds for _, seconds, _ in rows)
    lines = ["phase timers (wall clock; not comparable across machines):"]
    lines.append(f"  {'phase':<24} {'seconds':>10} {'calls':>10} {'share':>7}")
    for phase, seconds, calls in rows:
        share = seconds / total if total else 0.0
        lines.append(
            f"  {phase:<24} {seconds:>10.4f} {calls:>10} {share:>6.1%}"
        )
    hot = rec.rule_hotspots(3)
    if hot:
        names = ", ".join(phase for phase, _, _ in hot)
        lines.append(f"  top rule hotspots: {names}")
    shares = rec.memo_hit_shares()
    if shares:
        cells = ", ".join(f"{rule} {share:.1%}" for rule, share in shares.items())
        lines.append(f"  per-level memo hit share: {cells}")
    carried = rec.carried_shares()
    if carried:
        cells = ", ".join(f"{rule} {share:.1%}" for rule, share in carried.items())
        lines.append(f"  carried level share: {cells}")
    return "\n".join(lines)


def render_traces(rec: TelemetryRecorder, limit: int = 3) -> str:
    """Hop traces of up to ``limit`` sampled completed operations."""
    if not rec.traces:
        return "hop traces: (no sampled operations completed)"
    lines = [f"hop traces ({min(limit, len(rec.traces))} of {len(rec.traces)} sampled ops):"]
    for op_id, op, outcome, hops in rec.traces[:limit]:
        lines.append(f"  op {op_id} ({op}) -> {outcome}, {max(0, len(hops) - 1)} forwards:")
        for peer, round_no, rule in hops:
            lines.append(f"    round {round_no:>4}  peer {peer:>8}  {rule}")
    return "\n".join(lines)


def render_telemetry(rec: TelemetryRecorder, traces: int = 3) -> str:
    """The full observe block: census, flame table, hop traces."""
    parts: List[str] = [
        render_census(rec),
        render_phase_table(rec),
        render_traces(rec, limit=traces),
    ]
    return "\n\n".join(parts)
