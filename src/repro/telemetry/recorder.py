"""The telemetry recorder: one sink for counters, timers and traces.

The recorder separates what is comparable from what is not:

* :attr:`counters` and :attr:`messages` are **engine-invariant** —
  identical between the full and columnar kernels for the same seeded
  run (the differential suites assert this);
* :attr:`rounds` holds one ``(sent, dropped, executed, replayed)`` row
  per round, in round order — the per-round series behind the message
  complexity experiment (E12).  ``sent`` and ``dropped`` are
  engine-invariant, ``executed``/``replayed`` belong to the kernel
  plane below (the full-scan kernel reports everyone it stepped as
  executed).  The rows stay out of :meth:`census`, :meth:`records` and
  :meth:`dump`;
* :attr:`kernel` holds the execute/replay split and dirty-set peaks —
  deterministic, but invariant only between the columnar kernel's
  round loops (the full-scan reference executes everybody by design);
* :attr:`timers` holds wall-clock phase spans — nondeterministic,
  reported but never compared;
* :attr:`memo` holds the fast rule pipeline's per-level memo hits and
  misses, and the levels it carried without a lookup — deterministic,
  but a property of that pipeline alone (the scalar spec has neither),
  so it is its own record and never part of the census or the kernel
  split;
* :attr:`rule_fires` is filled in from the network's
  :class:`~repro.core.rules.RuleCounters` merge when a census is taken
  (rule firings are counted by the protocol layer whether or not
  telemetry is enabled — the recorder only snapshots them).

>>> rec = TelemetryRecorder(trace_sample_interval=4)
>>> [op for op in range(9) if rec.sampled(op)]
[0, 4, 8]
>>> rec.messages["Introduce"] += 3
>>> rec.on_round(sent=3, dropped=0, executed=2, replayed=5)
>>> rec.census()["messages"]
{'Introduce': 3}
>>> rec.rounds
[(3, 0, 2, 5)]
>>> rec.kernel_stats() == {"executed": 2, "replayed": 5, "dirty_peak": 2}
True
>>> rec.add_memo("rule3", hits=9, misses=1, carried=30)
>>> rec.memo_hit_shares()
{'rule3': 0.9}
>>> rec.carried_shares()
{'rule3': 0.75}
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Tuple


class TelemetryRecorder:
    """Accumulates counters, phase timers and sampled op traces."""

    def __init__(
        self,
        trace_sample_interval: int = 1,
        max_traces: int = 256,
    ) -> None:
        if trace_sample_interval < 1:
            raise ValueError("trace_sample_interval must be >= 1")
        self.trace_sample_interval = trace_sample_interval
        self.max_traces = max_traces
        #: engine-invariant deterministic counters (rounds/sent/dropped)
        self.counters: Counter = Counter()
        #: engine-invariant envelope census by payload type name
        self.messages: Counter = Counter()
        #: one (sent, dropped, executed, replayed) row per round
        self.rounds: List[Tuple[int, int, int, int]] = []
        #: kernel-plane deterministic counters (execute/replay split)
        self.kernel: Counter = Counter()
        #: wall-clock phase accounting: phase -> [seconds, calls]
        self.timers: Dict[str, List[float]] = {}
        #: per-rule firing snapshot (set by the owning network at census)
        self.rule_fires: Dict[str, int] = {}
        #: per-level rule memo of the batched pipeline:
        #: rule -> [hits, misses, carried levels]
        self.memo: Dict[str, List[int]] = {}
        #: completed sampled ops: (op_id, op, outcome, hops tuple)
        self.traces: List[Tuple[int, str, str, tuple]] = []

    # ------------------------------------------------------------------
    # ingestion (called from the kernels / traffic plane)
    # ------------------------------------------------------------------
    def on_round(
        self,
        sent: int,
        dropped: int,
        executed: int,
        replayed: int,
    ) -> None:
        """Per-round bookkeeping, called once by whichever kernel ran."""
        self.rounds.append((sent, dropped, executed, replayed))
        c = self.counters
        c["rounds"] += 1
        c["sent"] += sent
        c["dropped"] += dropped
        k = self.kernel
        k["executed"] += executed
        k["replayed"] += replayed
        if executed > k["dirty_peak"]:
            k["dirty_peak"] = executed

    def add_time(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Accumulate one wall-clock span under a phase label."""
        slot = self.timers.get(phase)
        if slot is None:
            self.timers[phase] = [seconds, calls]
        else:
            slot[0] += seconds
            slot[1] += calls

    def add_memo(self, rule: str, hits: int, misses: int, carried: int) -> None:
        """Accumulate one batch's per-level memo lookups of ``rule`` and
        the levels it carried."""
        slot = self.memo.get(rule)
        if slot is None:
            self.memo[rule] = [hits, misses, carried]
        else:
            slot[0] += hits
            slot[1] += misses
            slot[2] += carried

    def sampled(self, op_id: int) -> bool:
        """Deterministic sampling decision for one op id."""
        return op_id % self.trace_sample_interval == 0

    def add_trace(self, op_id: int, op: str, outcome: str, hops: tuple) -> None:
        """Store one completed sampled op's hop path (bounded)."""
        if len(self.traces) < self.max_traces:
            self.traces.append((op_id, op, outcome, tuple(hops)))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def census(self) -> dict:
        """The deterministic, engine-invariant counter census."""
        return {
            "rounds": self.counters.get("rounds", 0),
            "sent": self.counters.get("sent", 0),
            "dropped": self.counters.get("dropped", 0),
            "messages": {k: v for k, v in sorted(self.messages.items()) if v},
            "rules": dict(sorted(self.rule_fires.items())),
        }

    def kernel_stats(self) -> dict:
        """The kernel-plane split (invariant across the tracked and
        columnar round loops)."""
        return {
            "executed": self.kernel.get("executed", 0),
            "replayed": self.kernel.get("replayed", 0),
            "dirty_peak": self.kernel.get("dirty_peak", 0),
        }

    def phase_table(self) -> List[Tuple[str, float, int]]:
        """(phase, total seconds, calls) rows, slowest first."""
        rows = [(p, t[0], int(t[1])) for p, t in self.timers.items()]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def memo_hit_shares(self) -> Dict[str, float]:
        """Hits over lookups of the per-level rule memo, per rule."""
        return {
            rule: round(hits / (hits + misses), 4)
            for rule, (hits, misses, _carried) in sorted(self.memo.items())
            if hits + misses
        }

    def carried_shares(self) -> Dict[str, float]:
        """Carried levels over all level runs of each memoized phase."""
        return {
            rule: round(carried / (hits + misses + carried), 4)
            for rule, (hits, misses, carried) in sorted(self.memo.items())
            if hits + misses + carried
        }

    def rule_hotspots(self, k: int = 3) -> List[Tuple[str, float, int]]:
        """The ``k`` most expensive ``rule.*`` phases by wall time."""
        return [row for row in self.phase_table() if row[0].startswith("rule.")][:k]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def dump(self, path) -> int:
        """Write the full record set as JSONL; returns records written.

        One record per line, each self-describing via a ``kind`` field:
        ``census`` and ``kernel`` (deterministic), one ``memo`` row when
        the batched pipeline ran (deterministic, fast path only),
        ``timer`` rows (wall-clock), and one ``trace`` row per stored
        sampled op.
        """
        records = self.records()
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(records)

    def records(self) -> List[dict]:
        """The JSONL record set as dicts (deterministic ordering)."""
        out: List[dict] = [
            {"kind": "census", **self.census()},
            {"kind": "kernel", **self.kernel_stats()},
        ]
        if self.memo:
            out.append(
                {"kind": "memo",
                 "lookups": {rule: {"hits": h, "misses": m, "carried": c}
                             for rule, (h, m, c) in sorted(self.memo.items())}}
            )
        for phase, seconds, calls in self.phase_table():
            out.append(
                {"kind": "timer", "phase": phase,
                 "seconds": round(seconds, 6), "calls": calls}
            )
        for op_id, op, outcome, hops in self.traces:
            out.append(
                {"kind": "trace", "op_id": op_id, "op": op,
                 "outcome": outcome,
                 "hops": [list(h) for h in hops]}
            )
        return out

    def clear(self) -> None:
        """Reset every plane (sampling config is kept)."""
        self.counters.clear()
        self.messages.clear()
        self.rounds.clear()
        self.kernel.clear()
        self.timers.clear()
        self.rule_fires.clear()
        self.memo.clear()
        self.traces.clear()
