"""Unified telemetry plane: counters, phase timers, causal op traces.

Three strictly separated data planes live in one
:class:`TelemetryRecorder`:

* **deterministic, engine-invariant counters** — messages by payload
  type, total emissions, drop-filter hits, round count.  Identical
  between the ``full`` and ``columnar`` kernels for the same seeded
  run, and therefore equivalence-testable.  Beside them the recorder
  keeps one ``(sent, dropped, executed, replayed)`` row per round
  (:attr:`TelemetryRecorder.rounds`), the series the message
  complexity experiment (E12) reads;
* **deterministic kernel-plane counters** — execute/replay splits and
  dirty-set sizes.  Identical between the ``columnar`` kernel's two
  round loops, whichever ran a round (the full-scan kernel executes
  everybody, so its split is trivially different);
* **wall-clock phase timers** — ``perf_counter`` spans around the
  kernel phases and the per-rule sweeps.  Nondeterministic by nature;
  never compared, only reported.

The recorder is the kernels' only per-round sink: each round loop
makes one :meth:`TelemetryRecorder.on_round` call.  The overhead
contract: with telemetry disabled (the default) the instrumented code
paths are guarded by a single ``is None`` check per round (per actor in
the hot loops), and enabling telemetry never changes simulation
behavior — traces ride outside payload equality and counters never
gate a decision.

>>> from repro.telemetry import TelemetryRecorder, TraceContext
>>> rec = TelemetryRecorder()
>>> rec.sampled(0) and rec.sampled(7)   # default: trace every op
True
>>> TraceContext(op_id=7).extended(3, 1, "greedy").hops
((3, 1, 'greedy'),)
"""

from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.report import render_telemetry
from repro.telemetry.tracing import TraceContext

__all__ = [
    "TelemetryRecorder",
    "TraceContext",
    "render_telemetry",
]
