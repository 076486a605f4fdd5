"""The telemetry plane: counters, timers, latency quantiles, traces.

Contract under test (see docs/ARCHITECTURE.md, "Observability"):

* **zero interference** — a run with telemetry enabled is bit-for-bit
  identical to the same run without (fingerprints, reports, completed
  ops), and message traces never leak into payload identity;
* **engine invariance** — the counter census (rounds / sent / dropped /
  envelope types / rule firings) is identical across the full-scan
  kernel and both legs of the columnar one (as shipped, and with every
  round on its general delivery point); the kernel-plane split
  (executed / replayed / dirty peak) is identical between the two legs;
* **determinism** — censuses, sampled-trace hop paths and per-window
  drop totals are pure functions of the seeded run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.scaling import build_ideal_network
from repro.scenarios import make_scenario, run_scenario
from repro.telemetry import TelemetryRecorder, render_telemetry
from repro.telemetry.tracing import TraceContext
from repro.traffic.messages import OP_LOOKUP, ST_OK, LookupReply, LookupRequest
from repro.traffic.plane import TrafficPlane
from repro.traffic.slo import IssuedOp, SLOCollector, percentile
from repro.workloads.initial import build_random_network, corrupt_network
from tests.conftest import ENGINES, GENERAL, build, leg


def _run_instrumented(engine: str, n: int = 10, seed: int = 7, rounds: int = 30):
    net = build(build_random_network, engine, n=n, seed=seed)
    corrupt_network(net, seed + 1)
    rec = net.enable_telemetry()
    net.run(rounds)
    return net, rec


# ----------------------------------------------------------------------
# recorder unit behavior
# ----------------------------------------------------------------------
class TestRecorder:
    def test_on_round_accumulates(self):
        rec = TelemetryRecorder()
        rec.on_round(sent=5, dropped=1, executed=3, replayed=2)
        rec.on_round(sent=7, dropped=0, executed=6, replayed=0)
        census = rec.census()
        assert census["rounds"] == 2
        assert census["sent"] == 12
        assert census["dropped"] == 1
        assert rec.kernel_stats() == {
            "executed": 9,
            "replayed": 2,
            "dirty_peak": 6,
        }

    def test_sampling_interval(self):
        rec = TelemetryRecorder(trace_sample_interval=3)
        assert [op for op in range(10) if rec.sampled(op)] == [0, 3, 6, 9]
        with pytest.raises(ValueError):
            TelemetryRecorder(trace_sample_interval=0)

    def test_trace_cap(self):
        rec = TelemetryRecorder(max_traces=2)
        for op in range(5):
            rec.add_trace(op, "lookup", "ok", ((1, 0, "issue"),))
        assert len(rec.traces) == 2

    def test_dump_jsonl_roundtrip(self, tmp_path):
        rec = TelemetryRecorder()
        rec.messages["Introduce"] += 4
        rec.on_round(sent=4, dropped=0, executed=2, replayed=1)
        rec.add_time("kernel.step", 0.25, calls=2)
        rec.add_trace(8, "lookup", "ok", ((1, 0, "issue"), (2, 1, "ok")))
        path = tmp_path / "telemetry.jsonl"
        rec.dump(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds.count("census") == 1
        assert kinds.count("kernel") == 1
        assert "timer" in kinds and "trace" in kinds
        census = next(r for r in records if r["kind"] == "census")
        assert census["messages"] == {"Introduce": 4}

    def test_clear(self):
        rec = TelemetryRecorder()
        rec.on_round(sent=1, dropped=0, executed=1, replayed=0)
        rec.add_time("kernel.step", 0.1)
        rec.add_trace(0, "lookup", "ok", ())
        rec.clear()
        assert rec.census()["rounds"] == 0
        assert not rec.timers and not rec.traces


# ----------------------------------------------------------------------
# engine invariance + zero interference
# ----------------------------------------------------------------------
class TestEngineInvariance:
    def test_census_identical_across_kernels(self):
        censuses = {}
        kernels = {}
        for engine in ENGINES:
            net, rec = _run_instrumented(engine)
            censuses[engine] = net.telemetry_census()
            kernels[engine] = rec.kernel_stats()
        assert censuses["full"] == censuses["columnar"] == censuses[GENERAL]
        # the execute/replay split is a dirty-set concept: identical
        # between the columnar kernel's two delivery points, different
        # for full-scan (which executes every peer every round)
        assert kernels["columnar"] == kernels[GENERAL]
        assert kernels["full"]["replayed"] == 0

    def test_enabled_run_bit_for_bit_identical_to_disabled(self):
        for engine in ENGINES:
            with_tel, _ = _run_instrumented(engine)
            without = build(build_random_network, engine, n=10, seed=7)
            corrupt_network(without, 8)
            without.run(30)
            assert with_tel.fingerprint() == without.fingerprint(), engine

    def test_census_deterministic_across_reruns(self):
        _, a = _run_instrumented("columnar")
        _, b = _run_instrumented("columnar")
        assert a.census() == b.census()
        assert a.kernel_stats() == b.kernel_stats()

    def test_phase_timers_populated(self):
        _, rec = _run_instrumented("columnar")
        phases = set(rec.timers)
        assert {"kernel.materialize", "kernel.execute", "kernel.patch"} <= phases
        assert any(p.startswith("rule.") for p in phases)
        hotspots = rec.rule_hotspots(3)
        assert len(hotspots) == 3
        assert all(name.startswith("rule.") for name, _, _ in hotspots)

    def test_memo_record_is_its_own_plane(self):
        """Per-level memo lookups: reported for the batched pipeline,
        absent for the spec, never inside the census or kernel split."""
        records = {}
        for engine in ("full", "columnar"):
            net, rec = _run_instrumented(engine)
            net.telemetry_census()
            records[engine] = rec
            assert set(rec.census()) == {"rounds", "sent", "dropped", "messages", "rules"}
            assert set(rec.kernel_stats()) == {"executed", "replayed", "dirty_peak"}
        assert records["full"].memo == {}
        assert all(r["kind"] != "memo" for r in records["full"].records())
        rec = records["columnar"]
        engine_counts = net.scheduler._batch_stepper.memo_counts()
        assert {rule: tuple(pair) for rule, pair in rec.memo.items()} == engine_counts
        (memo,) = [r for r in rec.records() if r["kind"] == "memo"]
        assert set(memo["lookups"]) == {"apply_inbox", "rule3", "rule4", "rule5", "rule6"}
        assert memo["lookups"]["rule3"] == dict(zip(("hits", "misses", "carried"), rec.memo["rule3"]))
        # the apply-inbox landing has no memo: its runs are carried or land
        shares = rec.memo_hit_shares()
        assert shares.pop("apply_inbox") == 0.0
        assert all(0.0 < share < 1.0 for share in shares.values())
        assert all(0.0 < share < 1.0 for share in rec.carried_shares().values())
        rec.clear()
        assert rec.memo == {}

    def test_disable_telemetry_detaches(self):
        net, rec = _run_instrumented("columnar", rounds=5)
        net.disable_telemetry()
        before = rec.census()["rounds"]
        net.run(5)
        assert rec.census()["rounds"] == before
        with pytest.raises(RuntimeError):
            net.telemetry_census()


# ----------------------------------------------------------------------
# opt-in latency quantiles: exact nearest ranks
# ----------------------------------------------------------------------
def collector_with_latencies(latencies, quantiles):
    """An SLO collector whose routed ops took ``latencies`` rounds."""
    coll = SLOCollector(lambda kid: 42, sketch_quantiles=quantiles)
    for op_id, latency in enumerate(latencies):
        coll.register(IssuedOp(op_id=op_id, op=OP_LOOKUP, origin=7, kid=9,
                               issue_round=0, deadline=1000))
        coll.on_reply(LookupReply(op=OP_LOOKUP, op_id=op_id, origin=7, kid=9,
                                  status=ST_OK, owner=42, hops=1), round_no=latency)
    return coll


class TestSketchQuantiles:
    def test_slo_sketch_keys_are_opt_in(self):
        default = SLOCollector(lambda kid: 0)
        assert default.sketch_quantiles == ()
        assert not any("sketch" in k for k in default.summary())
        rng = random.Random(42)
        latencies = [rng.randrange(1, 40) for _ in range(500)]
        summary = collector_with_latencies(latencies, (0.5, 0.95)).summary()
        assert summary["latency_p50_sketch"] == percentile(latencies, 50)
        assert summary["latency_p95_sketch"] == percentile(latencies, 95)
        assert summary["latency_p95_sketch"] == summary["latency_p95"]

    def test_fractional_quantile_rank_has_no_float_error(self):
        # 0.07 * 100 == 7.000000000000001: taken literally, the rank of
        # the 7th percentile of 1..100 would round up to 8
        summary = collector_with_latencies(range(1, 101), (0.07,)).summary()
        assert summary["latency_p7_sketch"] == 7.0

    def test_quantile_outside_unit_interval_rejected(self):
        for q in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="quantile must be in"):
                SLOCollector(lambda kid: 0, sketch_quantiles=(q,))


# ----------------------------------------------------------------------
# causal op tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_trace_context_extension(self):
        t = TraceContext(op_id=4)
        t2 = t.extended(11, 3, "greedy").extended(12, 4, "ok")
        assert len(t2) == 2
        assert t2.hops == ((11, 3, "greedy"), (12, 4, "ok"))
        assert len(t) == 0  # immutable: extension never mutates

    def test_trace_excluded_from_payload_identity(self):
        base = dict(op="lookup", op_id=1, origin=10, kid=20, ttl=8)
        bare = LookupRequest(**base)
        traced = LookupRequest(**base, trace=TraceContext(op_id=1))
        assert bare == traced
        assert hash(bare) == hash(traced)
        assert bare.canonical() == traced.canonical()

    def test_end_to_end_hop_trace(self):
        net = build_ideal_network(16, seed=3, engine="columnar")
        rec = net.enable_telemetry()
        plane = TrafficPlane(net)
        op_id = plane.lookup("some-key", origin=net.peer_ids[0])
        plane.drain()
        traced = plane.collector.traced()
        assert len(traced) == 1
        comp = traced[0]
        assert comp.op_id == op_id
        hops = comp.trace.hops
        # issue marker + one hop per forward + the terminal verdict
        assert len(hops) == comp.hops + 2
        assert hops[0][2] == "issue"
        assert hops[-1][2] == comp.outcome
        assert all(hops[i][1] <= hops[i + 1][1] for i in range(len(hops) - 1))
        # an identical run without telemetry completes the same op
        twin = build_ideal_network(16, seed=3, engine="columnar")
        tplane = TrafficPlane(twin)
        tplane.lookup("some-key", origin=twin.peer_ids[0])
        tplane.drain()
        assert tplane.collector.completed == plane.collector.completed
        assert twin.fingerprint() == net.fingerprint()
        assert rec is net.telemetry

    def test_sampling_skips_unsampled_ops(self):
        net = build_ideal_network(16, seed=3)
        net.enable_telemetry(TelemetryRecorder(trace_sample_interval=2))
        plane = TrafficPlane(net)
        for _ in range(4):  # op ids 0..3: only 0 and 2 sampled
            plane.lookup("k", origin=net.peer_ids[0])
        plane.drain()
        assert sorted(c.op_id for c in plane.collector.traced()) == [0, 2]


# ----------------------------------------------------------------------
# scenario integration: drop windows + telemetry segments
# ----------------------------------------------------------------------
class TestScenarioTelemetry:
    def test_dropped_by_window_engine_invariant(self):
        spec = make_scenario("partition-heal", n=16, seed=5)
        reports = []
        for name in ENGINES:
            with leg(name) as engine:
                reports.append(run_scenario(spec, engine=engine))
        windows = reports[0].dropped_by_window
        assert all(r.dropped_by_window == windows for r in reports)
        by_label = dict(windows)
        partition = [w for w in by_label if "partition" in w]
        assert partition and by_label[partition[0]] > 0
        assert by_label.get("recovery", 0) == 0

    def test_telemetry_field_excluded_from_comparison(self):
        spec = make_scenario("flash-crowd", n=16, seed=9)
        rec = TelemetryRecorder()
        with_tel = run_scenario(spec, engine="columnar", telemetry=rec)
        without = run_scenario(spec, engine="columnar")
        assert with_tel == without
        assert without.telemetry is None
        assert with_tel.telemetry is not None
        segments = with_tel.telemetry["segments"]
        assert sum(s["rounds"] for s in segments) == with_tel.telemetry["census"]["rounds"]
        assert [s["window"] for s in segments][0] == "start"
        assert rec.traces  # sampled lookups harvested at campaign end
        d = with_tel.to_dict()
        assert d["dropped_by_window"] and d["telemetry"]["census"]["rules"]

    def test_render_telemetry_smoke(self):
        spec = make_scenario("flash-crowd", n=16, seed=9)
        rec = TelemetryRecorder()
        run_scenario(spec, engine="columnar", telemetry=rec)
        text = render_telemetry(rec)
        for needle in (
            "message census", "rule firings", "phase timers", "hop traces",
            "top rule hotspots", "per-level memo hit share: apply_inbox ", ", rule3 ",
            "carried level share: apply_inbox ",
        ):
            assert needle in text, needle


# ----------------------------------------------------------------------
# executed-series surface (full-scan engine reports n/a, never -1)
# ----------------------------------------------------------------------
class TestExecutedSeries:
    def test_full_scan_reports_none_not_minus_one(self):
        from repro.experiments.messages import format_messages, run_messages

        full = run_messages(n=8, engine="full")
        inc = run_messages(n=8)
        assert full.series == inc.series  # message series is invariant
        assert all(e is None for e in full.executed)
        assert full.executed_mean is None
        assert "n/a" in format_messages(full)
        assert all(e is not None and e >= 0 for e in inc.executed)
        assert inc.executed_mean is not None
        assert "-1" not in format_messages(inc)
