"""Self-test of the benchmark harness (collected by the tier-1 command).

Runs every workload function at toy sizes passed as arguments, checks
that the harness emits exactly the metrics ``BENCHMARK.json`` declares,
and checks the span self-time arithmetic on a synthetic tree.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import rechord_bench as rb

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TOY_SIZES = {
    "restabilize": dict(n=16, events=2),
    "cold_stabilize": dict(n=8, networks=2),
    "traffic_steady": dict(n=16, rate=6.0, rounds=6, join_at=1, crash_at=3, cooldown=80,
                           key_universe=16, deadline=12, reservoir=16),
    "fault_campaign": dict(n=16, rate=2.0, key_universe=16, latency_cap=3),
}


@pytest.fixture(autouse=True)
def instant_calibration(monkeypatch):
    """Toy runs need no host-speed reading; keep the self-test fast."""
    monkeypatch.setattr(rb.ReferenceClock, "_read", lambda self: 1.0)


def test_toy_sizes_cover_every_workload():
    assert TOY_SIZES.keys() == rb.WORKLOADS.keys()
    for name, workload in rb.WORKLOADS.items():
        assert TOY_SIZES[name].keys() == workload.sizes.keys()


@pytest.mark.parametrize("name", sorted(rb.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = rb.measure(name, seed=7, seconds=0.0, sizes=TOY_SIZES[name], min_instances=2)
    assert result["problems"] == [] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"].keys() == rb.END_TO_END.keys()
    assert all(value > 0 for value in result["metrics"].values())
    detail = result["detail"]
    assert detail["instances"] == 2
    assert detail["campaign"].keys() == rb.CAMPAIGN_END_TO_END.keys()
    # simulated statistics repeat exactly for one seed and move with it
    again = rb.measure(name, seed=7, seconds=0.0, sizes=TOY_SIZES[name], min_instances=1)
    other = rb.measure(name, seed=8, seconds=0.0, sizes=TOY_SIZES[name], min_instances=1)
    assert again["detail"]["sim"] == detail["sim"]
    assert other["detail"]["sim"] != detail["sim"]
    assert other["problems"] == []


@pytest.mark.parametrize("name", sorted(rb.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    dump = tmp_path / "spans.jsonl"
    result = rb.measure_traced(name, seed=7, sizes=TOY_SIZES[name], dump_to=dump)
    metrics = result["metrics"]
    assert result["problems"] == []
    assert metrics.keys() == rb.PER_LAYER.keys()
    assert metrics["telemetry.neutral"] == 1
    assert metrics["netsim.round_calls"] > 0 and metrics["netsim.round_s"] > 0
    assert metrics["netsim.executed_steps"] > 0
    assert 0 <= metrics["bench.unattributed_share"] < 1
    # the step phases are nested in the round spans, never beside them
    assert metrics["core.rules_total_s"] + metrics["core.apply_inbox_s"] \
        + metrics["traffic.handle_s"] + metrics["netsim.self_s"] \
        == pytest.approx(metrics["netsim.round_s"])
    uses_traffic = name in ("traffic_steady", "fault_campaign")
    assert (metrics["traffic.ops_completed"] > 0) == uses_traffic
    assert (metrics["scenarios.run_s"] > 0) == (name == "fault_campaign")
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(rows) > metrics["bench.spans"]        # the spans plus the folded aggregates
    assert all(row["run"] == f"{name}:7" for row in rows)
    # tracing leaves the library as it found it
    assert all(not hasattr(getattr(owner, attr), "__wrapped__")
               for owner, attr, _span in rb.LAYER_SPANS)


def test_span_self_time_arithmetic():
    spans = rb.SpanRecorder("synthetic")
    spans.spans = [
        ["bench.timed", 0.0, 10.0, None],
        ["core.run_until_stable", 1.0, 9.0, 0],
        ["netsim.round", 2.0, 4.0, 1],
        ["netsim.round", 5.0, 8.0, 1],
        ["bench.setup", 10.0, 14.0, None],
        ["workloads.build", 10.5, 13.5, 4],
        ["netsim.round", 11.0, 12.0, 5],
        ["core.verify", 14.0, 14.5, None],
        # a build inside a timed section is set-up, and so is what it runs
        ["bench.timed", 20.0, 30.0, None],
        ["scenarios.run", 20.0, 30.0, 8],
        ["workloads.build", 21.0, 23.0, 9],
        ["netsim.round", 21.5, 22.5, 10],
        ["netsim.round", 24.0, 28.0, 9],
    ]
    spans.add_aggregate("rule.purge", 1.5, 7, parent="netsim.round")
    spans.add_aggregate("peer.apply_inbox", 2.5, 7, parent="netsim.round")
    assert spans.regions() == ["timed", "timed", "timed", "timed", "setup", "setup", "setup",
                               None, "timed", "timed", "setup", "setup", "timed"]
    assert spans.totals("timed") == {
        "bench.timed": (20.0, 2), "core.run_until_stable": (8.0, 1),
        "netsim.round": (9.0, 3), "scenarios.run": (10.0, 1),
    }
    assert spans.totals("setup") == {
        "bench.setup": (4.0, 1), "workloads.build": (5.0, 2), "netsim.round": (2.0, 2),
    }
    own = spans.self_times("timed")
    assert own == {
        "bench.timed": 2.0,             # 20 - run_until_stable 8 - scenarios.run 10
        "core.run_until_stable": 3.0,   # 8 - rounds 5
        "scenarios.run": 4.0,           # 10 - build 2 - round 4
        "netsim.round": 5.0,            # 9 - aggregates 4
    }
    # self times + folded aggregates + nested set-up add up to the timed wall
    assert sum(own.values()) + 4.0 + 2.0 == 20.0


def test_reference_clock_divides_each_interval_by_its_mean_slowness(monkeypatch):
    now = [0.0]
    readings = iter([1.0, 2.0, 2.0, 1.0])
    monkeypatch.setattr(rb, "_perf", lambda: now[0])
    monkeypatch.setattr(rb.ReferenceClock, "_read", lambda self: next(readings))
    clock = rb.ReferenceClock()
    now[0] = 0.1
    clock.tick()                      # too soon after the last reading: no-op
    assert clock.ref == 0.0 and clock.readings == []
    now[0] = 3.0
    clock.tick()                      # 3 s at slowness (1 + 2) / 2
    assert clock.ref == pytest.approx(2.0)
    now[0] = 5.0
    clock.tick(force=True)            # 2 s at slowness 2
    now[0] = 5.03
    clock.tick(force=True)            # forced: read even within the interval
    assert clock.ref == pytest.approx(2.0 + 1.0 + 0.03 / 1.5)
    assert clock.readings == [1.5, 2.0, 1.5]


def test_benchmark_json_declares_exactly_what_the_harness_emits():
    declared = json.loads((rb.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert declared == rb.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [m["name"] for block in ("workloads", "end_to_end", "per_layer")
             for m in declared[block]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert Path(declared["command"][1]).parts[0] in declared["paths"]
