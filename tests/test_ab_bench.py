"""The pure helpers of ``tools/ab_bench.py`` (the A/B benchmark runner):
verdicts, quartiles, the simulated-statistics diff, the per-layer
report and the command-line routing.  Nothing here runs a benchmark."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = _load_ab_bench()

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.15}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5]


def verdict(block: str) -> str:
    (line,) = [row for row in block.splitlines() if row.strip().startswith("verdict:")]
    return line.split("verdict:", 1)[1].strip()


class TestReport:
    def test_gain(self):
        change = [v * 1.2 for v in PARENT]
        block = ab_bench.report(OPS, PARENT, change)
        assert verdict(block).startswith("gain")
        assert "change ahead in 10/10 pairs" in block

    def test_gain_when_lower_is_better(self):
        change = [v * 0.8 for v in PARENT]
        assert verdict(ab_bench.report(RSS, PARENT, change)).startswith("gain")

    def test_regression(self):
        change = [v * 0.7 for v in PARENT]
        assert verdict(ab_bench.report(OPS, PARENT, change)).startswith(
            "REGRESSION (worse by 30.0%, bound 25%)"
        )

    def test_regression_when_lower_is_better(self):
        change = [v * 1.2 for v in PARENT]
        assert verdict(ab_bench.report(RSS, PARENT, change)).startswith("REGRESSION")

    def test_within_bound(self):
        """Ahead in every pair, but by less than the parent's own
        quartile distance: not a gain."""
        change = [v + 0.1 for v in PARENT]
        assert verdict(ab_bench.report(OPS, PARENT, change)) == "within the bound (25%)"

    def test_within_bound_when_too_few_pairs_win(self):
        change = [v * 1.2 if i < 8 else v * 0.99 for i, v in enumerate(PARENT)]
        assert verdict(ab_bench.report(OPS, PARENT, change)) == "within the bound (25%)"


class TestQuartiles:
    def test_one_run_is_its_own_quartiles(self):
        assert ab_bench.quartiles([7.5]) == (7.5, 7.5, 7.5)

    def test_median_between_quartiles(self):
        q1, median, q3 = ab_bench.quartiles(PARENT)
        assert q1 <= median <= q3 and median == 100.0


class TestSimDiff:
    @staticmethod
    def stdout(sim: dict, campaign: dict, metrics: dict) -> str:
        """A ``--trace 1`` run's last two lines."""
        detail = {"detail": {"sim": sim, "campaign": campaign}}
        cells = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        return "warm-up chatter\n" + json.dumps(detail) + "\n" + json.dumps({"metrics": cells})

    def run(self, **overrides) -> dict:
        sim = {"fingerprint": "ab12", "rule_fires": 900}
        campaign = {"wall_s": 1.5, "rounds_per_s": 40.0, "sim_rounds": 60}
        metrics = {
            "netsim.round_calls": (60, "count"),
            "netsim.round_s": (0.8, "s"),
            "bench.unattributed_share": (0.2, "share"),
            "bench.spans": (5000, "count"),
            "telemetry.overhead_share": (0.14, "share"),
            "scenarios.window_survival_share": (0.9, "share"),
        }
        for key, value in overrides.items():
            if key in sim:
                sim[key] = value
            elif key in campaign:
                campaign[key] = value
            else:
                metrics[key] = (value, metrics[key][1])
        return ab_bench.sim_stats(self.stdout(sim, campaign, metrics))

    def test_identical_runs(self):
        assert ab_bench.sim_diff(self.run(), self.run()) == []

    def test_host_time_keys_are_skipped(self):
        change = self.run(
            **{
                "bench.unattributed_share": 0.1,
                "bench.spans": 4000,
                "telemetry.overhead_share": 0.3,
                "wall_s": 1.2,
                "rounds_per_s": 50.0,
                "netsim.round_s": 0.5,
            }
        )
        assert ab_bench.sim_diff(self.run(), change) == []

    def test_simulated_keys_are_reported(self):
        change = self.run(
            **{"rule_fires": 901, "sim_rounds": 61, "scenarios.window_survival_share": 0.8}
        )
        assert ab_bench.sim_diff(self.run(), change) == [
            "detail.campaign.sim_rounds: 60 -> 61",
            "detail.sim.rule_fires: 900 -> 901",
            "scenarios.window_survival_share: 0.9 -> 0.8",
        ]

    def test_key_on_one_side_only(self):
        parent = {"detail.sim.fingerprint": "ab12"}
        assert ab_bench.sim_diff(parent, {}) == ["detail.sim.fingerprint: 'ab12' -> '<missing>'"]


class TestLayers:
    @staticmethod
    def stdout(metrics: dict) -> str:
        """A ``--trace 1`` run's last two lines."""
        cells = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        return json.dumps({"detail": {}}) + "\n" + json.dumps({"metrics": cells})

    def test_only_host_time_units_are_read(self):
        got = ab_bench.layer_stats(self.stdout({
            "netsim.round_s": (0.8, "s"),
            "core.us_per_step": (120.0, "us"),
            "netsim.round_calls": (60, "count"),
            "bench.unattributed_share": (0.2, "share"),
            "scenarios.recovery_rounds": (12, "rounds"),
        }))
        assert got == {"netsim.round_s": 0.8, "core.us_per_step": 120.0}

    def test_report_has_both_medians_and_the_ratio(self):
        parent = [{"core.rule3_s": v} for v in (1.0, 3.0, 2.0)]
        change = [{"core.rule3_s": v} for v in (0.5, 1.5, 1.0)]
        header, row = ab_bench.layer_report(parent, change).splitlines()
        assert header.split() == ["metric", "parent", "change", "ratio", "delta"]
        assert row.split() == ["core.rule3_s", "2.0000", "1.0000", "0.500", "-1.0000"]

    def test_a_metric_on_one_side_counts_as_zero_on_the_other(self):
        rows = ab_bench.layer_report([{"a_s": 1.0}], [{"b_s": 2.0}]).splitlines()[1:]
        assert [row.split() for row in rows] == [
            ["a_s", "1.0000", "0.0000", "0.000", "-1.0000"],
            ["b_s", "0.0000", "2.0000", "-", "+2.0000"],
        ]


class TestRouting:
    @pytest.fixture
    def sim_calls(self, monkeypatch):
        calls = []

        def fake_check_sim(command, workloads, rev):
            calls.append((workloads, rev))
            return 0

        monkeypatch.setattr(ab_bench, "check_sim", fake_check_sim)
        return calls

    def test_sim_checks_every_workload(self, sim_calls):
        assert ab_bench.main(["--sim"]) == 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        assert sim_calls == [([w["name"] for w in declared], "HEAD")]

    def test_sim_checks_only_the_named_workload(self, sim_calls):
        assert ab_bench.main(["--sim", "--workload", "fault_campaign", "--parent", "HEAD~1"]) == 0
        assert sim_calls == [(["fault_campaign"], "HEAD~1")]

    def test_ab_run_needs_a_workload(self, sim_calls, capsys):
        with pytest.raises(SystemExit) as exit_info:
            ab_bench.main([])
        assert exit_info.value.code == 2
        assert "--workload is required (unless --sim)" in capsys.readouterr().err
        assert sim_calls == []

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        calls = []

        def fake_check_layers(command, workload, seed, pairs, rev):
            calls.append((workload, seed, pairs, rev))
            return 0

        monkeypatch.setattr(ab_bench, "check_layers", fake_check_layers)
        return calls

    def test_layers_run_the_named_workload(self, layer_calls):
        assert ab_bench.main(["--layers", "--workload", "restabilize", "--pairs", "3"]) == 0
        assert ab_bench.main(["--layers", "--workload", "cold_stabilize", "--seed", "77",
                              "--parent", "HEAD~2"]) == 0
        assert layer_calls == [("restabilize", 2011, 3, "HEAD"), ("cold_stabilize", 77, 10, "HEAD~2")]

    @pytest.mark.parametrize("argv, message", [
        (["--layers"], "--workload is required (unless --sim)"),
        (["--layers", "--workload", "restabilize", "--pairs", "0"], "--pairs must be at least 1"),
        (["--layers", "--sim"], "--sim and --layers are separate runs"),
    ])
    def test_bad_layer_runs_rejected(self, layer_calls, sim_calls, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            ab_bench.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert layer_calls == [] and sim_calls == []

    def test_unknown_workload_rejected(self, sim_calls, capsys):
        with pytest.raises(SystemExit):
            ab_bench.main(["--sim", "--workload", "nope"])
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert sim_calls == []


END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def fake_run(attempted: float, scale: float = 1.0) -> dict:
    """One run's values as ``run_once`` returns them."""
    return {"setup_s": 0.5 * scale, "ops_per_s": 100.0 * scale, "op_success_share": 0.99,
            "peak_rss_mib": 70.0 * scale, "attempted": attempted}


def noted(text: str) -> list:
    """The metrics whose verdict block is followed by the work note."""
    names, current = [], None
    for line in text.splitlines():
        if not line.startswith(" "):
            current = line.split(" [", 1)[0]
        elif line.strip().startswith("note: the sides ran different seeded work"):
            names.append(current)
    return names


class TestWorkNote:
    def test_every_instance_averaged_metric_carries_the_note(self):
        text = ab_bench.ab_report(END_TO_END, [fake_run(48000)] * 3, [fake_run(60000)] * 3)
        assert noted(text) == ["setup_s", "op_success_share", "peak_rss_mib"]
        assert set(ab_bench.WORK_METRICS) == set(noted(text))

    def test_no_note_at_equal_work(self):
        text = ab_bench.ab_report(END_TO_END, [fake_run(48000)] * 3, [fake_run(48000, 1.1)] * 3)
        assert noted(text) == [] and "note:" not in text


class TestEqualWork:
    @pytest.fixture
    def argvs(self, monkeypatch, tmp_path):
        """Every benchmark argv a run passes to ``subprocess.run`` (which
        answers with a fake result line); no clone is made."""
        calls = []

        class Done:
            returncode = 0
            stderr = ""

            def __init__(self, argv):
                metrics = {k: {"value": v} for k, v in fake_run(1000).items() if k != "attempted"}
                self.stdout = json.dumps({"correct": True, "failed": 0, "attempted": 1000,
                                          "metrics": metrics})

        def fake_subprocess_run(argv, cwd=None, capture_output=False, text=False):
            calls.append(list(argv))
            return Done(argv)

        @contextlib.contextmanager
        def fake_checkout(rev):
            yield tmp_path

        monkeypatch.setattr(ab_bench.subprocess, "run", fake_subprocess_run)
        monkeypatch.setattr(ab_bench, "parent_checkout", fake_checkout)
        return calls

    @staticmethod
    def seconds(argv: list) -> str:
        return argv[argv.index("--seconds") + 1]

    def test_both_sides_run_seconds_zero(self, argvs, capsys):
        assert ab_bench.main(["--workload", "traffic_steady", "--equal-work", "--pairs", "2"]) == 0
        assert len(argvs) == 4 and {self.seconds(argv) for argv in argvs} == {"0"}
        assert all(argv[argv.index("--workload") + 1] == "traffic_steady" for argv in argvs)
        out = capsys.readouterr().out
        assert "equal-work runs (--seconds 0)" in out
        judged = [line.split(" [", 1)[0] for line in out.splitlines() if " is better]" in line]
        assert judged == ["setup_s", "op_success_share", "peak_rss_mib"]

    def test_default_runs_use_the_declared_seconds(self, argvs, capsys):
        assert ab_bench.main(["--workload", "restabilize", "--pairs", "1"]) == 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        assert [self.seconds(argv) for argv in argvs] == [str(declared)] * 2
        out = capsys.readouterr().out
        assert [line.split(" [", 1)[0] for line in out.splitlines() if " is better]" in line] == [
            m["name"] for m in END_TO_END
        ]

    @pytest.mark.parametrize("extra", [["--sim"], ["--layers"]])
    def test_equal_work_is_an_ab_run_only(self, argvs, capsys, extra):
        with pytest.raises(SystemExit) as exit_info:
            ab_bench.main(["--workload", "traffic_steady", "--equal-work", *extra])
        assert exit_info.value.code == 2
        assert "--equal-work is an A/B run" in capsys.readouterr().err
        assert argvs == []
