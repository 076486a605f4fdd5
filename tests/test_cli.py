"""CLI wiring (python -m repro / rechord console script)."""

from __future__ import annotations

import json

import pytest

import repro.cli
import repro.experiments.resilience
import repro.experiments.scenarios
from repro.cli import main
from repro.experiments.resilience import format_resilience, run_to_json
from repro.experiments.scenarios import format_scenarios, reports_to_json
from repro.experiments.traffic import format_traffic, runs_to_json


def _spy(monkeypatch, module, name):
    """Wrap ``module.name`` so the runs the CLI computes are kept."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, spy)
    return calls


def _written(directory, name):
    return tuple((directory / f"{name}.{ext}").read_text() for ext in ("txt", "json"))


def _json_file(data):
    return json.dumps(data, indent=2) + "\n"


class TestOut:
    """``--out DIR`` writes exactly the library's table and JSON forms
    of the run the command printed."""

    def test_traffic(self, monkeypatch, tmp_path, capsys):
        calls = _spy(monkeypatch, repro.cli, "run_traffic")
        assert main(["traffic", "--sizes", "12", "--out", str(tmp_path)]) == 0
        (runs,) = calls
        text, data = _written(tmp_path, "traffic_churn")
        assert text == format_traffic(runs) + "\n"
        assert data == _json_file(runs_to_json(runs))
        assert capsys.readouterr().out == text + "\n"

    def test_scenario_sweep(self, monkeypatch, tmp_path, capsys):
        calls = _spy(monkeypatch, repro.experiments.scenarios, "run_scenarios")
        assert main(["scenario", "--all", "--n", "16", "--out", str(tmp_path)]) == 0
        (reports,) = calls
        text, data = _written(tmp_path, "scenarios")
        assert text == format_scenarios(reports) + "\n"
        assert data == _json_file(reports_to_json(reports))
        assert capsys.readouterr().out == text + "\n"

    def test_resilience(self, monkeypatch, tmp_path, capsys):
        calls = _spy(monkeypatch, repro.experiments.resilience, "run_resilience")
        assert main(["resilience", "--n", "64", "--out", str(tmp_path)]) == 0
        (run,) = calls
        assert run.n == 64 and run.seed == repro.cli.DEFAULT_ROOT_SEED
        text, data = _written(tmp_path, "resilience")
        assert text == format_resilience(run) + "\n"
        assert data == _json_file(run_to_json(run))
        assert capsys.readouterr().out == text + "\n"


class TestCli:
    def test_fig6_tiny(self, capsys):
        code = main(["fig6", "--sizes", "4", "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Fig. 6" in captured.out

    def test_lookup_tiny(self, capsys):
        code = main(["lookup", "--sizes", "6", "--seeds", "1"])
        assert code == 0
        assert "Fact 2.1" in capsys.readouterr().out

    def test_messages(self, capsys):
        code = main(["messages", "--n", "6"])
        assert code == 0
        assert "message complexity" in capsys.readouterr().out

    def test_root_seed_changes_nothing_structural(self, capsys):
        assert main(["--root-seed", "77", "fig6", "--sizes", "4", "--seeds", "1"]) == 0

    def test_economy_tiny(self, capsys):
        code = main(["economy", "--sizes", "6", "--seeds", "1"])
        assert code == 0
        assert "economical" in capsys.readouterr().out

    def test_asynchrony_tiny(self, capsys):
        code = main(["asynchrony", "--sizes", "5", "--seeds", "1"])
        assert code == 0
        assert "activation" in capsys.readouterr().out

    def test_usability_tiny(self, capsys):
        code = main(["usability", "--n", "8"])
        assert code == 0
        assert "Routability" in capsys.readouterr().out

    def test_phases_tiny(self, capsys):
        code = main(["phases", "--sizes", "5", "--seeds", "1"])
        assert code == 0
        assert "Lemmas" in capsys.readouterr().out

    def test_traffic_tiny(self, capsys):
        code = main(["traffic", "--sizes", "10", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds-since-churn" in out
        assert "violations" in out

    def test_scenario_list(self, capsys):
        code = main(["scenario", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        # the acceptance bar: at least eight named scenarios are listed
        from repro.scenarios import scenario_names

        names = scenario_names()
        assert len(names) >= 8
        for name in names:
            assert name in out
        assert "docs/SCENARIOS.md" in out

    def test_scenario_run_tiny(self, capsys):
        code = main(["scenario", "seam-crash", "--n", "10", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario: seam-crash" in out
        assert "recovery in" in out
        assert "traffic:" in out

    def test_scenario_json_output(self, capsys):
        import json

        code = main(["scenario", "flash-crowd", "--n", "10", "--seed", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out[: -len("\n\n")])
        assert report["name"] == "flash-crowd"
        assert report["stable"] is True

    def test_scenario_from_spec_file(self, capsys, tmp_path):
        from repro.scenarios import make_scenario

        path = tmp_path / "spec.json"
        path.write_text(make_scenario("crash-wave", n=10, seed=4).to_json())
        code = main(["scenario", "--spec", str(path)])
        assert code == 0
        assert "Scenario: crash-wave" in capsys.readouterr().out

    def test_scenario_requires_name_or_flag(self, capsys):
        assert main(["scenario"]) == 2
        assert "give a name, --spec FILE, --all, or --list" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scenario", "seam-crash", "--latency-model", "bogus"],
             "unknown delivery model 'bogus'"),
            (["scenario", "seam-crash", "--latency-model", "constant:delay=x"],
             "bad parameter 'delay=x' (expected a number)"),
            (["scenario", "seam-crash", "--daemon", "partial:p=7"],
             "activation probability must be in (0, 1]"),
            (["scenario", "nope"], "unknown scenario 'nope'; choose from"),
            (["scenario", "--spec", "/nonexistent.json"], "No such file"),
            (["scenario", "--spec", "MALFORMED"], "--spec"),
            (["scenario", "--spec", {"traffic": {"deadline": 0}}],
             "deadline must be >= 1, got 0"),
            (["scenario", "--spec", {"traffic": {"rate": -1}}],
             "rate must be non-negative"),
            (["scenario", "--spec", {"traffic": {"max_attempts": 0}}],
             "max_attempts must be >= 1"),
            (["scenario", "--spec", {"traffic": {"key_universe": 0}}],
             "need at least one key"),
            (["scenario", "--spec", {"traffic": {"popularity": "nope"}}],
             "unknown popularity 'nope'"),
            (["scenario", "--spec", {"traffic": {"op_mix": [["nope", 1.0]]}}],
             "unknown op 'nope' in mix"),
            (["scenario", "--spec", {"traffic": {"sketch_quantiles": [1.5]}}],
             "quantile must be in (0, 1), got 1.5"),
            (["scenario", "--spec", {"events": [{"at": 1, "kind": "nope"}]}],
             "unknown event kind 'nope'"),
            (["traffic", "--collector", "list"],
             "unrecognized arguments: --collector list"),
            (["baseline", "--sizes", "3"], "baseline: --sizes must be >= 4"),
            (["all", "--sizes", "2"], "baseline: --sizes must be >= 4"),
        ],
    )
    def test_bad_input_is_a_diagnostic_not_a_traceback(self, argv, message, capsys, tmp_path):
        """A dict in ``argv`` is a spec override, written to a file: each
        out-of-range knob is rejected when the spec is parsed."""
        path = tmp_path / "spec.json"
        if "MALFORMED" in argv:
            path.write_text('{"name": "x", ')
            argv = [str(path) if a == "MALFORMED" else a for a in argv]
        elif isinstance(argv[-1], dict):
            spec = {"name": "x", "n": 8, "seed": 1, "rounds": 4, "traffic": {}}
            for field, value in argv[-1].items():
                spec[field] = {**spec[field], **value} if field == "traffic" else value
            path.write_text(json.dumps(spec))
            argv = [*argv[:-1], str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rechord: error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["traffic", "--max-attempts", "0"],
            ["traffic", "--route-redundancy", "0"],
            ["traffic", "--hedge-after", "0"],
            ["traffic", "--sketch-quantiles", "1.5"],
            ["scenario", "seam-crash", "--n", "0"],
            ["scenario", "seam-crash", "--sketch-quantiles", "1.5"],
            ["observe", "--n", "0"],
            ["observe", "--trace-sample", "0"],
            ["scaling", "--sizes", "0"],
            ["scaling", "--seeds", "0"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_option_is_a_diagnostic_not_a_traceback(self, argv, capsys):
        flag = next(a for a in argv if a.startswith("--"))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be" in captured.err
        assert "Traceback" not in captured.err

    # 'incremental' is the retired engine: both --engine flags reject it
    @pytest.mark.parametrize("command", ["messages", "observe"])
    @pytest.mark.parametrize("engine", ['incremental', "vectorized"])
    def test_unknown_engine_is_rejected(self, command, engine, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--engine", engine])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--engine: invalid choice: '{engine}'" in captured.err
        assert "'full', 'columnar'" in captured.err
        assert "Traceback" not in captured.err

