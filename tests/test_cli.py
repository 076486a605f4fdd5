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

    def test_scenario_help_lists_every_time_model_kind(self, capsys):
        from repro.netsim.timemodel import DAEMON_KINDS, DELIVERY_KINDS

        with pytest.raises(SystemExit) as exit_:
            main(["scenario", "--help"])
        assert exit_.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for kinds in (DELIVERY_KINDS, DAEMON_KINDS):
            assert f"({', '.join(kinds)})" in help_text

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
            (["scenario", "--spec", {"events": [
                {"at": 1, "kind": "crash_wave", "params": {"count": 1}},
                {"at": 2, "kind": "crash_wave", "params": {"count": 1, "bogus": 1}}]}],
             "event 1: params: unknown parameter 'bogus' for crash_wave"),
            (["traffic", "--collector", "list"],
             "unrecognized arguments: --collector list"),
            (["baseline", "--sizes", "3"], "baseline: --sizes must be >= 4"),
            (["all", "--sizes", "2"], "baseline: --sizes must be >= 4"),
            (["scenario", "--spec", {"max_recovery_rounds": "9"}],
             "max_recovery_rounds must be an integer, got '9' (str)"),
            (["scenario", "seam-crash", "--latency-model", "constant:delay=2.5"],
             "delay must be an integer, got 2.5 (float)"),
            (["scenario", "seam-crash", "--daemon", "round_robin:groups=2.5"],
             "groups must be an integer, got 2.5 (float)"),
            (["scenario", "seam-crash", "--latency-model", '{"kind": "lognormal", "cap": true}'],
             "cap must be an integer, got True (bool)"),
            (["scenario", "seam-crash", "--daemon", "partial:p=0.5,p=0.9"],
             "repeated parameter 'p'"),
            (["scenario", "seam-crash", "--latency-model", "cross_cut:side_a=1"],
             "side_a must be a collection of peer ids, got 1 (int)"),
            (["scenario", "seam-crash", "--latency-model", '{"kind": "cross_cut", "side_a": [1.5]}'],
             "side_a entry must be an integer, got 1.5 (float)"),
            (["scenario", "seam-crash", "--daemon", "unfair:bound=3,seed=1.5"],
             "seed must be an integer, got 1.5 (float)"),
            (["scenario", "--spec", {"traffic": {"rate": float("nan")}}],
             "rate must be finite, got nan"),
            (["scenario", "--spec", {"traffic": {"rate": float("inf")}}],
             "rate must be finite, got inf"),
            (["scenario", "--spec", {"traffic": {"rate": True}}],
             "rate must be a number, got True (bool)"),
            (["scenario", "--spec", {"traffic": {"zipf_s": float("nan")}}],
             "zipf_s must be finite, got nan"),
            (["scenario", "--spec", {"traffic": {"op_mix": [["lookup", float("nan")]]}}],
             "op weight of 'lookup' must be finite, got nan"),
            (["scenario", "--spec", {"traffic": {"op_mix": [["put", float("-inf")]]}}],
             "op weight of 'put' must be finite, got -inf"),
            (["scenario", "--spec", {"traffic": {"key_universe": 2.5}}],
             "key_universe must be an integer, got 2.5 (float)"),
            (["scenario", "--spec", {"events": [5]}], "event 0: event must be an object, got 5"),
            (["scenario", "--spec", {"events": {"a": 1}}],
             "events must be a list, got {'a': 1}"),
            (["scenario", "--spec", {"latency": [1]}], "latency must be an object, got [1]"),
            (["scenario", "--spec", [1, 2]], "scenario must be an object, got [1, 2]"),
            (["scenario", "--spec", {"traffic": "lots"}], "traffic must be an object, got 'lots'"),
            (["scenario", "--spec", {"traffic": {"op_mix": {"lookup": -1}}}],
             "op_mix must be a list of [op, weight] pairs, got {'lookup': -1}"),
            (["scenario", "--spec", {"bogus": 1}],
             "scenario: unknown field(s) ['bogus']; allowed: ['daemon', 'description'"),
            (["scenario", "--spec", {"name": 5}], "name must be a string, got 5 (int)"),
            (["scenario", "flash-crowd", "--all"], "scenario: NAME and --all exclude each other"),
            (["scenario", "flash-crowd", "--spec", "/nonexistent.json"],
             "scenario: NAME and --spec exclude each other"),
            (["scenario", "--all", "--seed", "3"], "scenario: --all ignores --seed"),
            (["scenario", "--all", "--telemetry"], "scenario: --all ignores --telemetry"),
            (["scenario", "--all", "--sketch-quantiles", "0.5"],
             "scenario: --all ignores --sketch-quantiles"),
            (["scenario", "--list", "--n", "8", "--daemon", "full"],
             "scenario: --list ignores --n, --daemon"),
        ],
    )
    def test_bad_input_is_a_diagnostic_not_a_traceback(self, argv, message, capsys, tmp_path):
        """A dict in ``argv`` is a spec override, written to a file, and
        a list a whole spec document: each malformed section or
        out-of-range knob is rejected when the spec is parsed."""
        path = tmp_path / "spec.json"
        if "MALFORMED" in argv:
            path.write_text('{"name": "x", ')
            argv = [str(path) if a == "MALFORMED" else a for a in argv]
        elif isinstance(argv[-1], (dict, list)):
            spec = {"name": "x", "n": 8, "seed": 1, "rounds": 4, "traffic": {}}
            for field, value in argv[-1].items() if isinstance(argv[-1], dict) else ():
                traffic = field == "traffic" and isinstance(value, dict)
                spec[field] = {**spec[field], **value} if traffic else value
            path.write_text(json.dumps(spec if isinstance(argv[-1], dict) else argv[-1]))
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
            ["observe", "--traces", "-2"],
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

    def test_zero_traces_prints_none(self, capsys):
        assert main(["observe", "--n", "8", "--traces", "0"]) == 0
        out = capsys.readouterr().out
        assert "hop traces (0 of" in out and "  op " not in out

    def test_observe_prints_the_carried_share(self, capsys):
        assert main(["observe", "--n", "16", "--traces", "0"]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if "carried level share" in l]
        assert "rule3 " in line and "apply_inbox " in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["observe", "--n", "8", "--dump", "{tmp}/missing/x.jsonl"],
            ["scenario", "flash-crowd", "--n", "8", "--out", "{tmp}/a-file/x"],
        ],
        ids=["dump", "out"],
    )
    def test_unwritable_destination_is_refused_before_the_run(
        self, argv, monkeypatch, capsys, tmp_path
    ):
        import repro.scenarios

        runs = _spy(monkeypatch, repro.scenarios, "run_scenario")
        (tmp_path / "a-file").write_text("")
        argv = [a.format(tmp=tmp_path) for a in argv]
        flag = argv[-2]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert runs == [] and captured.out == ""
        assert captured.err.startswith(f"rechord: error: {flag} {argv[-1]}: cannot write there")
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



def _seam_crash_report(capsys, *flags):
    """The ``--json`` report of a tiny seam-crash run under ``flags``."""
    assert main(["scenario", "seam-crash", "--n", "6", "--seed", "3", "--json", *flags]) == 0
    return json.loads(capsys.readouterr().out[: -len("\n\n")])


#: every ``--latency-model`` and ``--daemon`` kind, written out so that a
#: kind added to the registries without a CLI run here fails a test
LATENCY_KINDS = ("constant", "cross_cut", "lognormal", "regions", "reorder", "slow_links", "unit")
DAEMON_KINDS = ("full", "partial", "round_robin", "unfair")


class TestTimeModelFlags:
    """Each delivery model and daemon kind stays because the CLI can
    select it: a run under each one completes and ends in a different
    configuration than the paper's model, unless the kind's defaults
    coincide with it (``cross_cut`` with an empty cut, ``full``)."""

    #: kinds whose default parameters are the synchronous model itself
    SAME_AS_PAPER = ("unit", "cross_cut", "full")

    @pytest.fixture(scope="class")
    def paper_digest(self):
        from repro.scenarios import make_scenario, run_scenario

        return run_scenario(make_scenario("seam-crash", n=6, seed=3)).config_digest

    @pytest.mark.parametrize("kind", LATENCY_KINDS)
    def test_every_latency_model_kind_runs(self, kind, capsys, paper_digest):
        report = _seam_crash_report(capsys, "--latency-model", kind)
        assert report["stable"] is True and report["ideal"] is True
        assert (report["config_digest"] == paper_digest) is (kind in self.SAME_AS_PAPER)
        assert (report["slo"]["wire_delay_max"] > 1) is (kind not in self.SAME_AS_PAPER)

    @pytest.mark.parametrize("kind", DAEMON_KINDS)
    def test_every_daemon_kind_runs(self, kind, capsys, paper_digest):
        report = _seam_crash_report(capsys, "--daemon", kind)
        assert report["n"] == 6 and report["peers_final"] == 4
        assert report["stable"] is True and report["ideal"] is True
        assert (report["config_digest"] == paper_digest) is (kind in self.SAME_AS_PAPER)

    @pytest.mark.parametrize(
        "flags",
        [
            # once reported stable while not ideal: a round that woke no
            # peer with work compared equal to the one before
            ("--n", "6", "--seed", "3", "--daemon", "unfair"),
            # once never stable: the healed run is a cycle of period 2
            ("--n", "12", "--daemon", "round_robin"),
        ],
        ids=["unfair-n6-false-stable", "round-robin-n12-never-stable"],
    )
    def test_daemon_recovery_is_stable_and_ideal(self, flags, capsys):
        assert main(["scenario", "seam-crash", "--json", *flags]) == 0
        report = json.loads(capsys.readouterr().out[: -len("\n\n")])
        assert report["stable"] is True and report["ideal"] is True
        assert 0 <= report["recovery_rounds"] < 50

    def test_unstable_recovery_is_named_as_such(self, capsys, tmp_path):
        from repro.scenarios import make_scenario

        spec_file = tmp_path / "spec.json"
        spec = make_scenario("seam-crash", n=6, seed=3).with_overrides(max_recovery_rounds=1)
        spec_file.write_text(spec.to_json())
        assert main(["scenario", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "not stable within 1 recovery rounds (stable=False" in out
        assert "recovery in" not in out

    def test_the_kind_lists_match_the_registries(self):
        from repro.netsim import timemodel

        assert sorted(LATENCY_KINDS) == sorted(timemodel.DELIVERY_KINDS)
        assert sorted(DAEMON_KINDS) == sorted(timemodel.DAEMON_KINDS)


class TestCommittedResults:
    """The committed scenario tables are a record of the code: the
    command that writes them reproduces them byte for byte.  (The
    traffic table takes over a minute, so it is not rerun here.)"""

    def test_scenario_tables_regenerate(self, tmp_path, capsys):
        import pathlib

        results = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        assert main(["scenario", "--all", "--n", "32", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in ("scenarios.txt", "scenarios.json"):
            assert (tmp_path / name).read_bytes() == (results / name).read_bytes(), name
