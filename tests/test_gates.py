"""The CI gate harness (``benchmarks/gates.py``): its case table and its
baseline file agree, a missing entry fails, and a case passes end to end."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
COMMITTED = json.loads((BENCHMARKS / "gates.json").read_text())


@pytest.fixture
def gates(monkeypatch):
    # registered as ``gates`` with its directory on sys.path: the spawned
    # child that measures a case unpickles the measure as ``gates.<name>``
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location("gates", BENCHMARKS / "gates.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "gates", module)
    spec.loader.exec_module(module)
    return module


def test_every_case_key_is_in_its_baseline_entry(gates):
    for name, case in gates.CASES.items():
        keys = [*case.exact, *([case.throughput] if case.throughput else [])]
        missing = [key for key in keys if key not in COMMITTED.get(name, {})]
        assert not missing, f"{name}: baseline entry lacks {missing}"


def test_every_baseline_entry_has_a_case(gates):
    assert set(COMMITTED) <= set(gates.CASES)


def test_missing_entry_fails_until_update_records_it(gates, monkeypatch, capsys, tmp_path):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps({"latency": {"sentinel": 1}}))
    monkeypatch.setattr(gates, "BASELINE_PATH", path)
    assert gates.main(["scenario"]) == 1
    assert "FAIL[scenario]: no baseline entry" in capsys.readouterr().out

    assert gates.main(["scenario", "--update"]) == 0
    written = json.loads(path.read_text())
    assert written["latency"] == {"sentinel": 1}
    # the campaign is seeded: a fresh measurement reproduces the committed census
    for key in gates.CASES["scenario"].exact:
        assert written["scenario"][key] == COMMITTED["scenario"][key], key


def test_scenario_case_passes_end_to_end(gates, capsys):
    assert gates.main(["scenario"]) == 0
    assert "OK[scenario]" in capsys.readouterr().out
