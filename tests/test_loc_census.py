"""``tools/loc_census.py``: every line falls in exactly one class."""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "tests" / "fixtures" / "census_sample.py"


def _load_census():
    spec = importlib.util.spec_from_file_location("loc_census", ROOT / "tools" / "loc_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc_census = _load_census()


def test_the_sample_module_by_class():
    source = SAMPLE.read_text(encoding="utf-8")
    counts = loc_census.census(source)
    # docstrings: module (lines 1-3), class (10), method (16-18);
    # comments: lines 5 and 19; blanks: 4, 7, 8 (whitespace only), 11,
    # 14, 21, 22; code: the other ten, the import with a trailing
    # comment and the strings that are no docstring included
    assert counts == {"code": 10, "docstring": 7, "comment": 2, "blank": 7}
    assert sum(counts.values()) == len(source.splitlines())
    assert loc_census.docstring_lines(source) == {1, 2, 3, 10, 16, 17, 18}


def test_main_prints_a_row_per_module_and_the_total(capsys):
    assert loc_census.main([str(SAMPLE), str(SAMPLE)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4
    assert rows[1].split()[:5] == ["10", "7", "2", "7", "26"]
    assert rows[-1].split() == ["20", "14", "4", "14", "52", "total"]
