"""``tools/reach_census.py``: which functions of a toy package a driver
never runs, and when the census fails."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

TOY = '''
import functools


def used():
    return helper()


@functools.lru_cache(maxsize=None)
def helper():
    return 1


def unused():
    def inner():
        return 2

    return inner()


@functools.lru_cache(maxsize=None)
def cached_unused(x):
    return x


class Shape:
    def area(self):
        return 0

    def never(self):
        return -1


AT_IMPORT = used()
'''


def _load_census():
    spec = importlib.util.spec_from_file_location("reach_census", ROOT / "tools" / "reach_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach_census = _load_census()


def _toy(tmp_path, monkeypatch) -> pathlib.Path:
    """The toy package on the path, freshly importable; its module."""
    package = tmp_path / "src" / "census_toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(textwrap.dedent(TOY))
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    monkeypatch.delitem(sys.modules, "census_toy", raising=False)
    monkeypatch.delitem(sys.modules, "census_toy.shapes", raising=False)
    return package / "shapes.py"


def _census(tmp_path, monkeypatch):
    """The toy package's functions and what a driver reaches: it imports
    the package (module code runs under the hook) and calls one method."""
    _toy(tmp_path, monkeypatch)

    def drive():
        shapes = importlib.import_module("census_toy.shapes")
        shapes.Shape().area()

    hits = reach_census.reached(drive)
    found = reach_census.functions(tmp_path / "src")
    return found, reach_census.unreached(found, hits)


def test_unreached_functions_outermost_only(tmp_path, monkeypatch):
    found, missed = _census(tmp_path, monkeypatch)
    assert {f.name for f in found} >= {
        "census_toy.shapes.used", "census_toy.shapes.unused.<locals>.inner",
        "census_toy.shapes.Shape.area",
    }
    # called at import time or by the driver: reached (the decorated
    # ``helper`` too: a def starts at its first decorator); ``inner`` is
    # counted in ``unused``'s lines
    assert [(f.name, f.lines) for f in missed] == [
        ("census_toy.shapes.unused", 5),
        ("census_toy.shapes.cached_unused", 3),
        ("census_toy.shapes.Shape.never", 2),
    ]


def test_the_census_fails_on_an_unkept_or_stale_name(tmp_path, monkeypatch):
    found, missed = _census(tmp_path, monkeypatch)
    kept = {
        "census_toy.shapes.unused": "a reason",
        "census_toy.shapes.cached_unused": "a reason",
    }
    lines, failed = reach_census.report(missed, found, kept)
    assert failed
    assert [line.split()[:2] for line in lines if line.startswith("UNREACHED")] == [
        ["UNREACHED", "census_toy.shapes.Shape.never"]
    ]
    kept["census_toy.shapes.Shape.never"] = "a reason"
    lines, failed = reach_census.report(missed, found, kept)
    assert not failed
    assert lines[-1] == "7 functions, 3 unreached (10 lines), 0 outside KEPT (0 lines)"
    kept["census_toy.shapes.gone"] = "a reason"
    kept["census_toy.shapes.used"] = "a reason"
    lines, failed = reach_census.report(missed, found, kept)
    assert failed
    assert "STALE     census_toy.shapes.gone: KEPT names no function" in lines
    assert "note      census_toy.shapes.used: in KEPT but reached" in lines


def test_a_module_edited_during_the_run_fails_the_census(tmp_path, monkeypatch):
    """An edit mid-drive shifts the compiled line numbers away from the
    parsed ones: the census names the file instead of a false report."""
    shapes_py = _toy(tmp_path, monkeypatch)
    kept = {
        "census_toy.shapes.unused": "a reason",
        "census_toy.shapes.cached_unused": "a reason",
        "census_toy.shapes.Shape.never": "a reason",
    }

    def drive(edit: bool):
        def run():
            monkeypatch.delitem(sys.modules, "census_toy.shapes", raising=False)
            if edit:
                shapes_py.write_text("# two new lines\n\n" + shapes_py.read_text())
            importlib.import_module("census_toy.shapes").Shape().area()
        return run

    lines, failed = reach_census.census(tmp_path / "src", drive(False), kept)
    assert not failed and lines[-1].startswith("7 functions, 3 unreached")
    lines, failed = reach_census.census(tmp_path / "src", drive(True), kept)
    assert failed
    assert lines == [f"CHANGED   {shapes_py}: edited during the run, re-run the census"]
