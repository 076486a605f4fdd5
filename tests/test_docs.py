"""The documentation plane must stay honest.

Two enforcement layers, both part of the tier-1 suite:

* every ``>>>`` snippet in README.md and docs/*.md is executed as a
  doctest (so quickstarts cannot rot);
* every relative Markdown link and anchor resolves, every repo path
  named in code exists, and every ``Class.member`` code span names a
  member of its class (``tools/check_docs.py``).
"""

from __future__ import annotations

import doctest
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [ROOT / "README.md", *(ROOT / "docs").glob("*.md")],
)


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocs:
    def test_documentation_files_exist(self):
        for required in ("README.md", "docs/ARCHITECTURE.md", "docs/SCENARIOS.md"):
            assert (ROOT / required).exists(), f"{required} is missing"

    def test_readme_points_at_docs(self):
        readme = (ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SCENARIOS.md" in readme

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_doc_snippets_execute(self, path):
        failures, tests = doctest.testfile(
            str(path), module_relative=False, verbose=False
        )
        assert failures == 0, f"{tests - failures}/{tests} doctests passed in {path.name}"

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_no_broken_links_or_anchors(self, path):
        checker = _load_checker()
        broken, _external = checker.check_file(path)
        assert not broken, "\n".join(broken)

    def test_code_paths_must_exist(self, tmp_path, monkeypatch):
        checker = _load_checker()
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "kept.py").write_text("")
        doc = tmp_path / "README.md"
        doc.write_text(
            "`tools/kept.py`, `tools/*.py`, `tools/gone.py` and `tests/*.py`\n"
            "```\npython examples/gone.py\n```\n"
        )
        broken, _external = checker.check_file(doc)
        assert broken == [
            "README.md: missing path tools/gone.py",
            "README.md: missing path tests/*.py",
            "README.md: missing path examples/gone.py",
        ]

    def test_class_members_must_exist(self, tmp_path, monkeypatch):
        checker = _load_checker()
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "kernel.py").write_text(
            "class Base:\n"
            "    LIMIT = 3\n"
            "    def run(self):\n"
            "        self._state = 0\n"
            "class Kernel(Base):\n"
            "    size: int\n"
            "    def step(self):\n"
            "        pass\n"
            "class Flow(list):\n"
            "    pass\n"
        )
        doc = tmp_path / "README.md"
        doc.write_text(
            "`Kernel.step()`, `Kernel.run`, `Kernel.LIMIT`, `Kernel._state`,\n"
            "`Kernel.size`, `Flow.append`, `Kernel.SHARE`, `x.Flow.gone`;\n"
            "`Other.anything` is not defined here\n"
            "```\nKernel.fenced\n```\n"
        )
        broken, _external = checker.check_file(doc)
        assert broken == [
            "README.md: no member Kernel.SHARE",
            "README.md: no member Flow.gone",
        ]

    def test_private_names_must_be_defined(self, tmp_path, monkeypatch):
        checker = _load_checker()
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "kernel.py").write_text(
            "from time import perf_counter as _perf\n"
            "_LIMIT = 3\n"
            "class Kernel:\n"
            "    def _step(self):\n"
            "        self._dirty = set()\n"
        )
        doc = tmp_path / "README.md"
        doc.write_text(
            "`_step()`, `_dirty`, `_LIMIT`, `_perf`, `_gone`, `_retired()`;\n"
            "`x._hidden` and `_a + _b` are not bare names\n"
            "```\n_fenced\n```\n"
        )
        broken, _external = checker.check_file(doc)
        assert broken == [
            "README.md: no definition of _gone",
            "README.md: no definition of _retired",
        ]

    #: public-API modules whose docstring examples must keep executing
    DOCTEST_MODULES = (
        "repro.core.network",
        "repro.traffic.plane",
        "repro.traffic.generator",
        "repro.traffic.slo",
        "repro.chord.routing",
        "repro.dht.lookup",
        "repro.scenarios.spec",
        "repro.scenarios.library",
        "repro.telemetry",
        "repro.telemetry.recorder",
        "repro.telemetry.report",
        "repro.telemetry.tracing",
        "repro.netsim.timemodel",
    )

    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_public_api_docstring_examples_execute(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        failures, tests = doctest.testmod(module, verbose=False)
        assert tests > 0, f"{module_name} lost its doctest examples"
        assert failures == 0, f"{failures}/{tests} doctests failed in {module_name}"

    def test_scenarios_doc_covers_whole_library(self):
        """Every named scenario must be documented, and vice versa."""
        from repro.scenarios import scenario_names

        text = (ROOT / "docs" / "SCENARIOS.md").read_text()
        for name in scenario_names():
            assert f"### `{name}`" in text, f"scenario {name!r} undocumented"

    def test_architecture_doc_names_every_package(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        src = ROOT / "src" / "repro"
        packages = sorted(
            p.name for p in src.iterdir() if p.is_dir() and (p / "__init__.py").exists()
        )
        for package in packages:
            assert f"{package}/" in text, f"package {package!r} missing from the module map"
