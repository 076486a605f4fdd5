"""``src/`` imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this holds the code
to it.  A fresh interpreter imports every ``repro`` module, and each
top-level module that adds beyond what a bare interpreter loads must be
a stdlib module or ``repro`` itself.  An optional ``try: import ...``
counts too: where the package is installed, it loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LIST = 'sys.stdout.write("\\n".join(sys.modules))'

_IMPORT_ALL = f"""
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
{_LIST}
"""


def _top_level_modules(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    return {name.partition(".")[0] for name in out.split()}


def test_src_imports_only_the_stdlib():
    bare = _top_level_modules(f"import sys; {_LIST}")
    loaded = _top_level_modules(_IMPORT_ALL)
    assert "repro" in loaded
    foreign = sorted(
        name for name in loaded - bare
        if name != "repro" and name not in sys.stdlib_module_names
    )
    assert foreign == [], f"src/ imports non-stdlib modules: {foreign}"
