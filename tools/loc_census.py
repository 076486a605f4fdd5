#!/usr/bin/env python
"""Line census of the Python sources: code, docstring, comment, blank.

Every line of a module falls in exactly one class, tried in this order:

* **docstring** — inside a module, class or function docstring (every
  line the string spans, blank ones included);
* **comment** — otherwise, its first non-blank character is ``#``;
* **blank** — otherwise, empty or whitespace only;
* **code** — everything else.

Prints one row per module under the given paths (default: ``src/``)
and a total row.  ROADMAP's line counts use this census.

Usage::

    python tools/loc_census.py                 # every module under src/
    python tools/loc_census.py src/repro/core  # one package
    python tools/loc_census.py src/repro/core/rules_batched.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> Set[int]:
    """The 1-based numbers of the lines the source's docstrings span."""
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def census(source: str) -> Dict[str, int]:
    """``{class: line count}`` of one module's source."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def modules(paths: Iterable[Path]) -> List[Path]:
    """The ``.py`` files named or found under ``paths``, sorted."""
    found: List[Path] = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: List[str]) -> int:
    paths = [Path(p) for p in argv] or [ROOT / "src"]
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'code':>7} {'doc':>7} {'comment':>7} {'blank':>7} {'total':>7}  module")
    for path in modules(paths):
        counts = census(path.read_text(encoding="utf-8"))
        for name in CLASSES:
            total[name] += counts[name]
        try:
            shown = path.resolve().relative_to(ROOT)
        except ValueError:
            shown = path
        print(*(f"{counts[c]:>7}" for c in CLASSES), f"{sum(counts.values()):>7}  {shown}")
    print(*(f"{total[c]:>7}" for c in CLASSES), f"{sum(total.values()):>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
