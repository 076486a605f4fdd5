#!/usr/bin/env python
"""Offline link checker for the documentation plane.

Validates every Markdown link in ``README.md`` and ``docs/*.md``:

* relative links must point at files that exist in the repository;
* ``#fragment`` parts must match a heading anchor in the target file
  (GitHub slug rules: lowercase, punctuation stripped, spaces to
  dashes);
* external ``http(s)`` links are listed but not fetched (CI has no
  business depending on the network);
* repository paths under ``benchmarks/``, ``examples/``, ``src/``,
  ``tests/`` and ``tools/`` named in inline code spans or code fences
  must exist (a glob pattern must match something), so a doc cannot
  name a deleted file;
* a ``Class.member`` inline code span whose class is defined under
  ``src/repro/`` must name a member of that class or of one of its bases
  (a static parse: methods, class attributes and ``self.`` attributes),
  and a bare private name in an inline code span (``_name`` or
  ``_name()``) must be defined somewhere under ``src/repro/`` (a ``def``
  or ``class``, an attribute or an assignment), so a doc cannot cite a
  deleted name.

Exits non-zero on the first class of broken links, printing all of
them.  ``tests/test_docs.py`` runs the same check per file.
"""

from __future__ import annotations

import ast
import builtins
import functools
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: inline markdown links: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: markdown headings (``# ...`` at line start, fenced blocks excluded)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

#: inline code spans: `text`
CODE_RE = re.compile(r"`([^`]+)`")

#: a repository path inside code (not the tail of a longer one: ``foo/src/x``)
PATH_RE = re.compile(r"(?<![\w./-])(?:benchmarks|examples|src|tests|tools)/[\w./*-]*")

#: ``Class.member`` inside code: a capitalized name, a dot, a member
MEMBER_RE = re.compile(r"(?<!\w)([A-Z]\w*)\.(\w+)")

#: a whole inline code span that is one private name: ``_name`` / ``_name()``
PRIVATE_RE = re.compile(r"(_\w+)(?:\(\))?")


def doc_files() -> List[Path]:
    """The documentation set: README plus everything under docs/."""
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # strip links
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: Path) -> Set[str]:
    """All anchor slugs defined by a markdown file's headings."""
    anchors: Set[str] = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(1)))
    return anchors


def extract_links(path: Path) -> List[str]:
    """All inline link targets of a markdown file (fences excluded)."""
    links: List[str] = []
    in_fence = False
    for line in path.read_text().splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        links.extend(LINK_RE.findall(line))
    return links


def code_strings(path: Path, fences: bool) -> List[str]:
    """A markdown file's code, in order: inline spans outside fences
    and, with ``fences``, whole lines inside them."""
    code: List[str] = []
    in_fence = False
    for line in path.read_text().splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            code.extend(CODE_RE.findall(line))
        elif fences:
            code.append(line)
    return code


def extract_paths(path: Path) -> List[str]:
    """Repository paths named in a markdown file's code: inline spans
    outside fences, whole lines inside them."""
    return [p.rstrip(".") for code in code_strings(path, True) for p in PATH_RE.findall(code)]


def _base_name(expr: ast.expr) -> str:
    """The class name a base expression refers to (``a.B[T]`` -> ``B``)."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return expr.id if isinstance(expr, ast.Name) else ""


@functools.lru_cache(maxsize=None)
def source_classes(root: Path) -> Dict[str, Tuple[Set[str], List[str]]]:
    """Class name -> (members, base names) of every class defined under
    ``src/repro/`` (same-named classes merge).  Members are what the
    class body defines and every ``self.``/``cls.`` attribute its
    methods assign."""
    classes: Dict[str, Tuple[Set[str], List[str]]] = {}
    for module in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = classes.setdefault(node.name, (set(), []))
            bases.extend(_base_name(base) for base in node.bases)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(stmt.name)
                targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                )
                members.update(t.id for t in targets if isinstance(t, ast.Name))
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id in ("self", "cls")
                ):
                    members.add(sub.attr)
    return classes


@functools.lru_cache(maxsize=None)
def source_names(root: Path) -> Set[str]:
    """Every name a ``def``, ``class``, attribute store, assignment or
    import alias under ``src/repro/`` defines."""
    names: Set[str] = set()
    for module in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def extract_private_names(path: Path) -> List[str]:
    """The bare private names a markdown file's inline code spans
    consist of (fences excluded)."""
    return [
        match.group(1)
        for code in code_strings(path, False)
        if (match := PRIVATE_RE.fullmatch(code.strip()))
    ]


def has_member(classes: Dict[str, Tuple[Set[str], List[str]]], name: str, member: str) -> bool:
    """Whether class ``name`` or a base defines ``member``; a base from
    outside the repository that is not a builtin cannot be checked and
    counts as defining it."""
    todo, seen = [name], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if cls in classes:
            members, bases = classes[cls]
            if member in members:
                return True
            todo.extend(bases)
        elif not isinstance(getattr(builtins, cls, None), type):
            return True
        elif hasattr(getattr(builtins, cls), member):
            return True
    return hasattr(object, member)


def extract_members(path: Path) -> List[Tuple[str, str]]:
    """``(class, member)`` pairs named in a markdown file's inline code
    spans (fences excluded)."""
    return [pair for code in code_strings(path, False) for pair in MEMBER_RE.findall(code)]


def check_file(path: Path) -> Tuple[List[str], List[str]]:
    """``(broken, external)`` links and code paths of one documentation file."""
    broken: List[str] = [
        f"{path.relative_to(ROOT)}: missing path {name}"
        for name in extract_paths(path)
        if not (any(ROOT.glob(name)) if "*" in name else (ROOT / name).exists())
    ]
    classes = source_classes(ROOT)
    broken.extend(
        f"{path.relative_to(ROOT)}: no member {cls}.{member}"
        for cls, member in extract_members(path)
        if cls in classes and not has_member(classes, cls, member)
    )
    defined = source_names(ROOT)
    broken.extend(
        f"{path.relative_to(ROOT)}: no definition of {name}"
        for name in extract_private_names(path)
        if name not in defined
    )
    external: List[str] = []
    for link in extract_links(path):
        if link.startswith(("http://", "https://", "mailto:")):
            external.append(link)
            continue
        target, _, fragment = link.partition("#")
        if target:
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                broken.append(f"{path.relative_to(ROOT)}: missing file {link}")
                continue
        else:
            resolved = path
        if fragment:
            if resolved.suffix != ".md":
                continue  # anchors into non-markdown files: not checked
            if fragment not in heading_anchors(resolved):
                broken.append(f"{path.relative_to(ROOT)}: missing anchor {link}")
    return broken, external


def main() -> int:
    files = doc_files()
    if not files:
        print("FAIL: no documentation files found")
        return 1
    all_broken: List[str] = []
    total_links = 0
    for path in files:
        broken, external = check_file(path)
        total_links += len(extract_links(path))
        all_broken.extend(broken)
        for url in external:
            print(f"  (external, unchecked) {path.relative_to(ROOT)}: {url}")
    if all_broken:
        for problem in all_broken:
            print(f"FAIL: {problem}")
        return 1
    print(f"OK: {total_links} links across {len(files)} files, none broken")
    return 0


if __name__ == "__main__":
    sys.exit(main())
