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
  name a deleted file.

Exits non-zero on the first class of broken links, printing all of
them.  ``tests/test_docs.py`` runs the same check per file.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: inline markdown links: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: markdown headings (``# ...`` at line start, fenced blocks excluded)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

#: inline code spans: `text`
CODE_RE = re.compile(r"`([^`]+)`")

#: a repository path inside code (not the tail of a longer one: ``foo/src/x``)
PATH_RE = re.compile(r"(?<![\w./-])(?:benchmarks|examples|src|tests|tools)/[\w./*-]*")


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


def extract_paths(path: Path) -> List[str]:
    """Repository paths named in a markdown file's code: inline spans
    outside fences, whole lines inside them."""
    paths: List[str] = []
    in_fence = False
    for line in path.read_text().splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        for code in [line] if in_fence else CODE_RE.findall(line):
            paths.extend(p.rstrip(".") for p in PATH_RE.findall(code))
    return paths


def check_file(path: Path) -> Tuple[List[str], List[str]]:
    """``(broken, external)`` links and code paths of one documentation file."""
    broken: List[str] = [
        f"{path.relative_to(ROOT)}: missing path {name}"
        for name in extract_paths(path)
        if not (any(ROOT.glob(name)) if "*" in name else (ROOT / name).exists())
    ]
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
