#!/usr/bin/env python3
"""Fail on broken intra-repo links in markdown files.

Scans the given markdown files/directories for inline links and images
(``[text](target)``), resolves every relative target against the
containing file, and exits non-zero listing any target that does not
exist.  External links (``http(s)://``, ``mailto:``) and pure anchors
(``#section``) are skipped; ``path#anchor`` targets are checked for the
path part only.

Usage (what the CI docs job runs)::

    python tools/check_links.py README.md docs

Also importable: ``broken_links(paths)`` returns the offending
``(file, target)`` pairs, which ``tests/test_docs.py`` asserts empty.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: Inline markdown links/images; deliberately simple -- the repo's docs
#: do not use reference-style links or angle-bracket destinations.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_markdown(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.md`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.md"))
        elif path.suffix == ".md":
            files.add(path)
        else:
            raise SystemExit(f"not a markdown file or directory: {path}")
    return sorted(files)


def broken_links(paths: list[Path]) -> list[tuple[Path, str]]:
    """All ``(markdown file, unresolvable relative target)`` pairs."""
    broken: list[tuple[Path, str]] = []
    for md_file in iter_markdown(paths):
        text = md_file.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (md_file.parent / relative).exists():
                broken.append((md_file, target))
    return broken


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on broken intra-repo links in markdown files."
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        default=[Path("README.md"), Path("docs")],
        help="markdown files or directories (default: README.md docs)",
    )
    paths = parser.parse_args(argv).paths
    offenders = broken_links(paths)
    if offenders:
        for md_file, target in offenders:
            print(f"{md_file}: broken link -> {target}", file=sys.stderr)
        return 1
    checked = len(iter_markdown(paths))
    print(f"checked {checked} markdown file(s): all intra-repo links resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
