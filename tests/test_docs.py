"""Docs stay truthful: intra-repo links resolve, workflows stay named.

The link check is the same code the CI docs job runs
(``tools/check_links.py``); keeping it in tier-1 means a file rename
that orphans a README/docs link fails locally before it fails in CI.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import importlib.util

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIntraRepoLinks:
    def test_readme_and_docs_links_resolve(self):
        checker = _load_checker()
        offenders = checker.broken_links(
            [REPO_ROOT / "README.md", REPO_ROOT / "docs"]
        )
        assert offenders == [], "\n".join(
            f"{md}: broken link -> {target}" for md, target in offenders
        )

    def test_checker_catches_a_broken_link(self, tmp_path):
        checker = _load_checker()
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.py) for details\n")
        offenders = checker.broken_links([bad])
        assert offenders == [(bad, "no/such/file.py")]

    def test_cli_entry_point(self, tmp_path):
        ok = tmp_path / "ok.md"
        ok.write_text("plain text, [external](https://example.com), "
                      "[anchor](#here)\n")
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_links.py"),
                str(ok),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestDocsMentionTheWorkflows:
    """The README is organized around the three workflows."""

    def test_readme_covers_search_precompute_serve(self):
        text = (REPO_ROOT / "README.md").read_text()
        for needle in (
            "repro precompute",
            "repro serve",
            "--server",
            "perfbench/run.py",
            "BENCH_store.json",
            "BENCH_serve.json",
        ):
            assert needle in text, f"README lost its {needle!r} coverage"

    def test_architecture_maps_paper_to_modules(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in (
            "core/search.py",
            "core/kernel.py",
            "core/store.py",
            "core/batch.py",
            "server/",
            "level_row_offsets",
            "Theorem 2",
        ):
            assert needle in text, f"architecture.md lost {needle!r}"
