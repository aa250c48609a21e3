"""Every script in ``tools/`` parses its arguments.

CI calls these scripts with arguments; running each one's ``--help``
here means an import error or a broken parser fails tier-1 before it
fails a CI job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((REPO_ROOT / "tools").glob("*.py"))


def test_tools_directory_has_scripts():
    assert TOOLS


@pytest.mark.parametrize("script", TOOLS, ids=[tool.stem for tool in TOOLS])
def test_tool_help_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:"), result.stdout
