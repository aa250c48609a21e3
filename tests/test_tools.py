"""Every script in ``tools/`` parses its arguments.

CI calls these scripts with arguments; running each one's ``--help``
here means an import error or a broken parser fails tier-1 before it
fails a CI job.
"""

from __future__ import annotations

import importlib.util
import json
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


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchCompare:
    """tools/bench_compare.py on synthetic perfbench results records."""

    METRICS = [
        {"name": "precompute_s", "better": "lower", "bound": 0.25},
        {"name": "targets_per_s", "better": "higher", "bound": 0.25},
    ]

    @staticmethod
    def _write(directory, workload, values, failed=0):
        directory.mkdir(parents=True, exist_ok=True)
        for seed, (precompute, rate) in enumerate(values, start=1):
            record = {
                "workload": workload, "seed": seed, "attempted": 100,
                "failed": failed,
                "end_to_end": {"precompute_s": precompute,
                               "targets_per_s": rate},
            }
            name = f"{workload}-seed{seed}-trace0.json"
            (directory / name).write_text(json.dumps(record))
        # A traced record of the same run is not an end-to-end sample.
        (directory / f"{workload}-seed1-trace1.json").write_text("{}")

    def _run(self, tmp_path, parent, change, failed=0):
        tool = _load_tool("bench_compare")
        self._write(tmp_path / "parent", "w", parent)
        self._write(tmp_path / "change", "w", change, failed)
        benchmark = tmp_path / "BENCHMARK.json"
        benchmark.write_text(json.dumps({"end_to_end": self.METRICS}))
        return tool, tool.main([
            str(tmp_path / "parent"), str(tmp_path / "change"),
            "--benchmark", str(benchmark),
        ])

    def test_medians_relative_change_and_pairs_won(self, tmp_path, capsys):
        tool, status = self._run(
            tmp_path,
            parent=[(2.0, 100.0), (2.2, 110.0), (2.1, 90.0)],
            change=[(1.6, 95.0), (1.7, 120.0), (2.3, 100.0)],
        )
        assert status == 0
        rows, flagged = tool.compare(
            tool.load_records(tmp_path / "parent"),
            tool.load_records(tmp_path / "change"),
            self.METRICS,
        )
        assert not flagged
        precompute, rate = rows
        assert (precompute["parent"], precompute["change"]) == (2.1, 1.7)
        assert precompute["relative"] == pytest.approx(-0.4 / 2.1)
        assert (precompute["won"], precompute["pairs"]) == (2, 3)
        # Higher is better: seeds 2 and 3 gained, seed 1 lost.
        assert (rate["won"], rate["relative"]) == (2, 0.0)
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:2] == ["workload", "metric"]
        assert "2/3" in out and "FLAGGED" not in out

    def test_flags_a_metric_worse_than_its_bound(self, tmp_path, capsys):
        _, status = self._run(
            tmp_path,
            parent=[(2.0, 100.0), (2.0, 100.0)],
            change=[(2.6, 70.0), (2.6, 80.0)],
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "FLAGGED: w precompute_s: +30.0% is worse than its 25% bound" in out
        assert "FLAGGED: w targets_per_s: -25.0%" not in out
        assert "WORSE" in out

    def test_flags_more_failed_operations(self, tmp_path, capsys):
        _, status = self._run(
            tmp_path, parent=[(2.0, 100.0)], change=[(2.0, 100.0)], failed=1
        )
        assert status == 1
        assert "failed operations rose" in capsys.readouterr().out
