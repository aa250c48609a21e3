#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

Reads the untraced results records (``*-trace0.json``) of a parent and
a change, as ``perfbench/run.py --trace 0`` writes them under
``.perfbench/results/``.  Runs pair up by workload and seed.  For each
workload and each end-to-end metric of ``BENCHMARK.json`` it prints:

* the parent's and the change's median, and the parent's quartile
  spread (IQR);
* the change's median relative to the parent's;
* how many pairs the change won (strictly better in its direction).

A metric whose change median is worse than the parent's by more than
its bound is flagged, as is a workload whose share of failed
operations rose; the exit status is 1 if anything is flagged.  Usage::

    python tools/bench_compare.py PARENT CHANGE [--benchmark FILE]

PARENT and CHANGE are results directories, or checkouts holding
``.perfbench/results/``.  Nothing is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> dict[tuple[str, int], dict]:
    """Untraced results records under *path*, keyed by (workload, seed)."""
    if (path / ".perfbench" / "results").is_dir():
        path = path / ".perfbench" / "results"
    records = {}
    for file in sorted(path.glob("*-trace0.json")):
        record = json.loads(file.read_text())
        records[record["workload"], record["seed"]] = record
    if not records:
        raise SystemExit(f"bench_compare: no *-trace0.json records in {path}")
    return records


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def compare(
    parent: dict[tuple[str, int], dict],
    change: dict[tuple[str, int], dict],
    metrics: list[dict],
) -> tuple[list[dict], list[str]]:
    """One row per (workload, metric) and the list of flagged findings.

    *metrics* are BENCHMARK.json's ``end_to_end`` entries: ``name``,
    ``better`` (``lower`` or ``higher``) and ``bound`` (a fraction).
    """
    rows, flagged = [], []
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        ours = {s: r for (w, s), r in parent.items() if w == workload}
        theirs = {s: r for (w, s), r in change.items() if w == workload}
        if not ours or not theirs:
            flagged.append(f"{workload}: runs on one side only")
            continue
        pairs = sorted(ours.keys() & theirs.keys())
        for metric in metrics:
            name = metric["name"]
            # sign * (after - before) < 0 means the change did better.
            sign = 1 if metric["better"] == "lower" else -1
            before = [r["end_to_end"][name] for r in ours.values()]
            after = [r["end_to_end"][name] for r in theirs.values()]
            med_before = statistics.median(before)
            med_after = statistics.median(after)
            relative = (
                (med_after - med_before) / med_before if med_before else 0.0
            )
            won = sum(
                sign * (theirs[s]["end_to_end"][name]
                        - ours[s]["end_to_end"][name]) < 0
                for s in pairs
            )
            row = dict(
                workload=workload, metric=name, parent=med_before,
                change=med_after, parent_iqr=_quartile_spread(before),
                relative=relative, won=won, pairs=len(pairs),
                bound=metric["bound"], worse=sign * relative > metric["bound"],
            )
            rows.append(row)
            if row["worse"]:
                flagged.append(
                    f"{workload} {name}: {relative:+.1%} is worse than its "
                    f"{metric['bound']:.0%} bound"
                )
        shares = [
            sum(r["failed"] for r in side.values())
            / max(1, sum(r["attempted"] for r in side.values()))
            for side in (ours, theirs)
        ]
        if shares[1] > shares[0]:
            flagged.append(
                f"{workload}: failed operations rose from {shares[0]:.2%} "
                f"to {shares[1]:.2%}"
            )
    return rows, flagged


def render(rows: list[dict]) -> str:
    header = ("workload", "metric", "parent", "(iqr)", "change", "rel",
              "won", "bound")
    lines = [header]
    for row in rows:
        lines.append((
            row["workload"], row["metric"], f"{row['parent']:.4g}",
            f"({row['parent_iqr']:.3g})", f"{row['change']:.4g}",
            f"{row['relative']:+.1%}", f"{row['won']}/{row['pairs']}",
            f"{row['bound']:.0%}" + ("  WORSE" if row["worse"] else ""),
        ))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(map(str.ljust, line, widths)).rstrip() for line in lines
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Exit status: 0 inside every bound, 1 if anything is flagged.",
    )
    parser.add_argument("parent", type=Path, help="parent results directory")
    parser.add_argument("change", type=Path, help="change results directory")
    parser.add_argument(
        "--benchmark", type=Path, default=REPO_ROOT / "BENCHMARK.json",
        help="benchmark declaration with the end-to-end bounds "
        "(default: the checkout's BENCHMARK.json)",
    )
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    rows, flagged = compare(
        load_records(args.parent), load_records(args.change), metrics
    )
    print(render(rows))
    for finding in flagged:
        print(f"FLAGGED: {finding}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
