"""One precompute in a fresh process: the calls ``repro precompute`` makes.

Usage: ``python3 perfbench/precompute_child.py --qubits 4 --cost 5
--out STORE [--levels]``.  With its defaults ``repro precompute``
builds ``GateLibrary(n)`` under the unit cost model, expands a
parent-tracking ``CascadeSearch`` with the vector kernel and writes the
store with ``save_search`` in the default format; this child does the
same, then reopens the file once with ``open_store``.  ``--levels``
extends one level at a time (the same work as one ``extend_to``) so
each level can be timed.

Prints one JSON line: ``CLOCK_MONOTONIC`` stamps (comparable with the
parent's), phase times, memory and the level sizes before and after
the reopen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--qubits", type=int, required=True)
    parser.add_argument("--cost", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--levels", action="store_true")
    args = parser.parse_args()

    from repro.core.cost import CostModel
    from repro.core.search import CascadeSearch
    from repro.gates.library import GateLibrary
    from repro.io import open_store, save_search

    lib_start = time.perf_counter()
    library = GateLibrary(args.qubits)
    lib_s = time.perf_counter() - lib_start
    lib_done = time.monotonic()

    cost_model = CostModel(v_cost=1, vdag_cost=1, cnot_cost=1)
    rss_before = _rss_mb()
    start = time.perf_counter()
    search = CascadeSearch(
        library, cost_model, track_parents=True, kernel="vector",
        kernel_options={},
    )
    levels_s: dict[int, float] = {}
    if args.levels:
        for level in range(1, args.cost + 1):
            level_start = time.perf_counter()
            search.extend_to(level)
            levels_s[level] = time.perf_counter() - level_start
    else:
        search.extend_to(args.cost)
    extended = time.perf_counter()
    rss_held = _rss_mb() - rss_before
    stats = search.stats()
    try:
        header = save_search(search, args.out)
    finally:
        search.close()
    written = time.perf_counter()

    open_start = time.perf_counter()
    reopened, _library, _search = open_store(args.out)
    open_s = time.perf_counter() - open_start

    print(json.dumps({
        "lib_done": lib_done,
        "lib_s": lib_s,
        "levels_s": levels_s,
        "extend_s": extended - start,
        "write_s": written - extended,
        "precompute_s": written - start,
        "open_s": open_s,
        "rss_held_mb": rss_held,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "store_bytes": os.path.getsize(args.out),
        "format_version": header.format_version,
        "n_gates": len(library.gates),
        "level_sizes": list(stats.level_sizes),
        "reopened_level_sizes": list(reopened.level_sizes),
    }))


if __name__ == "__main__":
    sys.exit(main())
