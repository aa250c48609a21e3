"""E-parallel -- the expansion engine's worker pool: jobs=1 vs jobs=2.

Measures ``CascadeSearch(kernel="vector")`` -- the relation-filtered,
hash-prefix-sharded expansion engine of :mod:`repro.core.kernel` -- on
the paper's full cost-7 closure (~6.9e5 cascades, parent tracking on)
in its two worker configurations:

* ``jobs=1``: candidates are composed in-process (the default).
* ``jobs=2``: pair-table composition + hashing fan out to a two-worker
  :class:`~repro.core.parallel.ComposePool` over shared scratch
  mappings; planning, the relation filter and dedup stay in the
  coordinator.  On a multi-core machine this can overlap composition;
  on a single-CPU runner it can only add IPC overhead, so the recorded
  ``cpus`` field is the context for the scaling number.

Both configurations must produce the golden level counts (asserted
here; full equivalence is pinned by tests/test_parallel.py), and the
pooled closure is saved through the streaming store writer and
re-verified with ``repro store verify`` semantics.  Timing is reported,
not gated: whether the pool pays for itself is decided on measured
multi-core evidence, not asserted per runner.

Runs are paired and the best time per configuration is reported.
Results land in ``BENCH_parallel.json`` at the repo root.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

or as a pytest module::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -s

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.search import CascadeSearch
from repro.core.store import save_search, verify_store
from repro.gates.library import GateLibrary

COST_BOUND = 7
ROUNDS = 3
#: The pinned |B[k]| sizes (see tests/test_golden_tables.py).
GOLDEN_B = (1, 18, 162, 1017, 5364, 25761, 118888, 538191)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _build(library: GateLibrary, jobs: int):
    started = perf_counter()
    search = CascadeSearch(
        library, track_parents=True, kernel_options={"jobs": jobs}
    )
    search.extend_to(COST_BOUND)
    elapsed = perf_counter() - started
    assert search.stats().level_sizes == GOLDEN_B, (
        f"jobs={jobs} drifted from the golden closure"
    )
    return elapsed, search


def measure() -> dict:
    """Paired closure builds + a streamed store write; returns numbers."""
    library = GateLibrary(3)
    # Warm-up pre-faults allocator pools for both configurations.
    for jobs in (1, 2):
        _, warm = _build(library, jobs)
        warm.close()
    jobs1_times: list[float] = []
    jobs2_times: list[float] = []
    for _ in range(ROUNDS):
        elapsed, search = _build(library, 1)
        jobs1_times.append(elapsed)
        search.close()
        elapsed, pooled = _build(library, 2)
        jobs2_times.append(elapsed)
        pooled.close()

    # The pooled closure must round-trip the streaming store writer and
    # survive a full verification pass.
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "bench_parallel.rpro"
        header = save_search(pooled, store_path)
        verify_store(store_path)
    assert tuple(header.level_sizes) == GOLDEN_B
    shards = dict(header.shards)

    jobs1_s = min(jobs1_times)
    jobs2_s = min(jobs2_times)
    numbers = {
        "cost_bound": COST_BOUND,
        "closure_size": int(sum(GOLDEN_B)),
        "jobs1_s": jobs1_s,
        "jobs2_s": jobs2_s,
        "jobs1_runs_s": [round(t, 4) for t in jobs1_times],
        "jobs2_runs_s": [round(t, 4) for t in jobs2_times],
        "speedup_jobs2": jobs1_s / jobs2_s,
        "cpus": os.cpu_count() or 1,
        "shard_bits": shards.get("shard_bits"),
        "golden_counts_identical": True,
        "store_verified": True,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2) + "\n")
    return numbers


def report(numbers: dict) -> str:
    return (
        f"cost bound:            {numbers['cost_bound']:10d}\n"
        f"closure size:          {numbers['closure_size']:10d}\n"
        f"cpus on this machine:  {numbers['cpus']:10d}\n"
        f"--jobs 1:              {numbers['jobs1_s'] * 1e3:10.1f} ms\n"
        f"--jobs 2:              "
        f"{numbers['jobs2_s'] * 1e3:10.1f} ms "
        f"({numbers['speedup_jobs2']:.2f}x)\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_pool_reproduces_goldens_and_reports_scaling():
    numbers = measure()
    print("\n" + report(numbers))
    assert numbers["golden_counts_identical"] and numbers["store_verified"]
    assert numbers["jobs1_s"] > 0 and numbers["jobs2_s"] > 0


if __name__ == "__main__":
    print(report(measure()))
    sys.exit(0)
