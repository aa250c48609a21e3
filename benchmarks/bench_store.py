"""E-store -- precompute-then-serve: store open and query latency.

Measures the point of the persistent closure store across both store
formats:

* **cold** synthesis pays for expanding the cascade closure on every
  call;
* a legacy **v1** store (read-to-migrate only; the input is written by
  the test encoder ``tests/legacy_v1.py``) is decoded eagerly into
  arrays and its remainder index rebuilt by scanning the closure;
* a **v2** store is memory-mapped with its remainder index serialized,
  so *open + first query* costs milliseconds -- O(queries touched), not
  O(closure);
* a **v3** store compresses each section per level and decompresses
  chunks on touch, so it keeps the v2 open/query shape at a fraction
  of the file size.

Acceptance bars: v2 open + first query <= 100 ms, v3 open + first
query <= 10 ms and a v3 file <= 0.5x the v2 size, and a >= 10x
per-query speedup of the warm store over cold search (in practice the
gap is 3-4 orders of magnitude).  Results are also written to
``BENCH_store.json`` at the repo root so performance is trendable
across PRs.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_store.py

or as a pytest module (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -s

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection, run explicitly or with ``-m benchmark``).
"""

from __future__ import annotations

import json
import platform
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.errors import CostBoundExceededError
from repro.core.batch import BatchSynthesizer
from repro.core.mce import express
from repro.core.search import CascadeSearch
from repro.core.store import load_search, open_store, save_search
from repro.gates import named
from repro.gates.library import GateLibrary
from repro.perm.permutation import Permutation

# The library only reads v1; the legacy encoder lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from legacy_v1 import write_v1  # noqa: E402

COST_BOUND = 7
N_COLD = 3
N_WARM = 200
OPEN_ROUNDS = 3

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _sample_targets(count: int, seed: int = 2005) -> list[Permutation]:
    """Named paper targets padded with random reversible functions."""
    targets = [named.TARGETS[k] for k in ("toffoli", "peres", "fredkin")]
    rnd = random.Random(seed)
    while len(targets) < count:
        images = list(range(8))
        rnd.shuffle(images)
        targets.append(Permutation.from_images(images))
    return targets[:count]


def measure(work_dir: Path) -> dict[str, float]:
    """Time cold search vs v1 eager load vs v2 memory-mapped serving."""
    library = GateLibrary(3)
    v1_path = work_dir / "closure_v1.rpro"
    v2_path = work_dir / "closure_v2.rpro"
    v3_path = work_dir / "closure_v3.rpro"

    # Precompute once (this is `repro precompute`).
    started = perf_counter()
    search = CascadeSearch(library, track_parents=True)
    search.extend_to(COST_BOUND)
    precompute_s = perf_counter() - started
    started = perf_counter()
    save_search(search, v2_path, format_version=2)
    save_v2_s = perf_counter() - started
    started = perf_counter()
    v3_header = save_search(search, v3_path, format_version=3)
    save_v3_s = perf_counter() - started
    write_v1(search, v1_path)

    # Cold: every query re-expands its own closure from scratch.
    cold_targets = _sample_targets(N_COLD)
    started = perf_counter()
    for target in cold_targets:
        express(target, library, cost_bound=COST_BOUND)
    cold_per_query = (perf_counter() - started) / len(cold_targets)

    # v1: eager decode + remainder-index scan on every open.
    started = perf_counter()
    v1_batch = BatchSynthesizer(load_search(v1_path, library))
    v1_batch.synthesize(named.TARGETS["toffoli"])
    v1_open_s = perf_counter() - started

    # v2: memory-mapped open, serialized index, O(touched) first query.
    v2_opens = []
    for _ in range(OPEN_ROUNDS):
        started = perf_counter()
        _header, _lib, loaded = open_store(v2_path)
        batch = BatchSynthesizer(loaded)
        result = batch.synthesize(named.TARGETS["toffoli"])
        v2_opens.append(perf_counter() - started)
        assert result.cost == 5
    v2_open_s = min(v2_opens)

    # v3: same open shape, chunks decompressed on touch.
    v3_opens = []
    for _ in range(OPEN_ROUNDS):
        started = perf_counter()
        _header, _lib, loaded3 = open_store(v3_path)
        batch3 = BatchSynthesizer(loaded3)
        result = batch3.synthesize(named.TARGETS["toffoli"])
        v3_opens.append(perf_counter() - started)
        assert result.cost == 5
    v3_open_s = min(v3_opens)

    # Warm per-query mix: every synthesizable target from a random
    # stream (cost-8+ functions exist; a server would triage them the
    # same way, via the index).
    warm_targets = []
    rnd = random.Random(7)
    while len(warm_targets) < N_WARM:
        images = list(range(8))
        rnd.shuffle(images)
        target = Permutation.from_images(images)
        try:
            batch.minimal_cost(target)
        except CostBoundExceededError:
            continue
        warm_targets.append(target)
    started = perf_counter()
    for target in warm_targets:
        batch.synthesize(target)
    warm_per_query = (perf_counter() - started) / len(warm_targets)

    numbers = {
        "cost_bound": COST_BOUND,
        "precompute_s": precompute_s,
        "save_v2_s": save_v2_s,
        "save_v3_s": save_v3_s,
        "store_v1_mb": v1_path.stat().st_size / 1e6,
        "store_v2_mb": v2_path.stat().st_size / 1e6,
        "store_v3_mb": v3_path.stat().st_size / 1e6,
        "v3_codec": v3_header.codec,
        "v3_size_ratio_vs_v2": (
            v3_path.stat().st_size / v2_path.stat().st_size
        ),
        "v1_open_first_query_s": v1_open_s,
        "v2_open_first_query_s": v2_open_s,
        "v3_open_first_query_s": v3_open_s,
        "v2_open_runs_s": [round(t, 5) for t in v2_opens],
        "v3_open_runs_s": [round(t, 5) for t in v3_opens],
        "open_speedup_v2_vs_v1": v1_open_s / v2_open_s,
        "cold_per_query_s": cold_per_query,
        "warm_per_query_s": warm_per_query,
        "speedup": cold_per_query / warm_per_query,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2) + "\n")
    return numbers


def report(numbers: dict[str, float]) -> str:
    return (
        f"precompute (once):        {numbers['precompute_s'] * 1e3:10.1f} ms\n"
        f"save v2 (once):           {numbers['save_v2_s'] * 1e3:10.1f} ms\n"
        f"save v3 (once):           {numbers['save_v3_s'] * 1e3:10.1f} ms\n"
        f"store size (v1/v2/v3):    {numbers['store_v1_mb']:7.1f} MB /"
        f"{numbers['store_v2_mb']:5.1f} MB /{numbers['store_v3_mb']:5.1f} MB"
        f"  (v3 = {numbers['v3_size_ratio_vs_v2']:.2f}x v2, "
        f"{numbers['v3_codec']})\n"
        f"v1 open + first query:    {numbers['v1_open_first_query_s'] * 1e3:10.1f} ms\n"
        f"v2 open + first query:    {numbers['v2_open_first_query_s'] * 1e3:10.1f} ms"
        f"   ({numbers['open_speedup_v2_vs_v1']:.0f}x)\n"
        f"v3 open + first query:    {numbers['v3_open_first_query_s'] * 1e3:10.1f} ms\n"
        f"cold query (search):      {numbers['cold_per_query_s'] * 1e3:10.2f} ms\n"
        f"warm query (store):       {numbers['warm_per_query_s'] * 1e6:10.2f} us\n"
        f"per-query speedup:        {numbers['speedup']:10.0f} x\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_v2_store_opens_in_100ms_and_warm_queries_are_10x(tmp_path):
    numbers = measure(tmp_path)
    print("\n" + report(numbers))
    assert numbers["v2_open_first_query_s"] <= 0.100, (
        f"v2 store open + first query took "
        f"{numbers['v2_open_first_query_s'] * 1e3:.1f} ms; the "
        "memory-mapped load path regressed past the 100 ms bar"
    )
    assert numbers["v3_open_first_query_s"] <= 0.010, (
        f"v3 store open + first query took "
        f"{numbers['v3_open_first_query_s'] * 1e3:.1f} ms; "
        "decompress-on-touch regressed past the 10 ms bar"
    )
    assert numbers["v3_size_ratio_vs_v2"] <= 0.5, (
        f"v3 store is {numbers['v3_size_ratio_vs_v2']:.2f}x the v2 size; "
        "compression stopped paying for itself (bar: <= 0.5x)"
    )
    assert numbers["speedup"] >= 10.0, (
        f"warm-store query only {numbers['speedup']:.1f}x faster than cold "
        "full search; the store is not paying for itself"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(report(measure(Path(tmp))))
    sys.exit(0)
