"""E-serve -- long-lived service vs per-invocation CLI latency.

Measures the point of ``repro serve``: once the v2 store opens in
milliseconds, the remaining per-query cost of ``repro synth --store``
is *process lifecycle* -- interpreter startup, imports, store open,
one query, exit.  A long-lived server pays that once, so the marginal
query is a socket round trip against a warm, frozen closure.

Five measurements:

* **per-invocation CLI**: wall time of ``python -m repro synth toffoli
  --store ...`` subprocesses (the workflow the server replaces);
* **warm server, sequential**: p50/p99/mean latency of single-target
  queries over one persistent NDJSON connection;
* **warm server, concurrent**: aggregate throughput with several
  client threads in flight (one event loop answering them all);
* **64-target batch**: one ``synth-batch`` call, verified **identical**
  to a local :meth:`BatchSynthesizer.synthesize_many` over the same
  store -- the correctness bar for the whole serving stack;
* **multi-store / UNIX socket**: one process serving two stores
  (routed per request by alias) over TCP *and* a UNIX socket with an
  access log attached -- per-alias latency on both transports, routed
  results verified identical to a local synthesizer per store, and the
  server's own ``healthz`` queue-wait/latency percentiles captured.

Acceptance bars: warm-server per-query latency >= 50x better than the
per-invocation CLI, the 64-target batch identity, and per-alias
multi-store identity over both transports.  Results land in
``BENCH_serve.json`` at the repo root so performance is trendable
across PRs.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_serve.py

or as a pytest module (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection, run explicitly or with ``-m benchmark``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import pytest

from repro.client import ServeClient
from repro.core.batch import BatchSynthesizer
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.gates.library import GateLibrary
from repro.io import open_store, result_to_dict
from repro.server import BackgroundServer
from repro.telemetry import percentile

COST_BOUND = 5  # covers Toffoli; precompute stays a couple of seconds
SHALLOW_BOUND = 4  # the second registry store in the multi-store scenario
N_CLI = 3
N_WARM = 400
N_MULTI = 200  # per-alias queries in the multi-store/UNIX scenario
N_THREADS = 4
N_PER_THREAD = 100
SPEEDUP_BAR = 50.0

_REPO_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _REPO_ROOT / "BENCH_serve.json"


def _batch_targets(batch: BatchSynthesizer, count: int) -> list:
    """*count* in-bound targets spread over every cost level (S8 coset)."""
    targets = []
    for cost in range(batch.cost_bound + 1):
        targets.extend(batch.targets_at_cost(cost, include_not_layers=True))
        if len(targets) >= count:
            break
    return targets[:count]


def measure(work_dir: Path) -> dict:
    """Time per-invocation CLI vs warm-server serving over one store."""
    store_path = work_dir / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(COST_BOUND)
    save_search(search, store_path)

    # Per-invocation CLI: what every query costs without a server.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    cli_times = []
    for _ in range(N_CLI):
        started = perf_counter()
        subprocess.run(
            [
                sys.executable, "-m", "repro", "synth", "toffoli",
                "--store", str(store_path),
            ],
            check=True,
            capture_output=True,
            env=env,
        )
        cli_times.append(perf_counter() - started)
    cli_per_invocation = statistics.mean(cli_times)

    # Ground truth for the identity check.
    _header, _library, loaded = open_store(store_path)
    local_batch = BatchSynthesizer(loaded)
    targets64 = _batch_targets(local_batch, 64)
    want64 = [
        result_to_dict(result)
        for result in local_batch.synthesize_many(targets64)
    ]
    warm_specs = [
        target.cycle_string()
        for target in _batch_targets(local_batch, N_WARM)
    ]

    with BackgroundServer(str(store_path)) as server:
        with ServeClient(server.address_text) as client:
            client.healthz()  # connection + code paths warm
            client.synth("toffoli")

            # Sequential warm latency.
            latencies = []
            for spec in warm_specs:
                started = perf_counter()
                client.synth(spec)
                latencies.append(perf_counter() - started)

            # One 64-target batch; identity against synthesize_many.
            started = perf_counter()
            reply = client.synth_batch(
                [target.cycle_string() for target in targets64]
            )
            batch64_s = perf_counter() - started
            got64 = [entry["result"] for entry in reply["results"]]
            batch_identical = got64 == want64

        # Concurrent throughput (one client per thread).
        def worker(out: list) -> None:
            with ServeClient(server.address_text) as handle:
                for i in range(N_PER_THREAD):
                    handle.synth(warm_specs[i % len(warm_specs)])
            out.append(True)

        done: list = []
        threads = [
            threading.Thread(target=worker, args=(done,))
            for _ in range(N_THREADS)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent_s = perf_counter() - started
        assert len(done) == N_THREADS

    multi = _measure_multi_store(work_dir, store_path, local_batch)

    warm_mean = statistics.mean(latencies)
    numbers = {
        "cost_bound": COST_BOUND,
        "cli_per_invocation_s": cli_per_invocation,
        "cli_runs_s": [round(t, 4) for t in cli_times],
        "warm_queries": len(latencies),
        "warm_mean_s": warm_mean,
        "warm_p50_s": percentile(latencies, 0.50),
        "warm_p99_s": percentile(latencies, 0.99),
        "warm_throughput_rps": 1.0 / warm_mean,
        "concurrent_threads": N_THREADS,
        "concurrent_queries": N_THREADS * N_PER_THREAD,
        "concurrent_throughput_rps": N_THREADS * N_PER_THREAD / concurrent_s,
        "batch64_s": batch64_s,
        "batch64_identical_to_synthesize_many": batch_identical,
        "speedup_vs_cli": cli_per_invocation / warm_mean,
        "multi_store": multi,
        "python": platform.python_version(),
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2) + "\n")
    return numbers


def _measure_multi_store(
    work_dir: Path, deep_path: Path, deep_batch: BatchSynthesizer
) -> dict:
    """One process, two stores, TCP + UNIX socket, access log attached.

    Routed single-target answers are verified identical to a local
    :class:`BatchSynthesizer` over the matching store/bound, per alias,
    on both transports.
    """
    from repro.io import load_access_log, parse_target

    shallow_path = work_dir / "shallow.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(SHALLOW_BOUND)
    save_search(search, shallow_path)
    _h, _l, shallow_loaded = open_store(shallow_path)
    shallow_batch = BatchSynthesizer(shallow_loaded)

    specs = {
        "deep": [t.cycle_string() for t in _batch_targets(deep_batch, N_MULTI)],
        "shallow": [
            t.cycle_string()
            for t in _batch_targets(shallow_batch, N_MULTI)
        ],
    }
    sock = str(work_dir / "serve.sock")
    log = str(work_dir / "access.ndjson")
    latencies: dict = {}
    identical = True
    with BackgroundServer(
        [f"deep={deep_path}", f"shallow={shallow_path}"],
        unix=sock,
        access_log=log,
    ) as server:
        endpoints = {"tcp": server.address_text, "unix": f"unix:{sock}"}
        locals_ = {"deep": deep_batch, "shallow": shallow_batch}
        for transport, endpoint in endpoints.items():
            for alias, spec_list in specs.items():
                with ServeClient(endpoint, store=alias) as client:
                    client.healthz()
                    samples = []
                    for spec in spec_list:
                        started = perf_counter()
                        payload = client.synth(spec)
                        samples.append(perf_counter() - started)
                        local = locals_[alias].synthesize(parse_target(spec))
                        if payload["results"][0] != result_to_dict(local):
                            identical = False
                    latencies[f"{transport}_{alias}_p50_s"] = percentile(
                        samples, 0.50
                    )
        with ServeClient(endpoints["tcp"]) as client:
            health = client.healthz()
    records = load_access_log(log)
    return {
        "aliases": sorted(health["stores"]),
        "routed_identical_to_local": identical,
        "queries_per_alias_per_transport": N_MULTI,
        **{key: latencies[key] for key in sorted(latencies)},
        "access_log_records": len(records),
        "healthz_latency_ms": health["latency_ms"].get("synth"),
        "healthz_queue_wait_ms": health["queue_wait_ms"].get("synth"),
    }


def report(numbers: dict) -> str:
    return (
        f"CLI per invocation:        {numbers['cli_per_invocation_s'] * 1e3:10.1f} ms\n"
        f"warm query p50 / p99:      {numbers['warm_p50_s'] * 1e6:10.1f} us /"
        f"{numbers['warm_p99_s'] * 1e6:8.1f} us\n"
        f"warm throughput:           {numbers['warm_throughput_rps']:10.0f} q/s\n"
        f"concurrent throughput:     {numbers['concurrent_throughput_rps']:10.0f} q/s"
        f"   ({numbers['concurrent_threads']} threads)\n"
        f"64-target batch:           {numbers['batch64_s'] * 1e3:10.1f} ms"
        f"   (identical: {numbers['batch64_identical_to_synthesize_many']})\n"
        f"speedup vs CLI:            {numbers['speedup_vs_cli']:10.0f} x\n"
        f"multi-store (2 aliases):   tcp p50 "
        f"{numbers['multi_store']['tcp_deep_p50_s'] * 1e6:.1f} us / unix p50 "
        f"{numbers['multi_store']['unix_deep_p50_s'] * 1e6:.1f} us"
        f"   (routed identical: "
        f"{numbers['multi_store']['routed_identical_to_local']}, "
        f"{numbers['multi_store']['access_log_records']} access-log records)\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_warm_server_is_50x_cli_and_batch_is_identical(tmp_path):
    numbers = measure(tmp_path)
    print("\n" + report(numbers))
    assert numbers["batch64_identical_to_synthesize_many"], (
        "synth-batch results diverged from BatchSynthesizer.synthesize_many"
    )
    assert numbers["speedup_vs_cli"] >= SPEEDUP_BAR, (
        f"warm server only {numbers['speedup_vs_cli']:.1f}x faster than "
        f"per-invocation CLI; the serving stack regressed past the "
        f"{SPEEDUP_BAR:.0f}x bar"
    )
    multi = numbers["multi_store"]
    assert multi["routed_identical_to_local"], (
        "multi-store routing returned results that differ from a local "
        "BatchSynthesizer over the matching store"
    )
    assert multi["aliases"] == ["deep", "shallow"]
    # Every routed request (plus the healthz warmups/snapshot) logged.
    assert multi["access_log_records"] >= 4 * multi[
        "queries_per_alias_per_transport"
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(report(measure(Path(tmp))))
    sys.exit(0)
