"""E-fleet -- routed-fleet overhead and fault-recovery timing.

Measures what the fleet layer costs and what it buys:

* **router overhead**: p50/p99 single-target latency through a
  2-replica fleet vs a direct single server over the same store -- the
  price of one extra hop, the ring lookup, and the breaker/in-flight
  bookkeeping;
* **routed batch identity**: a 64-target ``synth-batch`` through the
  router verified byte-identical to a local
  :meth:`BatchSynthesizer.synthesize_many` (the correctness bar);
* **failover recovery**: with a seeded ``exit-after`` chaos fault on
  the preferred replica, the wall time from the crash until the
  supervisor's ops log records the restart, and until re-admission --
  while a client keeps querying and must see **zero errors**.

Acceptance bars: routed results identical, zero client-visible errors
through the crash, recovery (restart logged) under 30 s, and routed
p50 latency within 25x of direct (generous: CI boxes are noisy and
the absolute numbers are tens of microseconds).  Results land in
``BENCH_fleet.json`` at the repo root so the overhead is trendable.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_fleet.py

or as a pytest module (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -s -m benchmark

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import pytest

from repro.client import ServeClient
from repro.core.batch import BatchSynthesizer
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.fleet.manager import BackgroundFleet
from repro.fleet.router import HashRing
from repro.fleet.supervisor import GuardRails
from repro.gates.library import GateLibrary
from repro.io import open_store, result_to_dict
from repro.server import BackgroundServer
from repro.telemetry import percentile

COST_BOUND = 4
N_WARM = 300
CRASH_AFTER = 8  # requests served by the faulty replica before os._exit
OVERHEAD_BAR = 25.0
RECOVERY_BAR_S = 30.0

_REPO_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _REPO_ROOT / "BENCH_fleet.json"


def _preferred_index(replicas: int = 2, key: str = "") -> int:
    ring = HashRing()
    for index in range(replicas):
        ring.add(f"backend-{index}")
    return int(ring.order(key)[0].rsplit("-", 1)[1])


def measure(work_dir: Path) -> dict:
    store_path = work_dir / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(COST_BOUND)
    save_search(search, store_path)

    _header, _library, loaded = open_store(store_path)
    local_batch = BatchSynthesizer(loaded)
    targets = []
    for cost in range(local_batch.cost_bound + 1):
        targets.extend(
            local_batch.targets_at_cost(cost, include_not_layers=True)
        )
    warm_specs = [
        target.cycle_string() for target in targets[:N_WARM]
    ]
    targets64 = targets[:64]
    want64 = [
        result_to_dict(result)
        for result in local_batch.synthesize_many(targets64)
    ]

    def timed_run(address: str) -> list[float]:
        latencies = []
        with ServeClient(address) as client:
            client.healthz()
            client.synth(warm_specs[0])  # warm
            for spec in warm_specs:
                started = perf_counter()
                client.synth(spec)
                latencies.append(perf_counter() - started)
        return latencies

    with BackgroundServer(str(store_path)) as single:
        direct = timed_run(single.address_text)

    with BackgroundFleet(
        str(store_path), replicas=2, port=0, interval=0.5
    ) as fleet:
        routed = timed_run(fleet.address_text)
        with ServeClient(fleet.address_text) as client:
            reply = client.synth_batch(
                [target.cycle_string() for target in targets64]
            )
        got64 = [entry["result"] for entry in reply["results"]]
        routed_identical = got64 == want64

    # Failover: crash the preferred replica under live traffic.
    crash_index = _preferred_index(replicas=2)
    client_errors = 0
    calls_through_crash = 0
    with BackgroundFleet(
        str(store_path),
        replicas=2,
        port=0,
        faults={crash_index: f"exit-after:{CRASH_AFTER}"},
        interval=0.2,
        guardrails=GuardRails(min_healthy=1, cooldown_s=0.3),
    ) as fleet:
        crashed = f"backend-{crash_index}"
        crash_started = perf_counter()
        with ServeClient(fleet.address_text, retries=2) as client:
            for spec in warm_specs[:128]:
                try:
                    client.synth(spec)
                except Exception:  # noqa: BLE001 -- counted, asserted 0
                    client_errors += 1
                calls_through_crash += 1
        restart_s = readmit_s = None
        deadline = time.monotonic() + RECOVERY_BAR_S + 15
        while time.monotonic() < deadline:
            story = {
                (record["finding"], record["action"])
                for record in fleet.supervisor.decisions
                if record.get("backend") == crashed and record.get("applied")
            }
            if restart_s is None and ("dead", "restart") in story:
                restart_s = perf_counter() - crash_started
            if ("recovered", "readmit") in story:
                readmit_s = perf_counter() - crash_started
                break
            time.sleep(0.1)

    numbers = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "store_cost_bound": COST_BOUND,
        "warm_queries": N_WARM,
        "direct_p50_s": percentile(direct, 0.50),
        "direct_p99_s": percentile(direct, 0.99),
        "direct_mean_s": statistics.mean(direct),
        "routed_p50_s": percentile(routed, 0.50),
        "routed_p99_s": percentile(routed, 0.99),
        "routed_mean_s": statistics.mean(routed),
        "router_overhead_p50_x": (
            percentile(routed, 0.50) / percentile(direct, 0.50)
        ),
        "batch64_identical_to_synthesize_many": routed_identical,
        "crash_after_requests": CRASH_AFTER,
        "calls_through_crash": calls_through_crash,
        "client_errors_through_crash": client_errors,
        "restart_logged_s": restart_s,
        "readmit_logged_s": readmit_s,
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2, sort_keys=True))
    return numbers


def report(numbers: dict) -> str:
    fmt = lambda value: (  # noqa: E731
        "n/a" if value is None else f"{value:.2f} s"
    )
    return (
        "fleet vs direct serving\n"
        f"direct p50/p99:   {numbers['direct_p50_s'] * 1e6:8.1f} / "
        f"{numbers['direct_p99_s'] * 1e6:8.1f} us\n"
        f"routed p50/p99:   {numbers['routed_p50_s'] * 1e6:8.1f} / "
        f"{numbers['routed_p99_s'] * 1e6:8.1f} us"
        f"   (overhead p50: {numbers['router_overhead_p50_x']:.1f}x)\n"
        f"64-target batch identical: "
        f"{numbers['batch64_identical_to_synthesize_many']}\n"
        f"crash run:        {numbers['calls_through_crash']} calls, "
        f"{numbers['client_errors_through_crash']} client errors\n"
        f"restart logged:   {fmt(numbers['restart_logged_s'])} after crash "
        f"start; readmit {fmt(numbers['readmit_logged_s'])}\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_fleet_overhead_identity_and_recovery(tmp_path):
    numbers = measure(tmp_path)
    print("\n" + report(numbers))
    assert numbers["batch64_identical_to_synthesize_many"], (
        "routed synth-batch diverged from BatchSynthesizer.synthesize_many"
    )
    assert numbers["client_errors_through_crash"] == 0, (
        f"{numbers['client_errors_through_crash']} client-visible errors "
        "while a replica crashed; failover must hide the fault"
    )
    assert numbers["restart_logged_s"] is not None, (
        "supervisor never logged the restart of the crashed replica"
    )
    assert numbers["restart_logged_s"] <= RECOVERY_BAR_S, (
        f"restart took {numbers['restart_logged_s']:.1f}s "
        f"(bar {RECOVERY_BAR_S:.0f}s)"
    )
    assert numbers["readmit_logged_s"] is not None, (
        "crashed replica was never re-admitted"
    )
    assert numbers["router_overhead_p50_x"] <= OVERHEAD_BAR, (
        f"router adds {numbers['router_overhead_p50_x']:.1f}x p50 latency "
        f"(bar {OVERHEAD_BAR:.0f}x)"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(report(measure(Path(tmp))))
    sys.exit(0)
