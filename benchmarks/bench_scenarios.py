"""E-scenarios -- the checked-in load scenarios as a benchmark suite.

Runs the scenario library (``scenarios/*.toml``) against a live
multi-store server -- a deep cost-5 store and a shallow cost-4 store
under the ``deep`` / ``shallow`` aliases every spec assumes -- and
records one report per scenario: client-side p50/p90/p99, error
classes, ``FLEET_OVERLOADED`` shed rate, throughput, and the SLO
verdict.  The same reports the CLI's ``repro load`` prints, produced
by the same :func:`repro.scenario.scenario_report` code path, so the
benchmark artifact and an operator's terminal never disagree.

Four scenarios ride by default:

* **steady_interactive** -- paced single-target queries, the
  interactive baseline whose p50/p99 bars are the ones to watch;
* **bursty_batch** -- synchronized ``synth-batch`` bursts, answered
  in chunks on the server's event loop;
* **hotkey_skew** -- 90/10 store-alias skew (one hot store);
* **pathological_cost_bounds** -- every query carries an over-tight
  ``cost_bound``; the *expected* failure class must stay structured
  (``cost-bound-exceeded``), allowed by the spec's own SLO.

Acceptance bars: every scenario passes its own ``[slo]`` table, and
the pathological scenario's errors are exclusively the allowed class.
Results land in ``BENCH_scenarios.json`` at the repo root so
per-scenario latency and shed rates are trendable across PRs.

Run standalone (prints the per-scenario reports)::

    PYTHONPATH=src python benchmarks/bench_scenarios.py

or as a pytest module (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -s

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection, run explicitly or with ``-m benchmark``).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from repro import scenario
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.gates.library import GateLibrary
from repro.server import BackgroundServer

COST_BOUND = 5  # the `deep` store: covers Toffoli
SHALLOW_BOUND = 4  # the `shallow` store: what the specs' pools need

#: Scenario names run by the benchmark, in run order.
SCENARIOS = (
    "steady_interactive",
    "bursty_batch",
    "hotkey_skew",
    "pathological_cost_bounds",
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SCENARIO_DIR = _REPO_ROOT / "scenarios"
_JSON_PATH = _REPO_ROOT / "BENCH_scenarios.json"


def _build_store(work_dir: Path, name: str, bound: int) -> Path:
    path = work_dir / f"{name}.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(bound)
    save_search(search, path)
    return path


def measure(work_dir: Path) -> dict:
    """Run every benchmark scenario; returns ``{name: report}``."""
    deep = _build_store(work_dir, "deep", COST_BOUND)
    shallow = _build_store(work_dir, "shallow", SHALLOW_BOUND)
    entries: dict[str, dict] = {}
    # Specs without a [stores] table send no selector, which a
    # multi-store registry rejects by design -- so they get a
    # single-store server, and alias-weighted specs get the two-store
    # registry they declare.
    with BackgroundServer(str(deep)) as single, BackgroundServer(
        [f"deep={deep}", f"shallow={shallow}"]
    ) as multi:
        for name in SCENARIOS:
            spec = scenario.load_scenario(_SCENARIO_DIR / f"{name}.toml")
            server = multi if spec.stores else single
            _plan, samples, wall_s = scenario.run_scenario(
                spec, server.address_text,
                timing=spec.arrival.shape != "closed",
            )
            health = scenario.snapshot(server.address_text)
            entries[name] = scenario.scenario_report(
                spec, samples, wall_s, server_health=health
            )
    scenario.write_bench(_JSON_PATH, entries)
    return entries


def report(entries: dict) -> str:
    lines = [scenario.format_report(entry) for entry in entries.values()]
    lines.append(f"(wrote {_JSON_PATH.name})")
    return "\n".join(lines)


@pytest.mark.benchmark
def test_every_scenario_passes_its_own_slo(tmp_path):
    entries = measure(tmp_path)
    print("\n" + report(entries))
    assert set(entries) == set(SCENARIOS)
    for name, entry in entries.items():
        assert entry["slo_pass"], (
            f"scenario {name} violated its SLO: {entry['slo_violations']}"
        )
    pathological = entries["pathological_cost_bounds"]
    assert set(pathological["errors"]) == {"cost-bound-exceeded"}, (
        "the pathological scenario must fail only with the structured "
        f"cost-bound code, got: {pathological['errors']}"
    )
    assert sum(pathological["errors"].values()) > 0, (
        "an over-tight cost_bound produced no errors at all -- the "
        "param is not reaching the service"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(report(measure(Path(tmp))))
    sys.exit(0)
