"""Scenario reporting: stats, SLO bars, and the BENCH artifact.

:func:`summarize` reduces a run's :class:`~repro.scenario.workload
.ScenarioSample` list to the per-scenario counters every serving PR is
judged on -- request/op counts, error classes, ``FLEET_OVERLOADED``
shed rate, client-side p50/p90/p99 (via the *same*
:func:`~repro.telemetry.percentile_summary` ``repro tail`` uses, so the
two are byte-comparable) and throughput.

:func:`check_slo` turns a spec's ``[slo]`` table into a list of
violation messages (empty = pass).  Semantics:

* ``p50_ms`` / ``p99_ms`` bound the measured client-side latency
  percentiles of *all* requests (errors included -- a fast error is
  still an answer).
* ``max_error_rate`` bounds ``errors / requests`` where errors exclude
  ``allowed_error_codes`` (a pathological-cost-bound scenario expects
  ``cost-bound-exceeded``) and exclude shed requests.
* ``max_shed_rate`` bounds ``shed / requests`` separately: shedding is
  a structured refusal by a healthy fleet, budgeted on its own.

:func:`snapshot` grabs a server's (or fleet front's) healthz payload
before/after a run, so reports can carry the server-side histogram
percentiles and -- against a router -- backend/breaker/shed state
(the same payload ``repro fleet status --json`` prints).

:func:`write_bench` appends per-scenario entries into
``BENCH_scenarios.json`` (one object keyed by scenario name), the
artifact ``benchmarks/bench_scenarios.py`` emits.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.client import http_request
from repro.errors import ServerError
from repro.telemetry import percentile_summary

from .spec import ScenarioSpec, SloBars
from .workload import ScenarioSample

_SHED = "FLEET_OVERLOADED"


def summarize(
    samples: list[ScenarioSample], wall_s: float | None = None
) -> dict:
    """Per-scenario counters from one run's samples (see module doc)."""
    ops = Counter(sample.op for sample in samples)
    outcomes = Counter(
        sample.outcome for sample in samples if sample.outcome != "ok"
    )
    shed = outcomes.pop(_SHED, 0)
    latencies = [sample.latency_s for sample in samples]
    total = len(samples)
    stats = {
        "requests": total,
        "ok": total - shed - sum(outcomes.values()),
        "errors": dict(sorted(outcomes.items())),
        "shed": shed,
        "shed_rate": round(shed / total, 6) if total else 0.0,
        "ops": dict(sorted(ops.items())),
        "latency_ms": percentile_summary(latencies, scale=1e3),
    }
    if wall_s is not None and wall_s > 0:
        stats["wall_s"] = round(wall_s, 4)
        stats["throughput_rps"] = round(total / wall_s, 2)
    return stats


def error_rate(stats: dict, allowed: tuple[str, ...] = ()) -> float:
    """``errors / requests`` excluding *allowed* codes (and shed)."""
    total = stats["requests"]
    if not total:
        return 0.0
    counted = sum(
        count for code, count in stats["errors"].items()
        if code not in allowed
    )
    return counted / total


def check_slo(slo: SloBars, stats: dict) -> list[str]:
    """Violation messages for *stats* against *slo* (empty = pass)."""
    violations: list[str] = []
    latency = stats.get("latency_ms") or {}
    for bar, name in ((slo.p50_ms, "p50"), (slo.p99_ms, "p99")):
        if bar is None:
            continue
        measured = latency.get(name)
        if measured is None:
            violations.append(f"{name}: no latency samples to check")
        elif measured > bar:
            violations.append(
                f"{name} {measured:.2f} ms exceeds the {bar:.2f} ms bar"
            )
    if slo.max_error_rate is not None:
        rate = error_rate(stats, slo.allowed_error_codes)
        if rate > slo.max_error_rate:
            violations.append(
                f"error rate {rate:.4f} exceeds {slo.max_error_rate:.4f} "
                f"(errors: {stats['errors']})"
            )
    if slo.max_shed_rate is not None and (
            stats["shed_rate"] > slo.max_shed_rate):
        violations.append(
            f"shed rate {stats['shed_rate']:.4f} exceeds "
            f"{slo.max_shed_rate:.4f} ({stats['shed']} shed)"
        )
    return violations


def scenario_report(
    spec: ScenarioSpec,
    samples: list[ScenarioSample],
    wall_s: float | None = None,
    seed: int | None = None,
    server_health: dict | None = None,
) -> dict:
    """One scenario's full report: stats + SLO verdict (+ healthz)."""
    stats = summarize(samples, wall_s)
    violations = check_slo(spec.slo, stats)
    report = {
        "scenario": spec.name,
        "seed": spec.seed if seed is None else seed,
        **stats,
        "slo_violations": violations,
        "slo_pass": not violations,
    }
    if server_health is not None:
        # The server-side latency histograms (and, against a fleet
        # front, backend/breaker/shed state) alongside the client view.
        report["server"] = {
            key: server_health[key]
            for key in (
                "status", "role", "latency_ms",
                "queue_wait_ms", "healthy_backends",
                "admitted_backends", "shed", "routed", "failovers",
            )
            if key in server_health
        }
    return report


def snapshot(address: str) -> dict:
    """A server's / fleet front's healthz payload (one HTTP call)."""
    status, payload = http_request(address, "/healthz")
    if status != 200:
        raise ServerError(f"healthz returned HTTP {status}: {payload}")
    return payload


def format_report(report: dict) -> str:
    """Human one-screen rendering of one scenario report."""
    latency = report.get("latency_ms") or {}
    lines = [
        f"scenario {report['scenario']} (seed {report['seed']}): "
        f"{report['requests']} requests, {report['ok']} ok, "
        f"{sum(report['errors'].values())} errors, {report['shed']} shed",
    ]
    if latency:
        lines.append(
            "  latency p50/p90/p99: "
            f"{latency.get('p50')}/{latency.get('p90')}/"
            f"{latency.get('p99')} ms"
        )
    if "throughput_rps" in report:
        lines.append(
            f"  throughput: {report['throughput_rps']} req/s over "
            f"{report['wall_s']} s"
        )
    if report["errors"]:
        lines.append(f"  error classes: {report['errors']}")
    if report["slo_violations"]:
        lines.append("  SLO: FAIL")
        lines.extend(
            f"    - {violation}" for violation in report["slo_violations"]
        )
    else:
        lines.append("  SLO: pass")
    return "\n".join(lines)


def write_bench(path: str | Path, entries: dict[str, dict]) -> None:
    """Write ``BENCH_scenarios.json``: ``{scenarios: {name: report}}``."""
    import platform

    payload = {
        "scenarios": entries,
        "python": platform.python_version(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
