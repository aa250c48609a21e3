"""Joining and rolling up the fleet's NDJSON logs (``repro tail``).

A fleet run leaves several NDJSON streams behind: the router's access
log, one access log per replica, the supervisor's ops log, and any
precompute progress logs.  Each is self-describing -- access records
carry ``op``/``outcome``, ops records carry ``finding``/``verdict``,
progress records carry ``event`` -- so this module reads them all
**leniently** (any well-formed JSON object counts; no schema required
up front), classifies each record, joins access records by
``trace_id``, and rolls latencies up per store through the same
:func:`~repro.telemetry.registry.percentile_summary` that the scenario
reporter uses.  That shared serialization is the point: a p50 read off
``repro tail`` is byte-comparable with a scenario SLO report (a live
server's healthz reports bucket estimates, not raw-sample ranks).

Rotated sets are included by default: naming ``b0.access.ndjson``
reads ``b0.access.ndjson.N ... .1`` first, in arrival order, exactly
like :func:`~repro.telemetry.logwriter.rotated_access_logs`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .logwriter import rotated_access_logs
from .registry import percentile_summary

#: Record kinds ``classify_record`` can return.
KINDS = ("access", "ops", "progress", "unknown")


def classify_record(record: dict) -> str:
    """Which stream a record belongs to, from its own fields."""
    if "op" in record and "outcome" in record:
        return "access"
    if "finding" in record or "verdict" in record:
        return "ops"
    if "event" in record and "seq" in record:
        return "progress"
    return "unknown"


def read_log_records(
    path: str | Path, rotated: bool = True
) -> Iterable[tuple[str, int, dict]]:
    """Yield ``(source_path, lineno, record)`` leniently, oldest first.

    Unlike :func:`repro.io.load_access_log` this accepts any JSON
    object (ops and progress records lack the access-log fields) and
    silently skips unparseable lines -- a tail over a live, mid-write
    log must tolerate a torn final line anywhere.
    """
    paths = rotated_access_logs(path) if rotated else [Path(path)]
    for file_path in paths:
        if not file_path.exists():
            continue
        with open(file_path, encoding="utf-8", errors="replace") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield str(file_path), lineno, record


def collect_logs(
    paths: Iterable[str | Path], rotated: bool = True
) -> list[dict]:
    """Read every log into tagged records: ``{kind, source, record}``."""
    out: list[dict] = []
    for path in paths:
        for source, lineno, record in read_log_records(path, rotated=rotated):
            out.append({
                "kind": classify_record(record),
                "source": source,
                "lineno": lineno,
                "record": record,
            })
    return out


def rollup_stores(tagged: list[dict]) -> dict:
    """Per-store rate/latency/error rollups over the access records.

    Only **replica-side** records (those without an ``attempts`` list)
    feed the latency percentiles and rates: the router logs the same
    request again with its own timing, and double-counting would skew
    every rate.  Router records are tallied separately under
    ``failovers`` (attempts > 1) so the rollup still shows retry
    pressure per store.  Percentiles run through
    :func:`percentile_summary` -- the exact raw-sample serialization.
    """
    per_store: dict[str, dict] = {}
    for entry in tagged:
        if entry["kind"] != "access":
            continue
        record = entry["record"]
        store = record.get("store") or "-"
        bucket = per_store.setdefault(store, {
            "requests": 0, "ok": 0, "errors": 0, "failovers": 0,
            "by_outcome": {}, "_samples": [], "_ts": [],
        })
        if "attempts" in record:  # router-side view of the same request
            if len(record["attempts"]) > 1:
                bucket["failovers"] += 1
            continue
        bucket["requests"] += 1
        outcome = record.get("outcome", "?")
        bucket["by_outcome"][outcome] = (
            bucket["by_outcome"].get(outcome, 0) + 1
        )
        if outcome == "ok":
            bucket["ok"] += 1
        else:
            bucket["errors"] += 1
        total_ms = record.get("total_ms")
        if isinstance(total_ms, (int, float)):
            bucket["_samples"].append(float(total_ms))
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            bucket["_ts"].append(float(ts))
    rollups: dict[str, dict] = {}
    for store, bucket in sorted(per_store.items()):
        samples = bucket.pop("_samples")
        stamps = bucket.pop("_ts")
        summary = {
            **bucket,
            "by_outcome": dict(sorted(bucket["by_outcome"].items())),
            "error_rate": (
                round(bucket["errors"] / bucket["requests"], 4)
                if bucket["requests"] else 0.0
            ),
            "total_ms": percentile_summary(samples),
        }
        span = max(stamps) - min(stamps) if len(stamps) > 1 else 0.0
        summary["rate_per_s"] = (
            round(bucket["requests"] / span, 3) if span > 0 else None
        )
        rollups[store] = summary
    return rollups


def join_traces(tagged: list[dict]) -> dict:
    """Group access records by ``trace_id``; chains sort by timestamp.

    Each trace summarizes to ``{records, sources, backends, spans,
    outcomes, failover, chain}`` where ``chain`` is the full record
    list in time order -- router record(s) plus every replica landing,
    which for a failover reconstructs the retry story end to end.
    """
    traces: dict[str, list[dict]] = {}
    for entry in tagged:
        if entry["kind"] != "access":
            continue
        trace_id = entry["record"].get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            traces.setdefault(trace_id, []).append(entry)
    joined: dict[str, dict] = {}
    for trace_id, entries in traces.items():
        entries.sort(key=lambda e: (e["record"].get("ts") or 0.0,
                                    e["lineno"]))
        backends: list[str] = []
        spans: list[str] = []
        failover = False
        for entry in entries:
            record = entry["record"]
            for attempt in record.get("attempts", []):
                backend = attempt.get("backend")
                if backend and backend not in backends:
                    backends.append(backend)
                span = attempt.get("span_id")
                if span and span not in spans:
                    spans.append(span)
            if len(record.get("attempts", [])) > 1:
                failover = True
            span = record.get("span_id")
            if span and span not in spans:
                spans.append(span)
        joined[trace_id] = {
            "records": len(entries),
            "sources": sorted({entry["source"] for entry in entries}),
            "backends": backends,
            "spans": spans,
            "outcomes": [e["record"].get("outcome") for e in entries],
            "failover": failover,
            "chain": [
                {"source": e["source"], **e["record"]} for e in entries
            ],
        }
    return joined


def summarize_logs(
    paths: Iterable[str | Path],
    rotated: bool = True,
    trace: str | None = None,
    min_trace_records: int = 2,
) -> dict:
    """The full ``repro tail`` payload over a set of log files.

    ``traces`` keeps full chains only for multi-record traces (or the
    one asked for via *trace*) so a big log does not balloon the
    output; single-record traces are still counted in ``trace_count``.
    """
    tagged = collect_logs(paths, rotated=rotated)
    counts = {kind: 0 for kind in KINDS}
    for entry in tagged:
        counts[entry["kind"]] += 1
    joined = join_traces(tagged)
    if trace is not None:
        traces = {trace: joined[trace]} if trace in joined else {}
    else:
        traces = {
            trace_id: info for trace_id, info in joined.items()
            if info["records"] >= min_trace_records
        }
    payload = {
        "files": [str(path) for path in paths],
        "records": counts,
        "rollups": rollup_stores(tagged),
        "trace_count": len(joined),
        "traces": traces,
    }
    progress = [e["record"] for e in tagged if e["kind"] == "progress"]
    if progress:
        payload["progress"] = summarize_progress(progress)
    return payload


def summarize_progress(records: list[dict]) -> dict:
    """Per-run latest level/rows snapshot from progress records."""
    runs: dict[str, dict] = {}
    for record in records:
        run = str(record.get("run", "?"))
        info = runs.setdefault(run, {
            "events": 0, "level": None, "rows": None,
            "spills": 0, "checkpoints": 0, "done": False,
        })
        info["events"] += 1
        event = record.get("event")
        if "level" in record:
            info["level"] = record["level"]
        if "rows" in record:
            info["rows"] = record["rows"]
        if event == "spill":
            info["spills"] += 1
        elif event == "checkpoint":
            info["checkpoints"] += 1
        elif event == "done":
            info["done"] = True
    return dict(sorted(runs.items()))


def format_text(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_logs` output."""
    lines: list[str] = []
    counts = summary["records"]
    lines.append(
        "records: "
        + ", ".join(f"{counts[kind]} {kind}" for kind in KINDS
                    if counts[kind])
        or "records: none"
    )
    for store, roll in summary["rollups"].items():
        latency = roll["total_ms"]
        latency_text = (
            "latency p50/p90/p99 "
            f"{latency['p50']}/{latency['p90']}/{latency['p99']} ms"
            if latency else "no latency samples"
        )
        rate = roll["rate_per_s"]
        rate_text = f", {rate}/s" if rate is not None else ""
        lines.append(
            f"store {store}: {roll['requests']} requests{rate_text}, "
            f"{roll['errors']} errors "
            f"(rate {roll['error_rate']}), "
            f"{roll['failovers']} failovers, {latency_text}"
        )
    for run, info in summary.get("progress", {}).items():
        status = "done" if info["done"] else f"level {info['level']}"
        lines.append(
            f"progress {run}: {status}, rows {info['rows']}, "
            f"{info['spills']} spills, {info['checkpoints']} checkpoints"
        )
    for trace_id, info in summary["traces"].items():
        hops = " -> ".join(info["backends"]) or "-"
        lines.append(
            f"trace {trace_id}: {info['records']} records, "
            f"backends {hops}, outcomes {info['outcomes']}"
            + (" [failover]" if info["failover"] else "")
        )
        for record in info["chain"]:
            source = Path(record["source"]).name
            lines.append(
                f"  {source}: op={record.get('op')} "
                f"outcome={record.get('outcome')} "
                f"total_ms={record.get('total_ms')}"
                + (
                    f" attempts={len(record['attempts'])}"
                    if "attempts" in record else ""
                )
            )
    return "\n".join(lines)
