"""End-to-end benchmark of the precompute and serve pipelines.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
and every process it starts runs from there.  Every workload makes one
pass through both pipelines, so every end-to-end metric is measured on
every workload:

1. precompute: fresh child processes make the calls ``repro precompute``
   makes with its defaults (``perfbench/precompute_child.py``);
2. serve: ``repro serve`` or ``repro fleet serve`` on the written store,
   driven closed loop by seeded target streams, every answer checked by
   an oracle independent of the search (``perfbench/workload.py``).

Timings are reported at a reference host speed, from reference-task
slices run between the measured parts (``common.HostSpeed``).

The last line of standard output is the result object; with
``--trace 0`` its metrics are the end-to-end metrics, with ``--trace 1``
the per-layer metrics of ``perfbench/layers.py``.  The full record --
environment block, both metric sets, tracing overhead, checks -- is
written to ``.perfbench/results/``, spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import common
from common import (PYTHON, ROOT, WORK, HostSpeed, Tracer, median,
                    percentile, run_child)

#: The closure (qubits, cost bound) each workload precomputes and serves,
#: and whether a fleet serves it.
WORKLOADS = {
    "precompute-4q": dict(qubits=4, cost=5, fleet=False),
    "interactive": dict(qubits=3, cost=7, fleet=False),
    "bulk-routed": dict(qubits=3, cost=7, fleet=True),
}
#: Share of 32-target batches in bulk-routed and in precompute-4q's tail.
BATCH_SHARE = 0.25
#: precompute-4q serves its store once, after the timed precomputes, for
#: the serve metrics every workload reports: one connection sends this
#: many requests.
TAIL_REQUESTS = 4000
#: interactive sends only single synth in its timed loop; batch_p50_ms
#: comes from this many batches, sent once, in turns with the loop's
#: segments.
BATCH_TAIL = 600
#: Precompute children per run of a serve workload.
SERVE_PRECOMPUTES = 10
#: Server spawns whose time to first synth make up setup_s.
SPAWNS = 3
#: Requests generated per connection per second of serving (streams wrap).
STREAM_RATE = 1500
#: Untimed warm-up of the service before its measured loop.
WARMUP_S = 1.0
#: A timed loop is cut into segments about this long, with a
#: reference-task slice between them.
SEGMENT_S = 1.0
#: Segments of a loop that sends its stream once.
TAIL_SEGMENTS = 8
#: Targets per probe loop of the traced run.
PROBE_TARGETS = 300


def precompute_phase(spec, budget_s, runs_min, tracer, checks, speed):
    """Fresh precompute children while another fits in *budget_s*.

    A reference-task slice of *speed* runs before the first child and
    after each.  Returns the store and the children's reports, each
    with its ``setup_s``.
    """
    from workload import GOLDEN_B

    store = str(WORK / "run" / f"closure-{spec['qubits']}q.rpro")
    golden = GOLDEN_B[(spec["qubits"], spec["cost"])]
    children = []
    started = time.monotonic()
    last = 0.0
    speed.slice("precompute")
    while (len(children) < runs_min
           or time.monotonic() - started + last <= budget_s):
        child_started = time.monotonic()
        argv = [PYTHON, "perfbench/precompute_child.py",
                "--qubits", str(spec["qubits"]), "--cost", str(spec["cost"]),
                "--out", store]
        # A traced run times the expansion level by level.
        if tracer.enabled:
            argv.append("--levels")
        with tracer.span("precompute.child"):
            spawned, child = run_child(argv)
            tracer.add("gates.library", child["lib_s"])
            for level, seconds in child["levels_s"].items():
                tracer.add(f"search.level{level}", seconds)
            tracer.add("store.write", child["write_s"])
            tracer.add("store.reopen", child["open_s"])
        speed.slice("precompute")
        child["setup_s"] = child["lib_done"] - spawned
        children.append(child)
        last = time.monotonic() - child_started
        checks["closure_levels"].append(child["level_sizes"] == golden)
        checks["reopened_levels"].append(
            child["reopened_level_sizes"] == golden)
    return store, children


def _record(answer):
    """The wire record an answer key was taken from."""
    _spec, _level, gates, target, cost = answer
    return {"gates": list(gates), "target": target, "cost": cost}


def verify_replies(replies, n_qubits, gate_names, checks):
    """Oracle every answer; returns the count of failed requests."""
    from workload import corrupt, oracle

    verdicts: dict = {}
    failed = 0
    for reply in replies:
        ok = reply.error is None and bool(reply.answers)
        for key in reply.answers:
            if key is None:
                ok = False
            else:
                if key not in verdicts:
                    verdicts[key] = oracle(n_qubits, key[0], key[1],
                                           _record(key))
                ok = ok and verdicts[key]
        failed += not ok
    # The oracle must refuse each of a few good answers with one gate id
    # changed -- the store corruption a server could pass on.
    good = [key for key, verdict in verdicts.items() if verdict and key[1]]
    checks["oracle_rejects_corrupt_gate"] = bool(good) and not any(
        oracle(n_qubits, key[0], key[1], corrupt(_record(key), gate_names, i))
        for i, key in enumerate(good[:16])
    )
    return failed


def serve_metrics(loop, batch_loop):
    """Latency and throughput over every reply of the measured loops.

    *loop* (a :class:`serve.Loop`) gives the single-synth latencies and
    the throughput, *batch_loop* the 32-target batch latencies.
    Returns the timings at this host's speed and the sample counts.
    """
    singles = [r.latency for r in loop.replies
               if r.request["op"] == "synth"]
    batches = [r.latency for r in batch_loop.replies
               if r.request["op"] != "synth"]
    answered = sum(len(r.request["targets"]) for r in loop.replies
                   if r.error is None)
    return {
        "synth_p50_ms": percentile(singles, 50) * 1e3,
        "batch_p50_ms": percentile(batches, 50) * 1e3,
        "targets_per_s": answered / loop.wall,
        "synth_p99_ms": percentile(singles, 99) * 1e3,
        "batch_p99_ms": percentile(batches, 99) * 1e3,
    }, {"synth": len(singles), "batch": len(batches)}


def at_reference_speed(key: str, value: float, scale: float) -> float:
    """A timing (``*_s``/``*_ms``) or rate (``*_per_s``) taken to the
    reference speed by its phase's :class:`HostSpeed` factor."""
    return value / scale if key.endswith("_per_s") else value * scale


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.gates.library import GateLibrary

    from serve import Loop, closed_loop, measured_loops, start_service
    from workload import GOLDEN_POOLS, target_pools, write_stream

    spec = WORKLOADS[name]
    tracer = Tracer(trace)
    speed = HostSpeed()
    checks: dict = {"closure_levels": [], "reopened_levels": []}
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "environment": common.environment()}

    # -- precompute --------------------------------------------------------
    if name == "precompute-4q":
        store, children = precompute_phase(spec, seconds, 3, tracer, checks,
                                           speed)
    else:
        store, children = precompute_phase(spec, 0.0, SERVE_PRECOMPUTES,
                                           tracer, checks, speed)

    # -- inputs --------------------------------------------------------------
    pools = target_pools(store)
    checks["pool_sizes"] = ([len(p) for p in pools]
                            == GOLDEN_POOLS[(spec["qubits"], spec["cost"])])
    looped = max(200, int(STREAM_RATE * seconds))
    shapes = {
        "precompute-4q": [(BATCH_SHARE, TAIL_REQUESTS)],
        "interactive": [(0.0, looped), (1.0, BATCH_TAIL)],
        "bulk-routed": [(BATCH_SHARE, looped)] * 2,
    }[name]
    stream_path = WORK / "streams" / f"{name}-seed{seed}.ndjson"
    streams = write_stream(stream_path, pools, seed, shapes)
    record["stream"] = str(stream_path.relative_to(ROOT))

    # -- serve ----------------------------------------------------------------
    service, spawn_setups = start_service(
        store, spec["fleet"], pools[-1][0],
        1 if name == "precompute-4q" else SPAWNS, name, speed)
    probes: dict = {}
    if name == "precompute-4q":
        loop = batch_loop = Loop(streams, None, False)
        segments = TAIL_SEGMENTS
    elif name == "interactive":
        # The batches are sent in turns with the single-synth loop's
        # segments, outside its timed parts.
        loop = Loop(streams[:1], seconds, True)
        batch_loop = Loop(streams[1:], None, False)
        segments = max(1, round(seconds / SEGMENT_S))
    else:
        loop = batch_loop = Loop(streams, seconds, False)
        segments = max(1, round(seconds / SEGMENT_S))
    try:
        # Untimed warm-up on the loop's own streams; its answers are
        # checked with the rest.
        warm, _wall, _sent = closed_loop(
            service.address, loop.streams, WARMUP_S, loop.verify_in_loop,
            tracer, [0] * len(loop.streams))
        loops = [loop] if batch_loop is loop else [loop, batch_loop]
        measured_loops(service.address, loops, segments, tracer, speed)
        server_rss = service.rss_mb()
        if trace:
            probes = trace_layers(store, streams, service, children, tracer)
    finally:
        service.stop()

    # -- check -------------------------------------------------------------------
    replies = warm + loop.replies + (batch_loop.replies
                                     if batch_loop is not loop else [])
    library = GateLibrary(spec["qubits"])
    failed = verify_replies(replies, spec["qubits"],
                            [g.name for g in library.gates], checks)
    failed += sum(not ok for ok in checks["closure_levels"])
    failed += sum(not ok for ok in checks["reopened_levels"])
    attempted = len(replies) + len(children)

    if name == "precompute-4q":
        setups, setup_phase = [c["setup_s"] for c in children], "precompute"
    else:
        setups, setup_phase = spawn_setups, "setup"
    timings, counts = serve_metrics(loop, batch_loop)
    # Each timing with the phase whose reference slices scale it.
    phased = {"setup_s": (median(setups), setup_phase),
              "precompute_s": (median([c["precompute_s"] for c in children]),
                               "precompute"),
              **{key: (value, "serve") for key, value in timings.items()}}
    scales = {phase: speed.scale(phase) for phase in speed.samples}
    scaled = {key: at_reference_speed(key, value, scales[phase])
              for key, (value, phase) in phased.items()}
    end_to_end = {
        **{key: value for key, value in scaled.items() if key in UNITS_E2E},
        "peak_rss_mb": median([c["peak_rss_mb"] for c in children]),
        "store_mb": median([c["store_bytes"] for c in children]) / 1e6,
        "server_rss_mb": server_rss,
    }
    record["samples"] = {
        **counts, "synth_p99_ms": scaled["synth_p99_ms"],
        "batch_p99_ms": scaled["batch_p99_ms"],
        "precomputes": len(children), "setups": len(setups),
        "precompute_s_each": [c["precompute_s"] for c in children],
        "reference_scale": scales,
        "reference_task_s": speed.samples,
    }
    # The same figures at this host's speed during the run.
    record["raw_timings"] = {key: value
                             for key, (value, _phase) in phased.items()}
    if trace:
        record["tracing_overhead"] = tracing_overhead(name, seed, record,
                                                      end_to_end)
    correct = failed == 0 and all(
        all(v) if isinstance(v, list) else v for v in checks.values())

    record.update(end_to_end=end_to_end, per_layer=probes, checks=checks,
                  attempted=attempted, failed=failed, correct=correct)
    record["trace_summary"] = tracer.summary() if trace else {}
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if trace:
        tracer.write(WORK / "traces" / f"{tag}.ndjson")
    print(json.dumps({key: record.get(key) for key in (
        "environment", "samples", "checks", "tracing_overhead")}),
        file=sys.stderr)
    metrics = probes if trace else end_to_end
    units = UNITS_LAYER if trace else UNITS_E2E
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics {missing} not measured")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }


def trace_layers(store, streams, service, children, tracer):
    """Per-layer probes, run after the workload's timed loop.

    Both hop estimates pair each request with itself on the two paths,
    by the target the replies name; a mismatch aborts the run.
    """
    import layers
    from serve import Service

    metrics = layers.service_counters(service)
    metrics.update(layers.from_children(children))
    requests = [r for stream in streams for r in stream]
    singles = [r["targets"][0] for r in requests
               if r["op"] == "synth"][:PROBE_TARGETS]
    batches = [r["targets"] for r in requests if r["op"] != "synth"][:50]
    with tracer.span("probe.in_process"):
        found, executed = layers.in_process(store, singles, batches, tracer)
    metrics.update(found)
    with tracer.span("probe.direct"):
        metrics.update(layers.direct_rtts(service.direct_endpoints()[0],
                                          singles, executed, tracer))
    fleet = service if service.fleet else Service(store, True, "probe-fleet")
    try:
        if fleet is not service:
            fleet.wait_first_synth(singles[0])
        with tracer.span("probe.router"):
            metrics.update(layers.router_hop(fleet, singles, tracer))
    finally:
        if fleet is not service:
            fleet.stop()
    return metrics


def tracing_overhead(name, seed, record, end_to_end):
    """This traced run's end-to-end figures minus the untraced run's.

    The untraced run is the results record of the same workload and
    seed on the same sources, if one was written before this run.
    """
    path = WORK / "results" / f"{name}-seed{seed}-trace0.json"
    try:
        untraced = json.loads(path.read_text())
    except (OSError, ValueError):
        return {"untraced_run": None}
    if (untraced["environment"]["src_sha256"]
            != record["environment"]["src_sha256"]):
        return {"untraced_run": None}
    return {"untraced_run": str(path.relative_to(ROOT)), **{
        key: value - untraced["end_to_end"][key]
        for key, value in end_to_end.items()
        if key in untraced["end_to_end"]
    }}


#: The gated end-to-end metrics.  The p99 latencies stay in the results
#: record only: on a shared 2-vCPU host their ten-run spread reached
#: 0.3-0.7 of the median, past any bound the gate allows.
UNITS_E2E = {
    "setup_s": "s", "precompute_s": "s", "peak_rss_mb": "MB",
    "store_mb": "MB", "server_rss_mb": "MB", "synth_p50_ms": "ms",
    "batch_p50_ms": "ms", "targets_per_s": "1/s",
}
UNITS_LAYER = {
    "library.build_s": "s", "search.level3_s": "s", "search.level4_s": "s",
    "search.level5_s": "s", "search.rows": "count",
    "search.accept_ratio": "ratio", "search.rss_held_mb": "MB",
    "search.bytes_per_row": "B", "store.write_s": "s",
    "store.bytes_per_row": "B", "store.open_s": "s", "batch.index_s": "s",
    "batch.warm_s": "s", "batch.cost_table_s": "s",
    "batch.synthesize_us": "us", "io.result_to_dict_us": "us",
    "io.result_from_dict_us": "us", "service.open_state_s": "s",
    "service.execute_us": "us", "service.execute_batch_us": "us",
    "service.queue_wait_ms": "ms", "service.coalesce_ratio": "ratio",
    "server.store_info_rtt_us": "us", "server.synth_rtt_us": "us",
    "server.healthz_rtt_us": "us", "server.pool_hop_us": "us",
    "telemetry.metrics_scrape_us": "us", "router.hop_us": "us",
    "router.failovers": "count", "router.shed": "count",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_checkout()
    common.prepare_workdirs()
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
