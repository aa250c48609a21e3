"""Per-layer measurements for the traced run.

Each probe times calls into one layer's public functions, from the
benchmark's own code, as spans; a metric is the median of its spans.
Layer names are the program's modules: ``gates.library``,
``core.search``/``core.kernel``, ``core.store``, ``core.batch``,
``io``, ``server.service``, ``server.app``/``server.protocol``,
``telemetry`` and ``fleet.router``.
"""

from __future__ import annotations

import time

from common import Tracer, median
from serve import Service

#: Repetitions of each whole-store call (open, index, warm, cost table).
REPEATS = 5


def from_children(children: list[dict]) -> dict[str, float]:
    """Expansion and store-write layers, from the level-timed children."""
    first = children[0]
    sizes = first["level_sizes"]
    rows = sum(sizes)
    rss_held = median([c["rss_held_mb"] for c in children])
    metrics = {
        "library.build_s": median([c["lib_s"] for c in children]),
        "search.rows": float(rows),
        "search.accept_ratio": sizes[5] / (first["n_gates"] * sizes[4]),
        "search.rss_held_mb": rss_held,
        "search.bytes_per_row": rss_held * 2**20 / rows,
        "store.write_s": median([c["write_s"] for c in children]),
        "store.bytes_per_row": first["store_bytes"] / rows,
    }
    for level in (3, 4, 5):
        metrics[f"search.level{level}_s"] = median(
            [c["levels_s"][str(level)] for c in children]
        )
    return metrics


def _timed(tracer: Tracer, name: str, fn, *args, **attrs):
    with tracer.span(name, **attrs):
        return fn(*args)


def paired(first: list[tuple[str, float]],
           second: list[tuple[str, float]]) -> list[float]:
    """Per-request differences ``first - second`` of two timed passes.

    Each pass lists ``(target echoed in the reply, seconds)`` in send
    order.  The passes must have answered the same targets in the same
    order -- checked on what the replies say, not on what was sent.

    Raises:
        ValueError: the passes differ in length or in any echoed target.
    """
    if len(first) != len(second):
        raise ValueError(f"{len(first)} requests paired with {len(second)}")
    for i, ((a, _), (b, _)) in enumerate(zip(first, second)):
        if a != b:
            raise ValueError(f"request {i}: reply for {a} paired with {b}")
    return [a - b for (_, a), (_, b) in zip(first, second)]


def in_process(store: str, singles: list[str], batches: list[list[str]],
               tracer: Tracer) -> tuple[dict[str, float], list]:
    """Store, batch, io and service layers called in this process.

    Returns the metrics and, per request of *singles*, the target the
    ``execute_query`` reply names and its time, which the pool-hop
    estimate subtracts.
    """
    from repro.core.batch import BatchSynthesizer
    from repro.io import (open_store, parse_target, result_from_dict,
                          result_to_dict)
    from repro.server.service import execute_query, open_store_state

    for _ in range(REPEATS):
        _header, _library, search = _timed(tracer, "store.open_store",
                                           open_store, store)
        batch = _timed(tracer, "batch.index", BatchSynthesizer, search)
        _timed(tracer, "batch.warm", batch.warm)
        _timed(tracer, "batch.cost_table", batch.cost_table)
        state = _timed(tracer, "service.open_store_state",
                       open_store_state, store)
    n_qubits = state.library.n_qubits
    executed = []
    for spec in singles:
        target = parse_target(spec, n_qubits=n_qubits)
        result = _timed(tracer, "batch.synthesize", batch.synthesize, target)
        record = _timed(tracer, "io.result_to_dict", result_to_dict, result)
        _timed(tracer, "io.result_from_dict", result_from_dict, record)
        params = {"target": spec, "all": False, "allow_not": True}
        started = time.perf_counter()
        payload = _timed(tracer, "service.execute_query", execute_query,
                         state, "synth", params, op="synth")
        executed.append((payload["target"], time.perf_counter() - started))
    for specs in batches:
        _timed(tracer, "service.execute_query_batch", execute_query, state,
               "synth-batch", {"targets": specs, "allow_not": True},
               op="synth-batch")

    def med_s(name):
        return median(tracer.durations_us(name)) / 1e6

    def med_us(name):
        return median(tracer.durations_us(name))

    return {
        "store.open_s": med_s("store.open_store"),
        "batch.index_s": med_s("batch.index"),
        "batch.warm_s": med_s("batch.warm"),
        "batch.cost_table_s": med_s("batch.cost_table"),
        "service.open_state_s": med_s("service.open_store_state"),
        "batch.synthesize_us": med_us("batch.synthesize"),
        "io.result_to_dict_us": med_us("io.result_to_dict"),
        "io.result_from_dict_us": med_us("io.result_from_dict"),
        "service.execute_us": med_us("service.execute_query"),
        "service.execute_batch_us": med_us("service.execute_query_batch"),
    }, executed


def _rtt(tracer, name, client, op, **params) -> tuple[dict, float]:
    started = time.perf_counter()
    with tracer.span(name, op=op):
        payload = client.call(op, **params)
    return payload, time.perf_counter() - started


def _synth_rtt(tracer, name, client, spec) -> tuple[str, float]:
    """One synth round trip: (target the reply names, seconds)."""
    payload, seconds = _rtt(tracer, name, client, "synth", target=spec,
                            all=False, allow_not=True)
    return payload["target"], seconds


def direct_rtts(endpoint: str, singles: list[str], executed: list,
                tracer: Tracer) -> dict[str, float]:
    """Round trips to one server, interleaving store-info/synth/healthz.

    ``server.pool_hop_us`` is the median, request by request, of the
    synth round trip less the store-info round trip sent just before it
    (same framing, answered on the event loop) less the in-process
    execute time of the same target (*executed*, from :func:`in_process`).
    """
    from repro.client import ServeClient, fetch_metrics

    synth, info, health, beyond_info = [], [], [], []
    with ServeClient(endpoint) as client:
        client.store_info()
        for spec in singles:
            _payload, info_s = _rtt(tracer, "server.store_info_rtt", client,
                                    "store-info")
            echoed, synth_s = _synth_rtt(tracer, "server.synth_rtt", client,
                                         spec)
            _payload, health_s = _rtt(tracer, "server.healthz_rtt", client,
                                      "healthz")
            info.append(info_s)
            synth.append(synth_s)
            health.append(health_s)
            beyond_info.append((echoed, synth_s - info_s))
    pool_hops = paired(beyond_info, executed)
    scrapes = []
    for _ in range(40):
        started = time.perf_counter()
        with tracer.span("telemetry.fetch_metrics"):
            fetch_metrics(endpoint)
        scrapes.append(time.perf_counter() - started)
    return {
        "server.store_info_rtt_us": median(info) * 1e6,
        "server.synth_rtt_us": median(synth) * 1e6,
        "server.healthz_rtt_us": median(health) * 1e6,
        "server.pool_hop_us": median(pool_hops) * 1e6,
        "telemetry.metrics_scrape_us": median(scrapes) * 1e6,
    }


def router_hop(fleet: Service, singles: list[str],
               tracer: Tracer) -> dict[str, float]:
    """Routed minus direct round trip, request by request.

    Each synth goes through the router, then the identical request goes
    straight to the replica the router prefers for this store; the two
    replies must name the same target.
    """
    from repro.client import ServeClient

    with ServeClient(fleet.address) as router:
        for spec in singles[:20]:
            router.synth(spec)
        backends = router.healthz()["backends"]
        preferred = max(backends, key=lambda name: backends[name]["requests"])
        endpoint = fleet.replicas()[preferred][0]
        routed, plain = [], []
        with ServeClient(endpoint) as direct:
            direct.store_info()
            for spec in singles:
                routed.append(_synth_rtt(tracer, "router.routed_rtt", router,
                                         spec))
                plain.append(_synth_rtt(tracer, "router.direct_rtt", direct,
                                        spec))
        health = router.healthz()
    return {
        "router.hop_us": median(paired(routed, plain)) * 1e6,
        "router.failovers": float(health["failovers"]),
        "router.shed": float(health["shed"]),
    }


def service_counters(service: Service) -> dict[str, float]:
    """Queue wait (from /metrics) and coalescing (from healthz), summed
    over the processes that executed the workload's queries."""
    from repro.client import ServeClient, fetch_metrics
    from repro.telemetry import parse_prometheus_text

    wait_sum = wait_count = jobs = batches = 0.0
    for endpoint in service.direct_endpoints():
        _status, text = fetch_metrics(endpoint)
        samples = parse_prometheus_text(text)
        labels = (("op", "synth"),)
        wait_sum += samples.get(("repro_request_queue_wait_ms_sum", labels), 0)
        wait_count += samples.get(
            ("repro_request_queue_wait_ms_count", labels), 0)
        with ServeClient(endpoint) as client:
            health = client.healthz()
        jobs += health["jobs_coalesced"]
        batches += health["batches_executed"]
    return {
        "service.queue_wait_ms": wait_sum / max(wait_count, 1),
        "service.coalesce_ratio": jobs / max(batches, 1),
    }
