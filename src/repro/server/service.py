"""The synthesis service: shared read-only closures, many requests.

:class:`SynthesisService` is the framing-independent middle of ``repro
serve``: it owns a registry of open stores (each a frozen
:class:`~repro.core.search.CascadeSearch` wrapped by a warmed
:class:`~repro.core.batch.BatchSynthesizer`) and answers every
operation on the asyncio event loop.

Concurrency model
-----------------

* Every operation runs inline on the event loop.  A served target is
  one spec parse, one remainder-index lookup, one parent walk and one
  table-composing certify, written straight into its wire record
  (:func:`_synth_recorder`): about 16 microseconds, 0.5 ms for a
  32-target batch of the 3-qubit cost-7 store on a 2-CPU box.  That
  is less than a thread hop would cost, and each connection is served
  one request at a time, so there is nothing to queue or coalesce.
* ``synth-batch`` runs its targets in chunks of :data:`BATCH_CHUNK`
  and yields to the loop between chunks, so a long batch delays a
  concurrent ``synth`` by about one chunk, not by the whole batch.
  :func:`execute_query` runs the same chunks without yielding, so a
  served and a replayed batch answer byte-identical payloads.
* Queries only touch frozen, warmed state (see the thread-safety
  contract on :class:`~repro.core.batch.BatchSynthesizer`).
* Store opens (startup and SIGHUP reload) run on a **dedicated
  single-thread opener executor**: a multi-second open never blocks
  the loop, which keeps answering from the current registry meanwhile.

Routing: each request may carry a ``store`` selector (alias or
``LIBFP:COSTFP`` fingerprints, see :mod:`repro.server.registry`);
a single-store server treats an absent selector as that store.

Store reloads (SIGHUP, or :meth:`SynthesisService.reload`) are atomic:
a whole new registry is built off-loop (every named store re-opened,
``--store-dir`` re-scanned), then a single reference assignment swaps
it in.  Queries that resolved their store before the swap (a
``synth-batch`` between chunks included) finish against the old state
objects -- v2 memory maps and v3 chunk stores (plus any decompressed
sections they hand out) stay alive until the last in-flight query
drops them, and the v3 section cache is keyed by file identity, so a
reload can never hand an old query bytes from the new file; a failed
reload leaves the previous registry serving and is reported via
``healthz``.

Observability: per-op queue-wait and total-latency percentiles ride on
``healthz`` next to the counters, read off the same registry
histograms ``GET /metrics`` renders, and an optional NDJSON **access
log** records one line per request (op, store alias, queue wait,
execute time, outcome, and the request's ``trace_id``/``span_id`` when
traced).  Nothing queues inside the service, so its queue wait is
always 0; the field stays for the scrapers and log readers that
expect it.
Errors are split into ``client_errors`` (4xx-mapped: bad targets,
unknown stores, over-bound queries) and ``server_errors`` (5xx-mapped)
so client mistakes cannot inflate the server-fault signal;
``errors`` stays their sum for pre-split scrapers.

Since PR 10 the counters live in a process-wide
:class:`~repro.telemetry.MetricsRegistry` (``self.telemetry``) and the
``healthz`` payload *reads them back* from it -- one source of truth,
so a Prometheus scrape of ``GET /metrics`` and a ``healthz`` poll can
never disagree.  The access log is written by the shared
:class:`~repro.telemetry.AccessLogWriter`: the loop encodes each
record and queues the line, and one writer thread writes the lines
gathered over a short window with one ``write`` and one ``flush``,
rotating between whole lines.  It also exports the writer's own
health -- records/bytes written, rotations, queue depth -- as metrics.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.errors import (
    CostBoundExceededError,
    ProtocolError,
    ReproError,
    ServerError,
    SpecificationError,
)
from repro._version import __version__
from repro.core.batch import BatchSynthesizer
from repro.core.mce import certify_row, not_layer_names, strip_not_layer
from repro.core.store import section_cache_stats
from repro.io import (
    open_store,
    parse_target,
    resolve_cost_bound,
    result_record,
)
from repro.server.protocol import OPERATIONS, Request, error_payload
from repro.server.registry import StoreRegistry, build_registry
from repro.telemetry import (
    METRICS_CONTENT_TYPE,
    AccessLogWriter,
    MetricsRegistry,
)

#: Targets a served ``synth-batch`` runs between yields to the event
#: loop.  At tens of microseconds per target, a concurrent request
#: waits about one chunk -- a millisecond or two -- and the yields
#: themselves cost nothing measurable.
BATCH_CHUNK = 16
#: The store-touching query operations (access-log records for these
#: carry their params, which is what makes a log replayable).
_QUERY_OPS = frozenset({"synth", "synth-batch", "cost-table"})


@dataclass(frozen=True)
class StoreState:
    """Everything derived from one open of a store file (immutable)."""

    path: str
    header: object  # repro.core.store.StoreHeader
    library: object  # repro.gates.library.GateLibrary
    batch: BatchSynthesizer
    cost_bound: int
    #: The full cost table, computed once per open -- the cost-table
    #: endpoint slices this instead of rebuilding ~|G| Permutation
    #: objects per request.
    table: object  # repro.core.fmcf.CostTable
    #: The library's gate names in index order: served records name
    #: witness gates by index, without re-deriving names per gate.
    gate_names: tuple[str, ...]


def _section_cache_reader(stat: str):
    """A scrape-time reader for one ``section_cache_stats()`` field."""
    def read() -> float:
        return section_cache_stats().get(stat, 0)
    return read


def open_store_state(path: str, cost_bound: int | None = None) -> StoreState:
    """Open, validate, freeze and warm a store for serving (blocking).

    Raises:
        StoreError / StoreMismatchError: unreadable or mismatched store.
        SpecificationError: *cost_bound* exceeds the store's bound.
    """
    header, library, search = open_store(path)
    bound = resolve_cost_bound(cost_bound, header.expanded_to, str(path))
    search.freeze()
    batch = BatchSynthesizer(search, cost_bound=bound).warm()
    return StoreState(
        path=str(path), header=header, library=library, batch=batch,
        cost_bound=bound, table=batch.cost_table(),
        gate_names=tuple(entry.name for entry in library.gates),
    )


class SynthesisService:
    """Dispatches protocol requests against a registry of stores.

    Args:
        stores: one store path, or a sequence of ``PATH`` /
            ``ALIAS=PATH`` specs (see :mod:`repro.server.registry`).
        cost_bound: serve only costs up to this bound (default: each
            store's full expanded bound; must be within every store's).
        store_dir: also serve every ``*.rpro`` file in this directory
            (re-scanned on reload/SIGHUP).
        access_log: append one NDJSON record per request to this file.
        access_log_max_bytes: rotate the access log once it reaches
            this size (``None`` -- the default -- never rotates).
            Rotation shifts ``log -> log.1 -> log.2 ...`` like
            logrotate, on the log thread, between whole lines.
        access_log_keep: how many rotated files to keep (default 3;
            older ones are deleted at rotation time).
    """

    def __init__(
        self,
        stores: str | os.PathLike | Sequence[str],
        cost_bound: int | None = None,
        store_dir: str | None = None,
        access_log: str | None = None,
        access_log_max_bytes: int | None = None,
        access_log_keep: int | None = None,
    ):
        if access_log_max_bytes is not None and access_log_max_bytes < 1:
            raise SpecificationError(
                "access_log_max_bytes must be positive"
            )
        if access_log_keep is not None and access_log_keep < 1:
            raise SpecificationError(
                "access_log_keep must keep at least one rotated file"
            )
        if isinstance(stores, (str, os.PathLike)):
            stores = [stores]
        self._store_specs = [str(spec) for spec in stores]
        self._store_dir = None if store_dir is None else str(store_dir)
        if not self._store_specs and self._store_dir is None:
            raise SpecificationError(
                "no stores to serve: give store files or store_dir"
            )
        self._requested_bound = cost_bound
        # Store opens run off the loop, one at a time -- see the
        # concurrency notes in the module docstring.
        self._opener = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-open"
        )
        self._registry: StoreRegistry | None = None
        self._reload_lock: asyncio.Lock | None = None
        self._started_monotonic = time.monotonic()
        self._started_epoch = round(time.time(), 3)
        self._last_reload_error: str | None = None
        # The process-wide metrics registry.  Every counter healthz
        # reports lives here (healthz reads values back out), and the
        # `metrics` op renders it as Prometheus text.
        self.telemetry = MetricsRegistry()
        reg = self.telemetry
        reg.gauge(
            "repro_build_info",
            "Build/version info as labels; value is always 1.",
            labels=("version",),
        ).set(1, version=__version__)
        reg.gauge(
            "repro_start_time_seconds",
            "Unix time the service object was created.",
            fn=lambda: self._started_epoch,
        )
        reg.gauge(
            "repro_uptime_seconds",
            "Seconds since the service object was created.",
            fn=lambda: round(time.monotonic() - self._started_monotonic, 3),
        )
        self._m_queries = reg.counter(
            "repro_requests_total",
            "Requests handled, by operation.",
            labels=("op",),
        )
        for op in OPERATIONS:
            self._m_queries.preseed(op)
        self._m_batches = reg.counter(
            "repro_batches_executed_total",
            "Query operations executed.",
        )
        self._m_errors = reg.counter(
            "repro_request_errors_total",
            "Failed requests by fault domain (client=4xx, server=5xx).",
            labels=("domain",),
        )
        self._m_errors.preseed("client")
        self._m_errors.preseed("server")
        self._m_reloads = reg.counter(
            "repro_store_reloads_total",
            "Successful registry reloads (SIGHUP or explicit).",
        )
        self._h_latency = reg.histogram(
            "repro_request_latency_ms",
            "End-to-end request latency in milliseconds, by operation.",
            labels=("op",),
        )
        self._h_queue_wait = reg.histogram(
            "repro_request_queue_wait_ms",
            "Queue wait before execution, by operation (0: nothing queues).",
            labels=("op",),
        )
        for stat in ("hits", "misses", "evictions"):
            reg.counter(
                f"repro_section_cache_{stat}_total",
                f"Process-wide v3 section cache {stat} since start.",
                fn=_section_cache_reader(stat),
            )
        for name in ("entries", "bytes", "max_bytes"):
            reg.gauge(
                f"repro_section_cache_{name}",
                f"Process-wide v3 section cache {name}.",
                fn=_section_cache_reader(name),
            )
        # Access-log writes run on their own single thread (ordered,
        # batched, fire-and-forget): a slow or hung log filesystem must
        # add latency to the *log*, never to the event loop serving
        # requests.  The shared writer also registers the log's own
        # observability metrics on this registry.
        self._log_writer: AccessLogWriter | None = None
        if access_log is not None:
            self._log_writer = AccessLogWriter(
                access_log,
                max_bytes=access_log_max_bytes,
                keep=access_log_keep,
                registry=reg,
            )

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def registry(self) -> StoreRegistry:
        if self._registry is None:
            raise ServerError("service is not started")
        return self._registry

    @property
    def state(self) -> StoreState:
        """The sole store's state (single-store compatibility accessor)."""
        sole = self.registry.sole()
        if sole is None:
            raise ServerError(
                "service serves multiple stores; use .registry"
            )
        return sole[1]

    def _build_registry(self) -> StoreRegistry:
        return build_registry(
            self._store_specs, self._store_dir, self._requested_bound
        )

    async def start(self) -> None:
        """Open the stores and start the access log (idempotent)."""
        if self._reload_lock is not None:
            return
        loop = asyncio.get_running_loop()
        if self._registry is None:
            self._registry = await loop.run_in_executor(
                self._opener, self._build_registry
            )
        if self._log_writer is not None:
            self._log_writer.start()
        self._reload_lock = asyncio.Lock()

    async def close(self) -> None:
        """Release the opener thread and drain the access log."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._opener.shutdown, True)
        if self._log_writer is not None:
            # Drain pending log lines before closing the file.
            await loop.run_in_executor(None, self._log_writer.close)

    async def reload(self) -> None:
        """Rebuild the whole registry and atomically swap it in (SIGHUP).

        Every named store is re-opened and ``store_dir`` re-scanned on
        the dedicated opener executor, while the loop keeps answering
        from the current registry.  A failed build keeps the current
        registry serving; the failure is recorded and surfaced via
        ``healthz``.
        """
        assert self._reload_lock is not None, "service not started"
        async with self._reload_lock:
            loop = asyncio.get_running_loop()
            try:
                registry = await loop.run_in_executor(
                    self._opener, self._build_registry
                )
            except Exception as exc:
                self._last_reload_error = f"{type(exc).__name__}: {exc}"
                return
            self._registry = registry  # atomic reference swap
            self._m_reloads.inc()
            self._last_reload_error = None

    # -- dispatch ----------------------------------------------------------------------

    async def handle(self, request: Request) -> dict:
        """Execute one request; returns the result payload or raises."""
        op = request.op
        self._m_queries.inc(op=op)
        started = time.perf_counter()
        alias: str | None = None
        try:
            if op == "healthz":
                result = self._do_healthz()
            elif op == "metrics":
                result = self._do_metrics()
            else:
                alias, state = self.registry.resolve(request.store)
                if op == "store-info":
                    result = self._do_store_info(alias, state)
                else:
                    self._m_batches.inc()
                    result = await _serve_query(state, op, request.params)
            execute = time.perf_counter() - started
        except Exception as exc:
            # The wire mapping already splits fault domains: 4xx
            # statuses are client mistakes, 5xx are server faults.
            payload, status = error_payload(exc)
            domain = "server" if status >= 500 else "client"
            self._m_errors.inc(domain=domain)
            # A request that failed to resolve its store logs the
            # selector it sent, so `repro replay` re-sends that selector.
            self._finish_request(
                request, request.store if alias is None else alias,
                started, 0.0, payload["code"],
            )
            raise
        self._finish_request(request, alias, started, execute, "ok")
        return result

    def _finish_request(
        self,
        request: Request,
        alias: str | None,
        started: float,
        execute: float,
        outcome: str,
    ) -> None:
        total = time.perf_counter() - started
        self._h_latency.observe(total * 1e3, op=request.op)
        self._h_queue_wait.observe(0.0, op=request.op)
        if self._log_writer is None:
            return
        record = {
            "ts": round(time.time(), 6),
            "op": request.op,
            "store": alias,
            "id": request.id,
            "queue_wait_ms": 0.0,
            "execute_ms": round(execute * 1e3, 3),
            "total_ms": round(total * 1e3, 3),
            "outcome": outcome,
        }
        # Correlation IDs, when the request carried them: the fields
        # that join this record to the router's view of the same
        # request (and its per-attempt span).  Untraced requests keep
        # the exact pre-tracing record shape.
        if request.trace_id is not None:
            record["trace_id"] = request.trace_id
        if request.span_id is not None:
            record["span_id"] = request.span_id
        # Query params make the record replayable (`repro replay`).
        # They arrived as decoded JSON, so they serialize back as-is;
        # counter ops (healthz/store-info) carry none worth keeping.
        if request.params and request.op in _QUERY_OPS:
            record["params"] = request.params
        # Fire-and-forget onto the log writer's queue: lines stay
        # ordered, and a stalled log device never blocks the loop.
        self._log_writer.submit(record)

    # -- service-level operations ------------------------------------------------------

    def _do_healthz(self) -> dict:
        registry = self._registry
        sole = None if registry is None else registry.sole()
        # Counter values are read back from the telemetry registry --
        # the single source of truth -- so this payload and a
        # ``GET /metrics`` scrape can never disagree.
        queries = {
            key[0]: int(value)
            for key, value in self._m_queries.values().items()
        }
        client_errors = int(self._m_errors.value(domain="client"))
        server_errors = int(self._m_errors.value(domain="server"))
        payload = {
            "status": "ok" if registry is not None else "starting",
            "pid": os.getpid(),
            "version": __version__,
            "start_time": self._started_epoch,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            # Single-store compatibility fields (null on multi-store).
            "store": None if sole is None else sole[1].path,
            "expanded_to": None if sole is None else sole[1].header.expanded_to,
            "serving_cost_bound": None if sole is None else sole[1].cost_bound,
            "stores": {} if registry is None else registry.describe(),
            "queries": queries,
            # One counter under both keys: every query op runs on its
            # own, so jobs per batch reads 1.0.
            "batches_executed": int(self._m_batches.value()),
            "jobs_coalesced": int(self._m_batches.value()),
            "errors": client_errors + server_errors,
            "client_errors": client_errors,
            "server_errors": server_errors,
            "reloads": int(self._m_reloads.value()),
            "last_reload_error": self._last_reload_error,
        }
        payload["section_cache"] = section_cache_stats()
        # Per-op percentiles are bucket estimates off the same
        # histograms, so each ``count`` equals the scraped ``_count``.
        for field, histogram in (("queue_wait_ms", self._h_queue_wait),
                                 ("latency_ms", self._h_latency)):
            payload[field] = {
                op: histogram.quantiles(op=op)
                for (op,) in histogram.label_sets()
            }
        return payload

    def _do_metrics(self) -> dict:
        """The ``metrics`` op: Prometheus exposition text, wrapped.

        The HTTP front end unwraps this into a raw ``text/plain``
        body; NDJSON peers receive the wrapper object as-is.
        """
        return {
            "content_type": METRICS_CONTENT_TYPE,
            "text": self.telemetry.render(),
        }

    def _do_store_info(self, alias: str, state: StoreState) -> dict:
        header = state.header
        cm = header.cost_model
        return {
            "alias": alias,
            "path": state.path,
            "format_version": header.format_version,
            "n_qubits": header.n_qubits,
            "degree": header.degree,
            "expanded_to": header.expanded_to,
            "serving_cost_bound": state.cost_bound,
            "total_seen": header.total_seen,
            "level_sizes": list(header.level_sizes),
            "track_parents": header.track_parents,
            "library_fingerprint": header.library_fingerprint,
            "cost_fingerprint": header.cost_fingerprint,
            "kernel": header.kernel,
            "writer": header.writer,
            "cost_model": {
                "v_cost": cm.v_cost,
                "vdag_cost": cm.vdag_cost,
                "cnot_cost": cm.cnot_cost,
                "not_cost": cm.not_cost,
            },
            "index_entries": len(state.batch.remainder_index),
            "gate_kinds": list(header.gate_kinds),
            "radix": header.radix,
            "library_family": header.library_family,
        }


# -- query functions (pure reads of frozen state) --------------------------------------


def _parse_spec(spec: object, n_qubits: int, radix: int):
    if not isinstance(spec, str):
        raise ProtocolError("target must be a spec string")
    return parse_target(spec, n_qubits, radix)


def _check_query_bound(state: StoreState, params: dict) -> int:
    bound = params.get("cost_bound")
    # bool is an int subclass: a JSON ``true`` is no bound.
    if bound is not None and (
        not isinstance(bound, int) or isinstance(bound, bool) or bound < 0
    ):
        raise ProtocolError("cost_bound must be a non-negative integer")
    return resolve_cost_bound(bound, state.cost_bound, state.path)


def _flag(params: dict, name: str, default: bool) -> bool:
    """A boolean query flag; ``"false"`` or ``0`` is refused, not truthy."""
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{name} must be a boolean")
    return value


def _synth_recorder(
    state: StoreState, bound: int, allow_not: bool, all_: bool
):
    """The per-target step of ``synth`` and ``synth-batch``, with the
    request's constants read once: a function from one parsed target
    to its certified wire records.

    Per target it strips the free NOT layer on the target's image
    bytes, looks the remainder up in the remainder index, certifies the
    first row's witness (every row's with *all_*) with
    :func:`~repro.core.mce.certify_row`, and writes each record from
    the witness's gates.  The records equal ``result_to_dict`` of
    ``BatchSynthesizer.synthesize`` (``synthesize_all``) with a query
    bound of *bound*, and so do the errors: a
    ``CostBoundExceededError`` cites *bound*, as a local
    ``BatchSynthesizer(search, cost_bound=bound)`` would.

    The returned function raises ReproError: a NOT layer with
    ``allow_not`` false, a counting-only store, no realization within
    *bound*, or a witness that fails certification
    (``StoreCorruptError``).
    """
    library = state.library
    n_qubits = library.n_qubits
    radix = library.space.radix
    identity = bytes(range(library.space.n_binary))
    search = state.batch.search
    witness_rows = state.batch.witness_rows
    names = state.gate_names

    def records(target) -> list[dict]:
        not_mask, remainder = strip_not_layer(
            target.images, library, allow_not
        )
        not_names = not_layer_names(not_mask, n_qubits)
        text = target.cycle_string()
        if remainder == identity:
            return [result_record(
                n_qubits, radix, not_names, text, 0, not_mask
            )]
        rows = witness_rows(remainder)
        out = []
        if rows is not None:
            for row in rows if all_ else rows[:1]:
                entries, cost, _cascade = certify_row(
                    search, row, not_mask, target
                )
                if cost <= bound:
                    gates = not_names + tuple(names[e.index] for e in entries)
                    out.append(result_record(
                        n_qubits, radix, gates, text, cost, not_mask
                    ))
        if not out:
            raise CostBoundExceededError(f"permutation {text}", bound)
        return out

    return records


def _run_synth(state: StoreState, params: dict) -> dict:
    library = state.library
    target = _parse_spec(
        params.get("target"), library.n_qubits, library.space.radix
    )
    records = _synth_recorder(
        state,
        _check_query_bound(state, params),
        _flag(params, "allow_not", True),
        _flag(params, "all", False),
    )(target)
    return {
        "target": records[0]["target"],
        "cost": records[0]["cost"],
        "results": records,
    }


def _synth_batch_chunks(state: StoreState, params: dict):
    """A ``synth-batch``'s entries, :data:`BATCH_CHUNK` targets at a time.

    One entry per spec, errors reported per entry, never wholesale.
    Each entry is :func:`_synth_recorder`'s first record, so an all-ok
    batch answers the records of
    :meth:`BatchSynthesizer.synthesize_many` (``tests/test_server.py``
    and ``benchmarks/bench_serve.py`` pin this); any per-target failure
    -- unparseable spec, over-bound cost -- becomes that entry's
    structured ``{ok: false, error}`` record instead of failing the
    sibling targets.
    """
    specs = params.get("targets")
    if not isinstance(specs, list):
        raise ProtocolError("targets must be a list of spec strings")
    bound = _check_query_bound(state, params)
    allow_not = _flag(params, "allow_not", True)
    records = _synth_recorder(state, bound, allow_not, False)
    n_qubits, radix = state.library.n_qubits, state.library.space.radix

    for first in range(0, len(specs), BATCH_CHUNK):
        chunk: list[dict] = []
        for spec in specs[first:first + BATCH_CHUNK]:
            try:
                (record,) = records(_parse_spec(spec, n_qubits, radix))
                chunk.append({"ok": True, "result": record})
            except ReproError as exc:
                chunk.append({"ok": False, "error": error_payload(exc)[0]})
        yield chunk


def _batch_reply(entries: list[dict]) -> dict:
    failures = sum(1 for entry in entries if not entry["ok"])
    return {"results": entries, "count": len(entries), "failures": failures}


async def _serve_query(state: StoreState, op: str, params: dict) -> dict:
    """:func:`execute_query` on the event loop, yielding between the
    chunks of a ``synth-batch`` so other connections get answered."""
    if op != "synth-batch":
        return execute_query(state, op, params)
    entries: list[dict] = []
    for chunk in _synth_batch_chunks(state, params):
        entries.extend(chunk)
        await asyncio.sleep(0)
    return _batch_reply(entries)


def execute_query(state: StoreState, op: str, params: dict) -> dict:
    """Run one store-touching query synchronously, outside any service.

    The same functions the live server runs (a ``synth-batch`` through
    the same chunks, without the yields), so the payload is
    byte-identical to what a server over the same store would answer
    -- this is what lets ``repro replay`` diff recorded responses
    against a locally opened golden store.

    Raises:
        ProtocolError: *op* is not a store query.
    """
    if op == "synth":
        return _run_synth(state, params)
    if op == "synth-batch":
        return _batch_reply([
            entry
            for chunk in _synth_batch_chunks(state, params)
            for entry in chunk
        ])
    if op == "cost-table":
        return _run_cost_table(state, params)
    raise ProtocolError(f"{op!r} is not a store query")


def _run_cost_table(state: StoreState, params: dict) -> dict:
    # Same validation and error codes as the synth endpoints; the full
    # table was built once at open, so a bound is just a slice (class
    # membership by *minimal* cost never changes with the bound).
    bound = _check_query_bound(state, params)
    table = state.table
    classes = table.classes[: bound + 1]
    payload = {
        "cost_bound": bound,
        "n_qubits": table.n_qubits,
        "g_sizes": [len(members) for members in classes],
        "b_sizes": list(table.b_sizes[: bound + 1]),
        "a_sizes": list(table.a_sizes[: bound + 1]),
    }
    if _flag(params, "include_members", False):
        # No member leaves unchecked: each one's witness is certified.
        state.batch.certify_members(bound)
        payload["members"] = [
            [perm.cycle_string() for perm in members]
            for members in classes
        ]
    return payload
