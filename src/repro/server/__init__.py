"""Long-lived synthesis service over a precomputed closure store.

With the v2 memory-mapped store opening in milliseconds
(:mod:`repro.core.store`), the remaining cost of ``repro synth
--store`` is process lifecycle: every CLI invocation pays Python
startup, opens the store, answers exactly one query and exits.  This
package keeps one process -- and one shared, frozen, read-only
:class:`~repro.core.batch.BatchSynthesizer` -- alive behind a TCP
listener, so the marginal query costs a socket round trip instead of an
interpreter launch (``benchmarks/bench_serve.py`` tracks the gap).

Public API
----------

The stable, documented surface of the service stack:

* :class:`~repro.server.service.SynthesisService` -- the
  framing-independent core: owns the registry of open stores and
  answers every operation on the event loop; ``await
  handle(request)`` per query; ``await reload()`` for an atomic
  registry swap.
* :class:`~repro.server.registry.StoreRegistry` -- many stores behind
  one server, routed per request by alias or ``(library, cost-model)``
  fingerprints (:mod:`repro.server.registry`).
* :class:`~repro.server.app.ReproServer` -- asyncio front end binding
  the TCP (and optional UNIX-socket) listeners and sniffing HTTP vs
  NDJSON per connection.
* :func:`~repro.server.app.run_server` -- blocking entry point with
  signal handling (what ``repro serve`` calls).
* :class:`~repro.server.app.BackgroundServer` -- the same stack on a
  daemon thread, for tests, benchmarks and embedding.
* :mod:`repro.server.protocol` -- the wire protocol: operations,
  request/response framing, the structured error-code mapping
  (:func:`~repro.server.protocol.error_payload` /
  :func:`~repro.server.protocol.error_to_exception`),
  :func:`~repro.server.protocol.parse_address` and
  :func:`~repro.server.protocol.parse_endpoint`.

Per-op queue-wait and latency percentiles on ``healthz`` are read off
the service's :class:`~repro.telemetry.Histogram` series, the same
ones ``GET /metrics`` renders.

The matching client lives in :mod:`repro.client`
(:class:`~repro.client.ServeClient`); the CLI verbs are ``repro serve``
and ``repro synth --server HOST:PORT`` (or ``--server unix:PATH``).
Everything here is standard library only (asyncio + sockets + json) --
serving adds no dependencies beyond the core package.

The service is deliberately *query-only*: stores are produced by
``repro precompute`` and reloaded wholesale on SIGHUP; nothing ever
writes through the server.  That matches the artifact's nature -- the
paper's closure for a fixed (library, cost model) pair never changes --
and keeps the concurrency story trivial (see the thread-safety contract
on :class:`~repro.core.batch.BatchSynthesizer`).
"""

from importlib import import_module as _import_module

#: Exported name -> defining module, imported on first use (PEP 562):
#: the fleet router needs the protocol and the front end, never the
#: closure engine behind :class:`SynthesisService`.
_EXPORTS = {
    "BackgroundServer": "repro.server.app",
    "ReproServer": "repro.server.app",
    "run_server": "repro.server.app",
    "DEFAULT_PORT": "repro.server.protocol",
    "OPERATIONS": "repro.server.protocol",
    "Request": "repro.server.protocol",
    "error_payload": "repro.server.protocol",
    "error_to_exception": "repro.server.protocol",
    "parse_address": "repro.server.protocol",
    "parse_endpoint": "repro.server.protocol",
    "StoreRegistry": "repro.server.registry",
    "build_registry": "repro.server.registry",
    "StoreState": "repro.server.service",
    "SynthesisService": "repro.server.service",
    "open_store_state": "repro.server.service",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "BackgroundServer",
    "DEFAULT_PORT",
    "OPERATIONS",
    "ReproServer",
    "Request",
    "StoreRegistry",
    "StoreState",
    "SynthesisService",
    "build_registry",
    "error_payload",
    "error_to_exception",
    "open_store_state",
    "parse_address",
    "parse_endpoint",
    "run_server",
]
