"""The fleet front: one address, N replicas, failures stay inside.

:class:`RouterService` duck-types
:class:`~repro.server.service.SynthesisService` (``start`` / ``close``
/ ``handle``), so the existing :class:`~repro.server.app.ReproServer`
front end -- sniffed HTTP/NDJSON framing, graceful drain, signal
handling -- serves a whole fleet unchanged: clients point their
existing :class:`~repro.client.ServeClient` at the router and cannot
tell it from a single server, except that backend crashes, hangs and
resets stop being their problem.

Routing and failure policy, per request:

* **Consistent hashing** (:class:`HashRing`): the request's store
  selector picks a stable preference order over the replicas, so a
  given store's queries concentrate on the same backend (warm caches)
  while every other replica remains a ready failover target, and
  adding or removing one replica only reshuffles ~1/N of the keys.
* **Circuit breakers** (:class:`CircuitBreaker`): consecutive
  transport failures open a per-backend breaker; an open breaker
  rejects candidates instantly (no connect timeouts on a corpse) until
  a cooldown passes, then exactly one **probe** request is let through
  (half-open) to decide between closing it and re-opening it.
* **Bounded retries with jittered backoff**: transport failures
  (connect refusal, dropped connection, per-attempt timeout) and
  server-fault responses (:data:`~repro.server.protocol.SERVER_FAULT_CODES`)
  fail over to the next replica in ring order -- safe to re-send
  blindly because every fleet operation is an idempotent read.
  Client-mistake errors (4xx codes) are returned immediately: they
  would fail identically on every replica.
* **Bounded in-flight, load shedding**: each backend accepts at most
  ``max_inflight`` concurrent round trips through the router.  When
  every admitted, breaker-closed replica is full the router *sheds*
  the request with a structured ``FLEET_OVERLOADED`` error (HTTP 503)
  instead of queueing -- under overload, fast refusal beats a growing
  invisible queue every time.

The supervisor (:mod:`repro.fleet.supervisor`) drives admission from
outside: :meth:`RouterService.set_admitted` ejects a replica from
candidate selection (it stays in the ring, so re-admission restores
the exact same key affinity) and :meth:`RouterService.reset_backend`
clears its breaker after a restart.

Byte-identity: the router forwards the replica's result bytes.  It
still parses every reply and classifies it (so validation and failover
are unchanged), and when the reply line is exactly
``{"id":<sent id>,"ok":true,"result":{...}[,"trace_id":<sent trace>]}``
:meth:`RouterService.handle` returns the result object's byte span,
which the front end splices into its own response in place of
``json.dumps(result)``.  A routed response is therefore byte-identical
to one from the replica itself by construction -- the fleet e2e tests
pin this on raw NDJSON lines and HTTP bodies.  Any other reply shape
(reordered or extra keys, whitespace, non-ASCII bytes) takes the
re-encode path: the parsed result is re-encoded with the settings the
replicas use, and ``json.loads`` preserves key order.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import random
import time

from repro._version import __version__
from repro.errors import FleetOverloadedError, InvalidValueError, ServerError
from repro.server.protocol import (
    MAX_BODY,
    Request,
    SERVER_FAULT_CODES,
    error_payload,
    error_to_exception,
    parse_endpoint,
)
from repro.telemetry import (
    METRICS_CONTENT_TYPE,
    AccessLogWriter,
    MetricsRegistry,
    TraceSource,
)

#: Stream limit for router->backend connections.  Requests are capped
#: at MAX_BODY by the backends, but *responses* are legitimately
#: unbounded (a big batch returns more than it asked with), so the
#: router's read buffer must be far roomier than its write side.
ROUTER_STREAM_LIMIT = MAX_BODY * 8

#: Virtual points per backend on the hash ring: enough that the load
#: split across replicas stays within a few percent of even.
VIRTUAL_POINTS = 64
#: Keys whose ring order :class:`HashRing` caches before it starts over
#: (keys are request selectors, so the cache must stay bounded).
ORDER_CACHE_KEYS = 1024

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05
MAX_RETRY_BACKOFF = 1.0
DEFAULT_ATTEMPT_TIMEOUT = 30.0
DEFAULT_MAX_INFLIGHT = 32
DEFAULT_POOL_SIZE = 4
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 1.0

#: Parses a reply's result object where it lies in the line, with the
#: same scanner ``json.loads`` runs, so its end offset is known.
_DECODER = json.JSONDecoder()


def _ring_hash(text: str) -> int:
    """Stable 64-bit ring position for a name/key (sha256 prefix)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_reply(
    reply: bytes, request_id: int, trace_id: str
) -> tuple[dict, bytes | None]:
    """A backend reply line as an object, plus its forwardable result bytes.

    The bytes are the result object's span, returned only when the
    line is exactly ``{"id":<request_id>,"ok":true,"result":{...}}``
    with an optional ``"trace_id":<trace_id>`` key last, compact and
    ASCII, which is how :func:`~repro.server.protocol.encode_response`
    writes it.  Any other line is parsed whole with ``json.loads`` and
    comes back with ``None``.

    Raises:
        ValueError: the line is not JSON or not a JSON object.
    """
    head = b'{"id":%d,"ok":true,"result":' % request_id
    if reply.startswith(head) and reply.isascii():
        text = reply.decode("ascii")
        try:
            result, end = _DECODER.raw_decode(text, len(head))
        except ValueError:
            result = None
        if isinstance(result, dict):
            response = {"id": request_id, "ok": True, "result": result}
            rest = text[end:]
            if rest == "}\n":
                return response, reply[len(head):end]
            if rest == ',"trace_id":' + json.dumps(trace_id) + "}\n":
                response["trace_id"] = trace_id
                return response, reply[len(head):end]
    response = json.loads(reply)
    if not isinstance(response, dict):
        raise ValueError("backend response is not a JSON object")
    return response, None


class HashRing:
    """Consistent-hash ring over backend names.

    Each member contributes *points* virtual positions (``name#i``
    hashes), so keys spread evenly and removing one member only moves
    the keys that hashed to *its* arcs.  :meth:`order` returns the full
    preference order for a key -- element 0 is the home replica, the
    rest are failover targets in deterministic ring-walk order, so
    every router instance given the same membership routes and fails
    over identically.
    """

    def __init__(self, points: int = VIRTUAL_POINTS):
        if points < 1:
            raise ValueError("ring needs at least one point per member")
        self._points = points
        self._ring: list[tuple[int, str]] = []
        self._names: set[str] = set()
        #: key -> its preference order; valid until the membership
        #: changes (add/remove clear it).
        self._orders: dict[str, tuple[str, ...]] = {}

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._names)

    def add(self, name: str) -> None:
        if name in self._names:
            return
        self._names.add(name)
        self._orders.clear()
        for index in range(self._points):
            bisect.insort(self._ring, (_ring_hash(f"{name}#{index}"), name))

    def remove(self, name: str) -> None:
        if name not in self._names:
            return
        self._names.discard(name)
        self._orders.clear()
        self._ring = [(point, n) for point, n in self._ring if n != name]

    def order(self, key: str) -> tuple[str, ...]:
        """All member names, preference-ordered for *key*.

        Cached per key (at most :data:`ORDER_CACHE_KEYS` keys, since
        keys come from requests): a routed request pays a dict lookup,
        not a sha256 and a ring walk.
        """
        cached = self._orders.get(key)
        if cached is not None:
            return cached
        if len(self._orders) >= ORDER_CACHE_KEYS:
            self._orders.clear()
        ordered = self._orders[key] = self._walk(key)
        return ordered

    def _walk(self, key: str) -> tuple[str, ...]:
        """The preference order for *key*, walked off the ring."""
        if not self._ring:
            return ()
        start = bisect.bisect_left(self._ring, (_ring_hash(key), ""))
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._ring)):
            _point, name = self._ring[(start + offset) % len(self._ring)]
            if name not in seen:
                seen.add(name)
                ordered.append(name)
                if len(ordered) == len(self._names):
                    break
        return tuple(ordered)


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for one backend.

    *threshold* consecutive failures trip the breaker **open**: every
    ``allow()`` is refused for *cooldown* seconds, so a dead backend
    costs one failed burst, not a connect timeout per request forever.
    After the cooldown the breaker goes **half-open** and admits
    exactly one probe request; its outcome decides -- success closes
    the breaker, failure re-opens it for another cooldown.

    All state lives on the event-loop thread; *clock* is injectable so
    tests can step time explicitly.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probe_active = False
        #: Lifetime count of closed->open trips (ops visibility).
        self.opened_total = 0

    @property
    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` (cooldown-aware)."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown
        ):
            return "half-open"
        return self._state

    def allow(self) -> bool:
        """May a request go to this backend right now?

        Has a side effect in the half-open state: a ``True`` answer
        *claims* the single probe slot, so callers must follow up with
        ``record_success``/``record_failure`` (or ``release_probe`` if
        the request never happened).
        """
        if self._state == "closed":
            return True
        if self._state == "open":
            if self._clock() - self._opened_at < self.cooldown:
                return False
            self._state = "half-open"
            self._probe_active = True
            return True
        if self._probe_active:
            return False
        self._probe_active = True
        return True

    def record_success(self) -> None:
        self._state = "closed"
        self._failures = 0
        self._probe_active = False

    def record_failure(self) -> None:
        if self._state == "half-open":
            self._trip()
            return
        self._failures += 1
        if self._state == "closed" and self._failures >= self.threshold:
            self._trip()

    def release_probe(self) -> None:
        """Un-claim a probe that was allowed but never completed."""
        if self._state == "half-open":
            self._probe_active = False

    def reset(self) -> None:
        """Back to pristine closed (a restarted backend earns trust)."""
        self.record_success()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._failures = 0
        self._probe_active = False
        self.opened_total += 1


class Backend:
    """One replica: endpoint, admission, breaker, pool and counters."""

    def __init__(
        self,
        name: str,
        endpoint: str,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        pool_size: int = DEFAULT_POOL_SIZE,
        breaker: CircuitBreaker | None = None,
    ):
        if max_inflight < 1:
            raise InvalidValueError("max_inflight must be >= 1")
        self.name = name
        self.endpoint = endpoint
        self.family, self.target = parse_endpoint(endpoint)
        #: Supervisor-controlled: an ejected backend stays in the ring
        #: (stable key affinity) but is skipped by candidate selection.
        self.admitted = True
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.max_inflight = max_inflight
        self.inflight = 0
        self.requests = 0
        self.failures = 0
        #: The replica's reported ``repro`` version, filled in by the
        #: supervisor's healthz probes -- fleet status compares these
        #: across replicas to flag version skew after a partial deploy.
        self.version: str | None = None
        self._pool: list[tuple] = []
        self._pool_size = pool_size

    async def acquire(self):
        """A ``(reader, writer)`` to this backend: pooled or fresh."""
        while self._pool:
            reader, writer = self._pool.pop()
            if writer.is_closing():
                continue
            return reader, writer
        if self.family == "unix":
            return await asyncio.open_unix_connection(
                self.target, limit=ROUTER_STREAM_LIMIT
            )
        host, port = self.target
        return await asyncio.open_connection(
            host, port, limit=ROUTER_STREAM_LIMIT
        )

    def release(self, connection) -> None:
        """Return a healthy connection for reuse (or close the excess)."""
        _reader, writer = connection
        if len(self._pool) < self._pool_size and not writer.is_closing():
            self._pool.append(connection)
        else:
            writer.close()

    def discard(self, connection) -> None:
        """Drop a connection that saw a failure: never reuse it."""
        _reader, writer = connection
        try:
            writer.transport.abort()
        except Exception:  # noqa: BLE001 -- already torn down
            pass

    async def close(self) -> None:
        for _reader, writer in self._pool:
            writer.close()
        self._pool.clear()

    def describe(self) -> dict:
        payload = {
            "endpoint": self.endpoint,
            "admitted": self.admitted,
            "breaker": self.breaker.state,
            "breaker_opened_total": self.breaker.opened_total,
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "requests": self.requests,
            "failures": self.failures,
        }
        if self.version is not None:
            payload["version"] = self.version
        return payload


class RouterService:
    """Routes protocol requests across replicas; the fleet's "service".

    Args:
        backends: ``{name: endpoint}`` -- endpoints in any form
            :func:`~repro.server.protocol.parse_endpoint` accepts.
        retries: failover attempts *after* the first (transport
            failures and 5xx-mapped server faults only).
        backoff: base jittered backoff between failover attempts.
        attempt_timeout: per-attempt round-trip deadline; a hung
            backend costs one timeout, then its replicas take over.
        max_inflight: per-backend concurrent round-trip bound; beyond
            it the backend is skipped, and if *every* candidate is full
            the request is shed with ``FLEET_OVERLOADED``.
        breaker_threshold / breaker_cooldown: see :class:`CircuitBreaker`.
        seed: RNG seed for the retry jitter (deterministic tests).
        trace_source: mints ``trace_id``/``span_id`` (shared with the
            front-end :class:`~repro.server.app.ReproServer` by
            ``run_fleet``); defaults to a fresh urandom-backed source.
        access_log: append one NDJSON record per *routed* request
            (trace ID, per-attempt backend/span/outcome, total time),
            through the same batched writer and rotation as the
            replica access logs.
    """

    def __init__(
        self,
        backends: dict[str, str],
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        attempt_timeout: float = DEFAULT_ATTEMPT_TIMEOUT,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        seed: int = 0,
        trace_source: TraceSource | None = None,
        access_log: str | None = None,
        access_log_max_bytes: int | None = None,
        access_log_keep: int | None = None,
    ):
        if not backends:
            raise ServerError("a fleet needs at least one backend")
        if retries < 0:
            raise InvalidValueError("retries must be >= 0")
        self._retries = retries
        self._backoff = backoff
        self._attempt_timeout = attempt_timeout
        self._max_inflight = max_inflight
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._rng = random.Random(seed)
        self._ring = HashRing()
        self._backends: dict[str, Backend] = {}
        for name, endpoint in backends.items():
            self.add_backend(name, endpoint)
        self._started_monotonic = time.monotonic()
        self._started_epoch = round(time.time(), 3)
        self._next_id = 0
        self._traces = trace_source if trace_source is not None else TraceSource()
        # The router's own telemetry registry (served on `/metrics` by
        # the same front end that serves the replicas').  Healthz reads
        # the routed/failovers/shed values back out of these counters.
        self.telemetry = MetricsRegistry()
        reg = self.telemetry
        reg.gauge(
            "repro_build_info",
            "Build/version info as labels; value is always 1.",
            labels=("version",),
        ).set(1, version=__version__)
        reg.gauge(
            "repro_start_time_seconds",
            "Unix time the router object was created.",
            fn=lambda: self._started_epoch,
        )
        reg.gauge(
            "repro_uptime_seconds",
            "Seconds since the router object was created.",
            fn=lambda: round(time.monotonic() - self._started_monotonic, 3),
        )
        self._m_requests = reg.counter(
            "repro_router_requests_total",
            "Requests the router front end received, by operation.",
            labels=("op",),
        )
        self._m_routed = reg.counter(
            "repro_routed_total",
            "Requests routed toward a backend (healthz/metrics excluded).",
        )
        self._m_failovers = reg.counter(
            "repro_failovers_total",
            "Delivery attempts that failed and moved to another replica.",
        )
        self._m_shed = reg.counter(
            "repro_shed_total",
            "Requests shed with FLEET_OVERLOADED (every candidate full).",
        )
        self._h_attempt = reg.histogram(
            "repro_route_attempt_ms",
            "Successful round-trip time to a backend, by backend.",
            labels=("backend",),
        )
        reg.counter(
            "repro_backend_requests_total",
            "Delivery attempts sent, by backend.",
            labels=("backend",),
            fn=lambda: {
                name: b.requests for name, b in self._backends.items()
            },
        )
        reg.counter(
            "repro_backend_failures_total",
            "Failed delivery attempts, by backend.",
            labels=("backend",),
            fn=lambda: {
                name: b.failures for name, b in self._backends.items()
            },
        )
        reg.counter(
            "repro_backend_breaker_opened_total",
            "Circuit-breaker trips, by backend.",
            labels=("backend",),
            fn=lambda: {
                name: b.breaker.opened_total
                for name, b in self._backends.items()
            },
        )
        reg.gauge(
            "repro_backend_inflight",
            "Router-side in-flight round trips, by backend.",
            labels=("backend",),
            fn=lambda: {
                name: b.inflight for name, b in self._backends.items()
            },
        )
        reg.gauge(
            "repro_backend_admitted",
            "1 when the supervisor admits this backend, else 0.",
            labels=("backend",),
            fn=lambda: {
                name: int(b.admitted) for name, b in self._backends.items()
            },
        )
        self._log_writer: AccessLogWriter | None = None
        if access_log is not None:
            self._log_writer = AccessLogWriter(
                access_log,
                max_bytes=access_log_max_bytes,
                keep=access_log_keep,
                registry=reg,
            )

    # -- membership (the supervisor's control surface) ---------------------------------

    @property
    def backends(self) -> dict[str, Backend]:
        return dict(self._backends)

    def backend(self, name: str) -> Backend:
        try:
            return self._backends[name]
        except KeyError:
            raise ServerError(f"unknown backend {name!r}") from None

    def add_backend(self, name: str, endpoint: str) -> None:
        if name in self._backends:
            raise ServerError(f"duplicate backend {name!r}")
        self._backends[name] = Backend(
            name,
            endpoint,
            max_inflight=self._max_inflight,
            breaker=CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown
            ),
        )
        self._ring.add(name)

    def set_admitted(self, name: str, admitted: bool) -> bool:
        """Eject from / re-admit to candidate selection; True if changed."""
        backend = self.backend(name)
        changed = backend.admitted != admitted
        backend.admitted = admitted
        return changed

    def reset_backend(self, name: str) -> None:
        """Clear a backend's breaker (after a verified restart)."""
        self.backend(name).breaker.reset()

    # -- service protocol --------------------------------------------------------------

    async def start(self) -> None:
        """Open the access log; backend connections stay lazy."""
        if self._log_writer is not None:
            self._log_writer.start()

    async def close(self) -> None:
        for backend in self._backends.values():
            await backend.close()
        if self._log_writer is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._log_writer.close)

    async def handle(self, request: Request) -> dict | bytes:
        """Route one request; raises the mapped library exception.

        Returns the result object, or its encoded bytes as the replica
        wrote them when the reply had the exact forwardable shape (see
        the module docstring); the front end's encoders take either.
        """
        self._m_requests.inc(op=request.op)
        if request.op == "healthz":
            return self._do_healthz()
        if request.op == "metrics":
            return self._do_metrics()
        self._m_routed.inc()
        # The router is the tracing edge: requests normally arrive with
        # a trace_id already minted by the front-end ReproServer (same
        # TraceSource); a bare RouterService mints its own here.
        trace_id = request.trace_id or self._traces.trace_id()
        attempts: list[dict] = []
        started_ts = round(time.time(), 6)
        started = time.perf_counter()
        try:
            result = await self._route(request, trace_id, attempts)
        except Exception as exc:
            self._log_request(request, trace_id, attempts,
                              error_payload(exc)[0]["code"],
                              started_ts, started)
            raise
        self._log_request(request, trace_id, attempts, "ok",
                          started_ts, started)
        return result

    async def _route(
        self, request: Request, trace_id: str, attempts: list[dict]
    ) -> dict | bytes:
        order = self._ring.order(request.store or "")
        self._next_id += 1
        payload: dict = {
            "id": self._next_id,
            "op": request.op,
            "params": request.params,
        }
        if request.store is not None:
            payload["store"] = request.store
        payload["trace_id"] = trace_id

        tried: set[str] = set()
        last_error: Exception | None = None
        delay = self._backoff
        for attempt in range(self._retries + 1):
            backend, saw_full = self._select(order, tried)
            if backend is None and last_error is not None and tried:
                # Every replica has been tried once; allow a second
                # round -- a just-restarted backend may answer now.
                tried.clear()
                backend, saw_full = self._select(order, tried)
            if backend is None:
                if saw_full:
                    self._m_shed.inc()
                    raise FleetOverloadedError(
                        "fleet overloaded: every admitted replica is at "
                        "its in-flight limit; request shed, retry with "
                        "backoff"
                    )
                if last_error is not None:
                    raise last_error
                raise ServerError(
                    "no admitted backends available to route to"
                )
            if attempt and delay > 0:
                await asyncio.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2, MAX_RETRY_BACKOFF)
            tried.add(backend.name)
            backend.requests += 1
            backend.inflight += 1
            # One span per delivery attempt: the id a replica echoes
            # into its own access-log record, making the router's
            # attempt list join one-to-one with replica records.
            span_id = self._traces.span_id()
            payload["span_id"] = span_id
            entry = {"backend": backend.name, "span_id": span_id}
            attempts.append(entry)
            line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
            started = time.perf_counter()
            try:
                response, span = await asyncio.wait_for(
                    self._roundtrip(backend, line, payload["id"], trace_id),
                    self._attempt_timeout,
                )
            except asyncio.CancelledError:
                backend.breaker.release_probe()
                entry["outcome"] = "cancelled"
                raise
            except (OSError, TimeoutError, ValueError,
                    asyncio.LimitOverrunError) as exc:
                backend.failures += 1
                backend.breaker.record_failure()
                self._m_failovers.inc()
                detail = str(exc) or type(exc).__name__
                entry["outcome"] = "transport-error"
                entry["detail"] = detail
                last_error = ServerError(
                    f"backend {backend.name} ({backend.endpoint}) "
                    f"failed: {detail}"
                )
                continue
            finally:
                backend.inflight -= 1
                entry["ms"] = round((time.perf_counter() - started) * 1e3, 3)
            self._h_attempt.observe(entry["ms"], backend=backend.name)

            fault = self._classify(backend, payload["id"], response)
            if fault is not None:
                backend.failures += 1
                backend.breaker.record_failure()
                self._m_failovers.inc()
                entry["outcome"] = error_payload(fault)[0]["code"]
                last_error = fault
                continue
            backend.breaker.record_success()
            if response.get("ok"):
                entry["outcome"] = "ok"
                return response["result"] if span is None else span
            # A structured client-mistake error: the backend is healthy
            # and every replica would answer identically -- re-raise it
            # so the front end re-encodes the exact same payload.
            error = response.get("error") or {}
            entry["outcome"] = str(error.get("code", "internal"))
            raise error_to_exception(error)
        assert last_error is not None
        raise last_error

    def _log_request(
        self,
        request: Request,
        trace_id: str,
        attempts: list[dict],
        outcome: str,
        started_ts: float,
        started: float,
    ) -> None:
        """One router access record per routed request.

        Carries the same required fields as a replica record (so
        :func:`repro.io.load_access_log` reads both) plus the trace ID
        and the full attempt list; the router has no queue, so
        ``queue_wait_ms`` is structurally 0.
        """
        if self._log_writer is None:
            return
        total_ms = round((time.perf_counter() - started) * 1e3, 3)
        record = {
            "ts": started_ts,
            "op": request.op,
            "store": request.store,
            "id": request.id,
            "trace_id": trace_id,
            "queue_wait_ms": 0.0,
            "execute_ms": total_ms,
            "total_ms": total_ms,
            "outcome": outcome,
            "backend": attempts[-1]["backend"] if attempts else None,
            "attempts": attempts,
        }
        self._log_writer.submit(record)

    def _do_metrics(self) -> dict:
        """The ``metrics`` op: the router's registry as exposition text."""
        return {
            "content_type": METRICS_CONTENT_TYPE,
            "text": self.telemetry.render(),
        }

    # -- internals ---------------------------------------------------------------------

    def _select(
        self, order: tuple[str, ...], tried: set[str]
    ) -> tuple[Backend | None, bool]:
        """First usable candidate in ring order, plus a saw-full flag.

        The breaker is consulted *last*: a half-open ``allow()`` claims
        the probe slot, so it must only run for a candidate that would
        otherwise be chosen.  ``saw_full`` is True only when at least
        one admitted, breaker-willing replica was skipped purely on the
        in-flight bound -- the precondition for shedding rather than
        erroring.
        """
        saw_full = False
        for name in order:
            backend = self._backends[name]
            if name in tried or not backend.admitted:
                continue
            if backend.inflight >= backend.max_inflight:
                if backend.breaker.state != "open":
                    saw_full = True
                continue
            if not backend.breaker.allow():
                continue
            return backend, saw_full
        return None, saw_full

    async def _roundtrip(
        self, backend: Backend, line: bytes, request_id: int, trace_id: str
    ) -> tuple[dict, bytes | None]:
        """One request line out, one parsed reply back (pooled).

        Returns the reply object and, when forwardable, its result
        bytes (:func:`_parse_reply`).
        """
        connection = await backend.acquire()
        reader, writer = connection
        ok = False
        try:
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            if not reply:
                raise ConnectionError("backend closed the connection")
            parsed = _parse_reply(reply, request_id, trace_id)
            ok = True
            return parsed
        finally:
            if ok:
                backend.release(connection)
            else:
                backend.discard(connection)

    def _classify(
        self, backend: Backend, request_id: int, response: dict
    ) -> Exception | None:
        """A response's fault, or None if it is trustworthy.

        Server faults (5xx codes), id mismatches and shape violations
        count against the breaker and are retried elsewhere; anything
        else -- success or a client-mistake error -- is final.
        """
        if response.get("id") != request_id:
            return ServerError(
                f"backend {backend.name} answered id "
                f"{response.get('id')!r} to request {request_id}"
            )
        if response.get("ok"):
            if not isinstance(response.get("result"), dict):
                return ServerError(
                    f"backend {backend.name} sent an ok response "
                    "without a result object"
                )
            return None
        error = response.get("error") or {}
        code = str(error.get("code", "internal")) if isinstance(
            error, dict
        ) else "internal"
        if code in SERVER_FAULT_CODES:
            return error_to_exception(error if isinstance(error, dict) else {})
        return None

    def _describe_backend(self, backend: Backend) -> dict:
        """One backend's healthz entry, with its attempt-latency quantiles."""
        payload = backend.describe()
        latency = self._h_attempt.quantiles(backend=backend.name)
        if latency is not None:
            payload["latency_ms"] = latency
        return payload

    def _do_healthz(self) -> dict:
        """The router's own health view (answered locally, never routed)."""
        healthy = sum(
            1 for backend in self._backends.values()
            if backend.admitted and backend.breaker.state != "open"
        )
        return {
            "status": "ok" if healthy else "degraded",
            "role": "router",
            "pid": os.getpid(),
            "version": __version__,
            "start_time": self._started_epoch,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "backends": {
                name: self._describe_backend(backend)
                for name, backend in sorted(self._backends.items())
            },
            "healthy_backends": healthy,
            "admitted_backends": sum(
                1 for backend in self._backends.values() if backend.admitted
            ),
            # Read back from the telemetry counters (single source of
            # truth) so healthz and a /metrics scrape always agree.
            "routed": int(self._m_routed.value()),
            "failovers": int(self._m_failovers.value()),
            "shed": int(self._m_shed.value()),
            "retries": self._retries,
            "attempt_timeout_s": self._attempt_timeout,
        }
