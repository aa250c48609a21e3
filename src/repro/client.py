"""Thin client for the ``repro serve`` synthesis service.

:class:`ServeClient` speaks the NDJSON IPC framing of
:mod:`repro.server.protocol` over one persistent socket: connect once,
then every query is a single JSON line each way.  Errors come back as
structured payloads and are re-raised as the *same*
:class:`~repro.errors.ReproError` subclasses the local
:class:`~repro.core.batch.BatchSynthesizer` would raise -- a
:class:`~repro.errors.CostBoundExceededError` from a server has a
byte-identical message to one from a local store, so CLI output and
``except`` clauses work unchanged against either backend.

:func:`http_request` is the HTTP sibling for one-shot calls (health
checks, curl-style tooling) and :func:`wait_until_ready` polls a
server's ``healthz`` until it accepts queries.

Endpoints are either TCP (``host:port`` forms) or UNIX-socket
(``unix:/path/to.sock``); both speak the identical protocol.  Against
a multi-store server, pass ``store=`` (an alias or ``LIBFP:COSTFP``
fingerprint pair) per call or as the client-wide default.

Example::

    from repro.client import ServeClient

    with ServeClient("127.0.0.1:7205") as client:
        print(client.healthz()["status"])
        record = client.synth("toffoli")["results"][0]
        results = client.synth_results("toffoli")  # certified SynthesisResult

    with ServeClient("unix:/tmp/repro.sock", store="deep") as client:
        client.synth_batch(["toffoli", "peres"])

Everything here is standard library only (socket + json).
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

from repro.errors import InvalidValueError, ProtocolError, ServerError
from repro.server.protocol import (
    DEFAULT_PORT,
    MAX_BODY,
    error_to_exception,
    parse_endpoint,
)

DEFAULT_TIMEOUT = 30.0

#: Ceiling on the retry backoff between attempts, in seconds.
MAX_BACKOFF = 2.0

#: Longest sleep between :func:`wait_until_ready` polls, in seconds.  A
#: refused connect costs microseconds, and a fleet cannot route until
#: its last replica is seen, so polls stay short.
READY_POLL_CAP = 0.02


class _TransportFailure(Exception):
    """Internal: a retryable transport-level failure (never surfaced).

    Wraps the exception that :meth:`ServeClient.call` would raise for a
    failed connect, a dropped connection mid-round-trip, or a peer that
    closed without replying -- the only failures where retrying against
    a reconnected socket is safe *and* can't double-apply anything (the
    service is query-only, so every operation is idempotent).
    Protocol-level garbage (non-JSON, mismatched ids, structured
    errors) is NOT wrapped: the server is reachable and answering,
    retrying would just repeat the same exchange.
    """

    def __init__(self, error: Exception):
        super().__init__(str(error))
        self.error = error


def _open_socket(family: str, target, timeout: float) -> socket.socket:
    """Connect a TCP or AF_UNIX stream socket (parse_endpoint's output)."""
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        return sock
    sock = socket.create_connection(target, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class ServeClient:
    """Persistent NDJSON connection to one ``repro serve`` instance.

    Args:
        address: ``host:port`` / ``:port`` / ``port`` /
            ``unix:/path/to.sock`` (see
            :func:`repro.server.protocol.parse_endpoint`).
        timeout: per-response socket timeout in seconds.
        store: default store selector sent with every request (a
            registry alias or ``LIBFP:COSTFP`` fingerprints); ``None``
            targets a single-store server's sole store.
        retries: transport-failure retries per call (default 0 -- off,
            preserving the historical fail-fast behavior exactly).
            Each retry reconnects from scratch, so a restarted server
            is picked up transparently.  Only *transport* failures are
            retried (connect errors, dropped connections, empty
            replies); structured errors and protocol violations are
            raised immediately -- the server answered, so retrying
            cannot help.  All service operations are idempotent reads,
            which is what makes blind re-send safe.
        backoff: base delay in seconds between retry attempts; actual
            sleeps grow exponentially (doubling per attempt, capped at
            :data:`MAX_BACKOFF`) with +/-50% jitter so a fleet of
            retrying clients doesn't stampede a recovering server.

    The socket is opened lazily on the first call and can be reused for
    any number of requests; the client is a context manager.  One
    client is **not** thread-safe (requests share the socket) -- use
    one client per thread, the server multiplexes happily.
    """

    def __init__(
        self,
        address: str = "",
        timeout: float = DEFAULT_TIMEOUT,
        store: str | None = None,
        retries: int = 0,
        backoff: float = 0.05,
    ):
        if retries < 0:
            raise InvalidValueError("retries must be >= 0")
        if backoff < 0:
            raise InvalidValueError("backoff must be >= 0")
        self._family, self._target = parse_endpoint(
            address or str(DEFAULT_PORT)
        )
        self._timeout = timeout
        self._store = store
        self._retries = retries
        self._backoff = backoff
        self._rng = random.Random()
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0

    @property
    def address(self) -> str:
        if self._family == "unix":
            return f"unix:{self._target}"
        host, port = self._target
        return f"{host}:{port}"

    # -- connection lifecycle ----------------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._sock is None:
            sock = _open_socket(self._family, self._target, self._timeout)
            self._sock = sock
            self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------------

    def call(self, op: str, store: str | None = None, **params) -> dict:
        """One request/response round trip; raises the mapped exception.

        *store* overrides the client-wide default selector for this
        call only.  With ``retries=N``, up to N additional attempts are
        made after a transport failure, reconnecting each time with
        jittered exponential backoff in between; the *last* attempt's
        failure is what gets raised.
        """
        delay = self._backoff
        for attempt in range(self._retries + 1):
            try:
                return self._call_once(op, store, params)
            except _TransportFailure as failure:
                self.close()
                if attempt >= self._retries:
                    raise failure.error from None
                if delay > 0:
                    time.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2, MAX_BACKOFF)
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, op: str, store: str | None, params: dict) -> dict:
        """One attempt; transport failures raise ``_TransportFailure``."""
        try:
            self.connect()
        except OSError as exc:
            raise _TransportFailure(exc) from None
        assert self._file is not None
        self._next_id += 1
        request_id = self._next_id
        request: dict = {"id": request_id, "op": op, "params": params}
        selector = self._store if store is None else store
        if selector is not None:
            request["store"] = selector
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        try:
            self._file.write(line)
            self._file.flush()
            # Responses have no server-side size cap (MAX_BODY bounds
            # requests only -- a big batch legitimately returns more
            # than it asked with), so accumulate until the newline
            # instead of letting a capped readline() truncate mid-JSON.
            chunks = []
            while True:
                chunk = self._file.readline(MAX_BODY)
                chunks.append(chunk)
                if not chunk or chunk.endswith(b"\n"):
                    break
            reply = b"".join(chunks)
        except OSError as exc:
            raise _TransportFailure(ServerError(
                f"lost connection to {self.address}: {exc}"
            )) from None
        if not reply:
            raise _TransportFailure(ServerError(
                f"server {self.address} closed the connection"
            ))
        try:
            response = json.loads(reply)
        except ValueError:
            self.close()
            raise ProtocolError(
                f"server {self.address} sent a non-JSON response"
            ) from None
        if not isinstance(response, dict):
            raise ProtocolError("response must be a JSON object")
        if response.get("id") != request_id:
            self.close()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if response.get("ok"):
            result = response.get("result")
            if not isinstance(result, dict):
                raise ProtocolError("ok response carries no result object")
            return result
        raise error_to_exception(response.get("error") or {})

    # -- operations --------------------------------------------------------------------

    def healthz(self) -> dict:
        return self.call("healthz")

    def store_info(self, store: str | None = None) -> dict:
        return self.call("store-info", store=store)

    def synth(
        self,
        target: str,
        all: bool = False,
        allow_not: bool = True,
        cost_bound: int | None = None,
        store: str | None = None,
    ) -> dict:
        """Synthesize one target spec; returns the raw result payload."""
        params: dict = {"target": target, "all": all, "allow_not": allow_not}
        if cost_bound is not None:
            params["cost_bound"] = cost_bound
        return self.call("synth", store=store, **params)

    def synth_results(
        self,
        target: str,
        all: bool = False,
        allow_not: bool = True,
        cost_bound: int | None = None,
        store: str | None = None,
    ) -> list:
        """Like :meth:`synth`, rebuilt into certified ``SynthesisResult``s.

        Every record is certified locally by
        :func:`repro.io.result_from_dict` (composing the library's gate
        tables against the record's target and cost), so a lying or
        corrupted server fails loudly instead of returning a wrong
        circuit.  Costs are checked under the cost model the server's
        ``store-info`` reports for the store.
        """
        from repro.core.cost import CostModel
        from repro.io import result_from_dict

        info = self.store_info(store=store)
        cost_model = CostModel(**info["cost_model"])
        payload = self.synth(
            target, all=all, allow_not=allow_not, cost_bound=cost_bound,
            store=store,
        )
        return [
            result_from_dict(record, cost_model)
            for record in payload["results"]
        ]

    def synth_batch(
        self,
        targets: list,
        allow_not: bool = True,
        cost_bound: int | None = None,
        store: str | None = None,
    ) -> dict:
        """Submit many target specs as one server-side batch."""
        params: dict = {"targets": list(targets), "allow_not": allow_not}
        if cost_bound is not None:
            params["cost_bound"] = cost_bound
        return self.call("synth-batch", store=store, **params)

    def cost_table(
        self,
        cost_bound: int | None = None,
        include_members: bool = False,
        store: str | None = None,
    ) -> dict:
        params: dict = {"include_members": include_members}
        if cost_bound is not None:
            params["cost_bound"] = cost_bound
        return self.call("cost-table", store=store, **params)


class ClientPool:
    """Per-thread persistent :class:`ServeClient`\\ s for one endpoint.

    :class:`ServeClient` is deliberately not thread-safe (requests
    share one socket), so a worker pool hammering a server -- the
    scenario runner, a replay driver, any threaded load generator --
    needs one client per thread, and wants each kept open across calls
    so the measured latency is the query, not a fresh TCP handshake.
    The pool hands every calling thread its own lazily-connected
    client (keyed by thread, created on first :meth:`get`) and closes
    them all together.

    Keyword arguments are forwarded to every :class:`ServeClient`
    constructed (``timeout``, ``store``, ``retries``, ``backoff``).
    The pool is a context manager; exiting closes every client it ever
    created, from any thread (socket close is safe cross-thread once
    the workers have stopped calling).
    """

    def __init__(self, address: str = "", **client_kwargs):
        self._address = address
        self._client_kwargs = client_kwargs
        self._local = threading.local()
        self._clients: list[ServeClient] = []
        self._lock = threading.Lock()

    def get(self) -> ServeClient:
        """The calling thread's client, created on first use."""
        client = getattr(self._local, "client", None)
        if client is None:
            client = ServeClient(self._address, **self._client_kwargs)
            self._local.client = client
            with self._lock:
                self._clients.append(client)
        return client

    def close_all(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_all()


def _http_exchange(
    address: str,
    method: str,
    path: str,
    headers: str,
    payload: bytes,
    timeout: float,
) -> tuple[int, bytes]:
    """Send one ``Connection: close`` HTTP/1.1 request; read to EOF.

    *headers* are extra ``Name: value\\r\\n`` lines after ``Host`` and
    ``Connection``.  Returns ``(status, raw body)``.
    """
    family, target = parse_endpoint(address)
    host_header = (
        "localhost" if family == "unix" else f"{target[0]}:{target[1]}"
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host_header}\r\n"
        "Connection: close\r\n"
        f"{headers}"
        "\r\n"
    ).encode("ascii")
    try:
        with _open_socket(family, target, timeout) as sock:
            sock.sendall(head + payload)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError as exc:
        raise ServerError(f"HTTP request to {address} failed: {exc}") from None
    header, sep, rest = b"".join(chunks).partition(b"\r\n\r\n")
    if not sep:
        raise ProtocolError("malformed HTTP response (no header terminator)")
    try:
        status = int(header.split(None, 2)[1])
    except (IndexError, ValueError):
        raise ProtocolError("malformed HTTP response") from None
    return status, rest


def http_request(
    address: str,
    path: str,
    method: str = "GET",
    body: dict | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[int, dict]:
    """One-shot HTTP/1.1 request against a ``repro serve`` instance.

    *address* may be a TCP ``host:port`` form or ``unix:/path/to.sock``
    (the server speaks the same sniffed protocol on both).  Returns
    ``(status, decoded JSON body)``.  Raises :class:`ServerError` on
    connection failure and :class:`ProtocolError` on an unparseable
    response.
    """
    payload = b""
    if body is not None:
        payload = json.dumps(body, separators=(",", ":")).encode()
    status, rest = _http_exchange(
        address, method, path,
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n",
        payload, timeout,
    )
    try:
        data = json.loads(rest) if rest.strip() else {}
    except ValueError:
        raise ProtocolError("malformed HTTP response") from None
    if not isinstance(data, dict):
        raise ProtocolError("HTTP response body must be a JSON object")
    return status, data


def fetch_metrics(
    address: str, timeout: float = DEFAULT_TIMEOUT
) -> tuple[int, str]:
    """``GET /metrics`` against a server or router: ``(status, text)``.

    Unlike :func:`http_request` the body is returned as decoded text,
    not JSON -- ``/metrics`` is the one endpoint that speaks the
    Prometheus text exposition format.  Parse the result with
    :func:`repro.telemetry.parse_prometheus_text`.
    """
    status, rest = _http_exchange(address, "GET", "/metrics", "", b"", timeout)
    return status, rest.decode("utf-8", errors="replace")


def wait_until_ready(
    address: str, timeout: float = 30.0, interval: float = 0.05
) -> dict:
    """Poll ``healthz`` until the server answers; returns the payload.

    At least one attempt is always made.  Each attempt's socket timeout
    is clamped to the *remaining* deadline (never beyond 5 s), so a
    caller asking for ``timeout=0.3`` cannot be held up for seconds by
    a black-holed connect; between attempts the poll interval backs off
    geometrically from *interval* but never past :data:`READY_POLL_CAP`,
    so a server that starts listening is seen within one short poll.

    Raises:
        ServerError: the server did not come up within *timeout*.
    """
    deadline = time.monotonic() + timeout
    last_error = "no attempt made"
    delay = min(interval, READY_POLL_CAP)
    attempts = 0
    while True:
        remaining = deadline - time.monotonic()
        if attempts and remaining <= 0:
            break
        attempts += 1
        per_attempt = min(5.0, max(remaining, 0.05))
        try:
            with ServeClient(address, timeout=per_attempt) as client:
                health = client.healthz()
            if health.get("status") == "ok":
                return health
            last_error = f"status {health.get('status')!r}"
        except (OSError, ServerError, ProtocolError) as exc:
            last_error = str(exc)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(delay, remaining))
        delay = min(delay * 2, READY_POLL_CAP)
    raise ServerError(
        f"server {address} not ready after {timeout:.0f}s ({last_error})"
    )
