"""Wire protocol of the synthesis service (stdlib-only, two framings).

``repro serve`` listens on a single TCP port and auto-detects, per
connection, which of two framings the peer speaks by looking at the
first line it sends:

* **NDJSON IPC** (first byte ``{``): newline-delimited JSON.  Each
  request is one line ``{"id": ..., "op": "...", "params": {...}}`` and
  each response one line ``{"id": ..., "ok": true, "result": {...}}``
  or ``{"id": ..., "ok": false, "error": {...}}``.  The connection is
  persistent; requests are answered in order, so clients may pipeline.
  This is the framing :class:`repro.client.ServeClient` uses.

* **HTTP/1.1** (anything else): a minimal hand-rolled subset --
  request line, headers, optional ``Content-Length`` body; responses
  are ``application/json`` with ``Content-Length`` and keep-alive
  support.  Meant for curl, load balancer health checks and ad-hoc
  tooling, not as a general HTTP stack (no chunked encoding, no TLS).

Operations (the JSON surface is identical under both framings)::

    op            params                              result
    ------------  ----------------------------------  -------------------------
    synth         target (spec string), all?,         {target, results: [record]}
                  allow_not?, cost_bound?
    synth-batch   targets ([spec]), allow_not?,       {results: [{ok, result |
                  cost_bound?                          error}], count, failures}
    cost-table    cost_bound?, include_members?       {cost_bound, g_sizes, ...}
    store-info    --                                  store header + serving info
    healthz       --                                  liveness, counters and
                                                      p50/p90/p99 timings
    metrics       --                                  Prometheus exposition text

The flags ``all``, ``allow_not`` and ``include_members`` are JSON
booleans, and ``cost_bound`` is a non-negative integer (not a
boolean); any other value is a ``protocol`` error.

Every store-touching operation additionally accepts an optional
**store selector** -- a registry alias or a ``LIBFP:COSTFP``
fingerprint pair (see :mod:`repro.server.registry`).  In the NDJSON
framing it is the top-level ``"store"`` field next to ``op``/``params``;
in HTTP it is the ``store`` query parameter or body key.  Servers with
one store treat an absent selector as that store; servers with several
answer a structured ``protocol`` error listing the aliases.

``record`` is the JSON result form :func:`repro.io.result_record`
writes (n_qubits / gates / [radix] / target / cost / not_mask, the
shape of :func:`repro.io.result_to_dict`), so server responses can
be re-verified and re-loaded client-side exactly like ``synth --save``
files.  HTTP routes: ``POST /synth``, ``POST /synth-batch``,
``GET|POST /cost-table``, ``GET /store-info``, ``GET /healthz``,
``GET /metrics``.

**Tracing fields.**  Both framings carry two *optional* correlation
fields -- ``trace_id`` (one per end-to-end request, minted by the
fleet router when the client brings none) and ``span_id`` (one per
delivery attempt).  NDJSON carries them as top-level keys next to
``op``; HTTP as ``X-Repro-Trace-Id`` / ``X-Repro-Span-Id`` headers.
Responses echo ``trace_id`` the same way, and error payloads carry it
as a top-level ``trace_id`` key.  Absent fields change nothing on the
wire: an untraced request and its response are byte-identical to the
pre-tracing protocol, which is what keeps old clients and pinned
goldens working.  The ``metrics`` op answers with Prometheus
exposition text -- as raw ``text/plain`` under HTTP (the one non-JSON
response in the protocol), and wrapped as ``{"content_type", "text"}``
under NDJSON.

Errors travel as structured JSON objects ``{"code", "message",
"details"?}``; :func:`error_payload` maps the library's exception
hierarchy onto stable codes and :func:`error_to_exception` inverts the
mapping client-side, so a :class:`CostBoundExceededError` raised inside
the server resurfaces in the client process as the *same* exception
type with the *same* message as a local ``synth --store`` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import (
    CostBoundExceededError,
    FleetOverloadedError,
    FrozenSearchError,
    InvalidPermutationError,
    InvalidValueError,
    ProtocolError,
    ReproError,
    ServerError,
    SpecificationError,
    StoreCorruptError,
    StoreError,
    StoreMismatchError,
    StoreVersionError,
)
from repro.telemetry.trace import (
    SPAN_HEADER,
    TRACE_HEADER,
    validate_trace_field,
)

#: Default TCP port of ``repro serve`` (no IANA meaning; picked free).
DEFAULT_PORT = 7205
#: Per-line / per-header-block size limit (bytes) -- protects the
#: server from unbounded buffering on garbage input.
MAX_LINE = 1 << 20
#: Largest accepted HTTP body / NDJSON request line.
MAX_BODY = 8 << 20

OPERATIONS = (
    "synth", "synth-batch", "cost-table", "store-info", "healthz", "metrics",
)

#: Exception -> (code, HTTP status), most specific first.  The order
#: matters: the first ``isinstance`` hit wins.
_ERROR_TABLE: tuple[tuple[type, str, int], ...] = (
    (CostBoundExceededError, "cost-bound-exceeded", 422),
    (ProtocolError, "protocol", 400),
    (FleetOverloadedError, "FLEET_OVERLOADED", 503),
    (StoreMismatchError, "store-mismatch", 409),
    (StoreVersionError, "store-version", 500),
    (StoreCorruptError, "STORE_CORRUPT", 500),
    (StoreError, "store-error", 500),
    (FrozenSearchError, "frozen", 409),
    (SpecificationError, "specification", 400),
    (InvalidPermutationError, "bad-target", 400),
    (InvalidValueError, "bad-value", 400),
    (ServerError, "server-error", 500),
    (ReproError, "repro-error", 400),
)

#: code -> single-message-argument exception class (client side).  The
#: codes with richer payloads are special-cased in
#: :func:`error_to_exception`.
_CODE_TO_EXCEPTION = {
    "protocol": ProtocolError,
    "FLEET_OVERLOADED": FleetOverloadedError,
    "store-mismatch": StoreMismatchError,
    "store-version": StoreVersionError,
    "STORE_CORRUPT": StoreCorruptError,
    "store-error": StoreError,
    "frozen": FrozenSearchError,
    "specification": SpecificationError,
    "bad-target": InvalidPermutationError,
    "bad-value": InvalidValueError,
    "server-error": ServerError,
    "repro-error": ReproError,
}


def error_payload(exc: BaseException) -> tuple[dict, int]:
    """``({"code", "message", "details"?}, http_status)`` for an exception.

    Unknown exception types map to ``internal``/500 with their class
    name in ``details`` -- the server never leaks a traceback onto the
    wire.
    """
    for klass, code, status in _ERROR_TABLE:
        if isinstance(exc, klass):
            payload: dict = {"code": code, "message": str(exc)}
            if isinstance(exc, CostBoundExceededError):
                payload["details"] = {
                    "target_description": exc.target_description,
                    "cost_bound": exc.cost_bound,
                }
            return payload, status
    return (
        {
            "code": "internal",
            "message": "internal server error",
            "details": {"type": type(exc).__name__},
        },
        500,
    )


def error_to_exception(error: dict) -> ReproError:
    """Rebuild the library exception a structured error describes.

    The inverse of :func:`error_payload`: a ``cost-bound-exceeded``
    error becomes a genuine :class:`CostBoundExceededError` (message
    byte-identical to the server-side original), known codes map to
    their exception class, and anything else becomes a
    :class:`ServerError` carrying the server's message.
    """
    code = str(error.get("code", "internal"))
    message = str(error.get("message", "unspecified server error"))
    details = error.get("details") or {}
    if code == "cost-bound-exceeded":
        try:
            return CostBoundExceededError(
                str(details["target_description"]), int(details["cost_bound"])
            )
        except (KeyError, TypeError, ValueError):
            pass  # fall through to the generic mapping
    klass = _CODE_TO_EXCEPTION.get(code, ServerError)
    return klass(message)


def parse_endpoint(
    text: str, default_host: str = "127.0.0.1", default_port: int = DEFAULT_PORT
) -> tuple[str, object]:
    """Classify a server endpoint string as TCP or UNIX-socket.

    ``unix:/path/to.sock`` -> ``("unix", "/path/to.sock")``; anything
    else goes through :func:`parse_address` ->
    ``("tcp", (host, port))``.

    Raises:
        SpecificationError: empty UNIX path or unparseable TCP address.
    """
    text = text.strip()
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise SpecificationError("unix: endpoint is missing a socket path")
        return "unix", path
    return "tcp", parse_address(text, default_host, default_port)


def parse_address(
    text: str, default_host: str = "127.0.0.1", default_port: int = DEFAULT_PORT
) -> tuple[str, int]:
    """``host:port`` / ``:port`` / ``port`` / ``host`` -> ``(host, port)``.

    Raises:
        SpecificationError: unparseable port.
    """
    text = text.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        if text.isdigit():
            return default_host, _parse_port(text)
        return text or default_host, default_port
    if not port_text:
        raise SpecificationError(f"address {text!r} is missing a port")
    return host or default_host, _parse_port(port_text)


def _parse_port(text: str) -> int:
    try:
        port = int(text)
    except ValueError:
        raise SpecificationError(f"bad port {text!r}") from None
    if not 0 <= port <= 65535:
        raise SpecificationError(f"port {port} outside 0..65535")
    return port


# -- NDJSON framing --------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One decoded service request, framing-independent."""

    op: str
    params: dict = field(default_factory=dict)
    id: object = None
    #: Optional store selector: a registry alias or ``LIBFP:COSTFP``
    #: fingerprint pair; ``None`` means the server's sole store.
    store: str | None = None
    #: HTTP only: client asked to keep the connection open.
    keep_alive: bool = True
    #: Optional correlation IDs (see the module docstring).  ``None``
    #: keeps requests, responses and access records byte-identical to
    #: the pre-tracing wire format.
    trace_id: str | None = None
    span_id: str | None = None


def _check_store_field(store: object) -> str | None:
    if store is not None and not isinstance(store, str):
        raise ProtocolError("store must be a string alias or fingerprint")
    return store


def decode_request_line(line: bytes) -> Request:
    """Decode one NDJSON request line.

    Raises:
        ProtocolError: not a JSON object, missing/unknown ``op``, a
            non-object ``params``, or a non-string ``store``.
    """
    if len(line) > MAX_BODY:
        raise ProtocolError(f"request line exceeds {MAX_BODY} bytes")
    try:
        data = json.loads(line)
    except ValueError:
        raise ProtocolError("request is not valid JSON") from None
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    op = data.get("op")
    if not isinstance(op, str) or op not in OPERATIONS:
        raise ProtocolError(
            f"unknown operation {op!r}; expected one of {', '.join(OPERATIONS)}"
        )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")
    return Request(
        op=op,
        params=params,
        id=data.get("id"),
        store=_check_store_field(data.get("store")),
        trace_id=validate_trace_field(data.get("trace_id"), "trace_id"),
        span_id=validate_trace_field(data.get("span_id"), "span_id"),
    )


def _dumps(value: object) -> bytes:
    """*value* as the wire's compact JSON bytes."""
    return json.dumps(value, separators=(",", ":")).encode()


def encode_response(
    request_id: object,
    result: dict | bytes | None,
    error: dict | None = None,
    trace_id: str | None = None,
) -> bytes:
    """One NDJSON response line (ok/result or ok=false/error).

    A *result* given as ``bytes`` is a result object already encoded
    on the wire (the fleet router forwards a replica's result span);
    it is spliced in where ``json.dumps(result)`` would go, so the line
    equals the one the decoded object would give whenever the span is
    compact JSON.  A *trace_id* is echoed as a top-level key so clients
    correlate without touching ``result`` (whose bytes stay pinned by
    the routed-vs-direct identity tests); ``None`` adds nothing.
    """
    if isinstance(result, bytes) and error is None:
        line = b'{"id":' + _dumps(request_id) + b',"ok":true,"result":'
        line += result
        if trace_id is not None:
            line += b',"trace_id":' + _dumps(trace_id)
        return line + b"}\n"
    if error is None:
        body: dict = {"id": request_id, "ok": True, "result": result}
    else:
        body = {"id": request_id, "ok": False, "error": error}
    if trace_id is not None:
        body["trace_id"] = trace_id
    return _dumps(body) + b"\n"


# -- HTTP framing ----------------------------------------------------------------------

_HTTP_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Error codes that indicate a *server-side* fault (HTTP 5xx).  The
#: fleet router treats these -- and only these -- as grounds to count a
#: breaker failure and fail the request over to a replica; 4xx codes
#: are the client's own mistake and would fail identically everywhere.
#: ``FLEET_OVERLOADED`` is deliberately excluded: shedding is a
#: structured refusal by a healthy process, not a fault.
SERVER_FAULT_CODES = frozenset(
    code for _klass, code, status in _ERROR_TABLE
    if status >= 500 and code != "FLEET_OVERLOADED"
) | {"internal"}

#: (method, path) -> op for the body-less GET routes.
_GET_ROUTES = {
    "/healthz": "healthz",
    "/store-info": "store-info",
    "/cost-table": "cost-table",
    "/metrics": "metrics",
}
_POST_ROUTES = {
    "/synth": "synth",
    "/synth-batch": "synth-batch",
    "/cost-table": "cost-table",
}


#: Query keys whose values are names, never numbers/booleans -- an
#: all-digit store alias like ``007`` must survive the query parser.
_STRING_QUERY_KEYS = frozenset({"store"})


def _parse_query(query: str) -> dict:
    """Decode ``a=1&b=x`` into JSON-ish params (ints/bools recognized)."""
    params: dict = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, _sep, value = pair.partition("=")
        if key in _STRING_QUERY_KEYS:
            params[key] = value
        elif value.isdigit() or (value[:1] == "-" and value[1:].isdigit()):
            params[key] = int(value)
        elif value.lower() in ("true", "false"):
            params[key] = value.lower() == "true"
        else:
            params[key] = value
    return params


async def read_http_request(reader, request_line: bytes) -> Request:
    """Parse one HTTP/1.1 request whose request line was already read.

    Reads headers and an optional ``Content-Length`` JSON body from
    *reader*.  Raises :class:`ProtocolError` on any framing violation;
    the caller turns that into a 400 response.
    """
    try:
        method, raw_path, version = request_line.decode("ascii").split()
    except ValueError:
        raise ProtocolError("malformed HTTP request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > MAX_LINE or len(headers) > 100:
            raise ProtocolError("oversized HTTP header block")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed HTTP header {line!r}")
        headers[name.strip().lower()] = value.strip()

    path, _sep, query = raw_path.partition("?")
    params = _parse_query(query)

    try:
        body_size = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ProtocolError("bad Content-Length header") from None
    if body_size > MAX_BODY:
        raise ProtocolError(f"HTTP body exceeds {MAX_BODY} bytes")
    if body_size:
        body = await reader.readexactly(body_size)
        try:
            data = json.loads(body)
        except ValueError:
            raise ProtocolError("HTTP body is not valid JSON") from None
        if not isinstance(data, dict):
            raise ProtocolError("HTTP body must be a JSON object")
        params.update(data)

    if method == "GET":
        op = _GET_ROUTES.get(path)
    elif method == "POST":
        op = _POST_ROUTES.get(path)
    else:
        raise ProtocolError(f"method {method} not supported")
    if op is None:
        raise ProtocolError(f"no such endpoint: {method} {path}")
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    # The store selector rides as a query parameter (kept raw by
    # _parse_query) or body key; an ill-typed body value is the same
    # ProtocolError the NDJSON framing raises.
    return Request(
        op=op, params=params,
        store=_check_store_field(params.pop("store", None)),
        keep_alive=keep_alive,
        trace_id=validate_trace_field(
            headers.get(TRACE_HEADER.lower()), "trace_id"
        ),
        span_id=validate_trace_field(
            headers.get(SPAN_HEADER.lower()), "span_id"
        ),
    )


def _http_head(
    status: int,
    content_type: str,
    body_size: int,
    keep_alive: bool,
    extra_headers: dict | None = None,
) -> bytes:
    reason = _HTTP_STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {body_size}",
        f"Connection: {connection}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def http_response(
    status: int,
    payload: dict | bytes,
    keep_alive: bool = True,
    extra_headers: dict | None = None,
) -> bytes:
    """Serialize one ``application/json`` HTTP/1.1 response.

    A *payload* given as ``bytes`` is already-encoded JSON (a result
    span the fleet router forwards) and becomes the body as it is.
    """
    body = (
        payload if isinstance(payload, bytes) else _dumps(payload)
    ) + b"\n"
    return _http_head(
        status, "application/json", len(body), keep_alive, extra_headers
    ) + body


def http_text_response(
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
    keep_alive: bool = True,
    extra_headers: dict | None = None,
) -> bytes:
    """Serialize one plain-text HTTP/1.1 response (``GET /metrics``)."""
    body = text.encode("utf-8")
    return _http_head(
        status, content_type, len(body), keep_alive, extra_headers
    ) + body
