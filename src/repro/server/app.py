"""The asyncio front end of ``repro serve``.

:class:`ReproServer` binds one TCP listener (``asyncio.start_server``)
and, optionally, one UNIX-socket listener
(``asyncio.start_unix_server``, the ``--unix PATH`` flag); both speak
the same sniffed HTTP/NDJSON framings of :mod:`repro.server.protocol`,
per connection from the first line.  :func:`run_server` is the blocking
entry point the CLI uses (signal handling included), and
:class:`BackgroundServer` runs the same stack on a daemon thread for
tests, benchmarks and embedding.

Signals (installed only when running on the main thread):

* ``SIGHUP`` -- graceful registry reload: reopen every store, re-scan
  ``--store-dir``, swap the registry in atomically, keep serving
  throughout (see
  :meth:`~repro.server.service.SynthesisService.reload`).
* ``SIGINT`` / ``SIGTERM`` -- graceful drain: stop accepting, let every
  request already being processed finish and get its response (bounded
  by ``--drain-timeout``), then exit 0.  A mid-batch SIGTERM loses zero
  accepted requests; only stragglers past the drain deadline are
  aborted.

Chaos: an optional :class:`~repro.fleet.chaos.FaultInjector`
(``repro serve --fault exit-after:N|hang:OP|slow:MS|reset-conn:P``)
is consulted once per decoded request, so crash/hang/brown-out/reset
behavior can be injected deterministically inside an otherwise real
server -- the fleet test suite and CI chaos smoke drive it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import stat
import threading
from typing import TYPE_CHECKING, Callable, Sequence

from dataclasses import replace

from repro.errors import ProtocolError, ReproError
from repro.fleet.chaos import ConnectionResetFault, build_injector
from repro.server.protocol import (
    MAX_BODY,
    Request,
    decode_request_line,
    encode_response,
    error_payload,
    http_response,
    http_text_response,
    read_http_request,
)
from repro.telemetry.trace import TRACE_HEADER

if TYPE_CHECKING:
    from repro.server.service import SynthesisService

#: Default bound on the graceful drain: how long close() waits for
#: in-flight requests to finish before aborting their transports.
DEFAULT_DRAIN_TIMEOUT = 5.0


def _remove_stale_socket(path: str) -> None:
    """Unlink a leftover socket file so rebinding after a crash works.

    Only *dead* socket files are removed: a connect probe that anything
    accepts means another server is live on this path, which is refused
    loudly rather than hijacked (unlinking a live listener would strand
    it invisibly).  Non-socket files are left in place for ``bind`` to
    fail on.

    Raises:
        ReproError: another process is accepting connections at *path*.
    """
    try:
        if not stat.S_ISSOCK(os.stat(path).st_mode):
            return
    except OSError:
        return  # nothing there; bind will create it
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError):
        with contextlib.suppress(OSError):
            os.unlink(path)  # genuinely stale: no listener behind it
    except OSError:
        pass  # can't prove it's dead; leave it for bind to report
    else:
        raise ReproError(
            f"unix socket {path} is already accepting connections; "
            "is another `repro serve` running?"
        )
    finally:
        probe.close()


class ReproServer:
    """TCP and/or UNIX-socket listeners over one service.

    ``port=None`` skips the TCP listener entirely (UNIX-socket-only
    serving); at least one of the two listeners must be configured.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        fault_injector=None,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        trace_source=None,
    ):
        if port is None and unix_path is None:
            raise ReproError("server needs a TCP port or a unix socket path")
        self._service = service
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._fault_injector = fault_injector
        #: A :class:`~repro.telemetry.trace.TraceSource` makes this
        #: server a tracing *edge*: requests arriving without a
        #: ``trace_id`` get one minted here (the fleet wires this on
        #: the router's front end).  ``None`` -- the default -- only
        #: propagates IDs clients bring, keeping untraced traffic
        #: byte-identical to the pre-tracing wire format.
        self._trace_source = trace_source
        self._drain_timeout = max(0.0, drain_timeout)
        self._server: asyncio.AbstractServer | None = None
        self._unix_server: asyncio.AbstractServer | None = None
        self._connections: set = set()
        #: Writers with a request currently being processed (accepted
        #: but unanswered).  close() drains these before touching them.
        self._busy: set = set()
        self._draining = False

    @property
    def service(self) -> SynthesisService:
        return self._service

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server has no TCP listener")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def unix_path(self) -> str | None:
        """The UNIX-socket path, or None when only TCP is bound."""
        return self._unix_path if self._unix_server is not None else None

    async def start(self) -> None:
        await self._service.start()
        if self._port is not None:
            self._server = await asyncio.start_server(
                self._on_connection, self._host, self._port, limit=MAX_BODY
            )
        if self._unix_path is not None:
            _remove_stale_socket(self._unix_path)
            self._unix_server = await asyncio.start_unix_server(
                self._on_connection, path=self._unix_path, limit=MAX_BODY
            )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
        if self._unix_server is not None:
            self._unix_server.close()
        # Stop accepting, then DRAIN: every request already accepted
        # (decoded and handed to the service) finishes and gets its
        # response before its connection is touched.  Handlers observe
        # the flag after each response and bow out on their own.
        self._draining = True
        # One yield so handlers of just-accepted connections get to
        # register themselves before the nudge below.
        await asyncio.sleep(0)
        # Nudge IDLE keep-alive connections off their reads BEFORE
        # awaiting wait_closed(): on Python >= 3.12 wait_closed() waits
        # for every connection handler, so an idle client would hang
        # the shutdown forever if its writer were closed only
        # afterwards.  Busy connections are left alone -- cutting them
        # here is exactly the lost-request bug the drain exists to fix.
        for writer in list(self._connections):
            if writer not in self._busy:
                with contextlib.suppress(Exception):
                    writer.close()
        deadline = asyncio.get_running_loop().time() + self._drain_timeout
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        # Whatever is still busy is past the drain budget (an injected
        # hang, or a batch longer than the budget): close it like an idle connection and
        # let the abort path below finish the job.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        await asyncio.sleep(0)
        for server in (self._server, self._unix_server):
            if server is None:
                continue
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                # Stragglers stuck mid-transfer: abort their transports
                # rather than hang the shutdown.  A handler wedged off
                # the transport entirely (an injected hang fault) won't
                # notice even that -- give it a bounded grace and move
                # on; the process is exiting anyway.
                for writer in list(self._connections):
                    with contextlib.suppress(Exception):
                        writer.transport.abort()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        self._server = None
        if self._unix_server is not None:
            self._unix_server = None
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        await self._service.close()

    # -- connection handling -----------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            first = await self._read_line(reader, writer)
            if not first:
                return
            if first.lstrip().startswith(b"{"):
                await self._serve_ndjson(first, reader, writer)
            else:
                await self._serve_http(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing to save
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _read_line(self, reader, writer) -> bytes:
        """One framing line; oversized input gets a structured refusal.

        The stream limit makes ``readline`` raise ``ValueError`` /
        ``LimitOverrunError`` past ``MAX_BODY``; swallowing that would
        silently reset flooding-but-honest clients, so they get one
        protocol-error line (valid JSON for NDJSON peers, readable in
        an HTTP client's error too) before the connection closes.
        """
        try:
            return await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            payload, _status = error_payload(
                ProtocolError(f"request line exceeds {MAX_BODY} bytes")
            )
            with contextlib.suppress(ConnectionError):
                writer.write(encode_response(None, None, payload))
                await writer.drain()
            return b""

    def _assign_trace(self, request: Request) -> Request:
        """Mint a ``trace_id`` at a tracing edge; pass-through otherwise."""
        if self._trace_source is not None and request.trace_id is None:
            return replace(request, trace_id=self._trace_source.trace_id())
        return request

    async def _serve_ndjson(self, first: bytes, reader, writer) -> None:
        line = first
        while line:
            request_id: object = None
            trace_id: str | None = None
            try:
                request = self._assign_trace(decode_request_line(line))
                request_id = request.id
                trace_id = request.trace_id
                # Accepted: from here this request is owed a response,
                # even through a graceful drain.
                self._busy.add(writer)
                if self._fault_injector is not None:
                    await self._fault_injector.before_handle(request.op)
                result = await self._service.handle(request)
                response = encode_response(request_id, result,
                                           trace_id=trace_id)
            except ConnectionResetFault:
                self._busy.discard(writer)
                writer.transport.abort()
                return
            except Exception as exc:  # noqa: BLE001 -- mapped to wire error
                payload, _status = error_payload(exc)
                if trace_id is not None:
                    payload["trace_id"] = trace_id
                response = encode_response(request_id, None, payload,
                                           trace_id=trace_id)
            try:
                writer.write(response)
                await writer.drain()
            finally:
                self._busy.discard(writer)
            if self._draining:
                return
            line = await self._read_line(reader, writer)

    async def _serve_http(self, first: bytes, reader, writer) -> None:
        request_line = first
        while request_line not in (b"", b"\r\n", b"\n"):
            keep_alive = False
            trace_id: str | None = None
            try:
                request = await read_http_request(reader, request_line)
                request = self._assign_trace(request)
                keep_alive = request.keep_alive
                trace_id = request.trace_id
                headers = (
                    None if trace_id is None else {TRACE_HEADER: trace_id}
                )
                self._busy.add(writer)
                if self._fault_injector is not None:
                    await self._fault_injector.before_handle(request.op)
                result = await self._service.handle(request)
                if (
                    request.op == "metrics"
                    and isinstance(result, dict)
                    and isinstance(result.get("text"), str)
                ):
                    # The one non-JSON response: raw exposition text,
                    # so curl/Prometheus scrape the standard format.
                    response = http_text_response(
                        200, result["text"],
                        content_type=result.get(
                            "content_type", "text/plain; charset=utf-8"
                        ),
                        keep_alive=keep_alive, extra_headers=headers,
                    )
                else:
                    response = http_response(200, result, keep_alive,
                                             extra_headers=headers)
            except ConnectionResetFault:
                self._busy.discard(writer)
                writer.transport.abort()
                return
            except ProtocolError as exc:
                payload, status = error_payload(exc)
                if trace_id is not None:
                    payload["trace_id"] = trace_id
                response = http_response(status, {"error": payload}, False)
                keep_alive = False
            except (asyncio.LimitOverrunError, ValueError):
                # Stream-limit overflow inside the header/body read
                # (ProtocolError, though a ValueError, matched above).
                payload, status = error_payload(
                    ProtocolError(f"request exceeds {MAX_BODY} bytes")
                )
                response = http_response(status, {"error": payload}, False)
                keep_alive = False
            except Exception as exc:  # noqa: BLE001 -- mapped to wire error
                payload, status = error_payload(exc)
                if trace_id is not None:
                    payload["trace_id"] = trace_id
                headers = (
                    None if trace_id is None else {TRACE_HEADER: trace_id}
                )
                response = http_response(status, {"error": payload},
                                         keep_alive, extra_headers=headers)
            try:
                writer.write(response)
                await writer.drain()
            finally:
                self._busy.discard(writer)
            if not keep_alive or self._draining:
                return
            try:
                request_line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                payload, _status = error_payload(
                    ProtocolError(f"request line exceeds {MAX_BODY} bytes")
                )
                writer.write(http_response(400, {"error": payload}, False))
                await writer.drain()
                return


async def run_server(
    stores: str | Sequence[str],
    host: str = "127.0.0.1",
    port: int | None = 0,
    cost_bound: int | None = None,
    ready: Callable[[tuple[str, int], SynthesisService], None] | None = None,
    stop_event: asyncio.Event | None = None,
    unix: str | None = None,
    store_dir: str | None = None,
    access_log: str | None = None,
    access_log_max_bytes: int | None = None,
    access_log_keep: int | None = None,
    fault: str | None = None,
    fault_seed: int = 0,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
) -> int:
    """Run the service until stopped; the CLI's ``repro serve`` body.

    *stores* is one store path or a sequence of ``PATH`` /
    ``ALIAS=PATH`` specs; *store_dir* adds every ``*.rpro`` under a
    directory; *unix* additionally binds a UNIX-socket listener at the
    given path (with ``port=None`` it is the *only* listener);
    *access_log* appends one NDJSON record per request, rotated at
    *access_log_max_bytes* keeping *access_log_keep* old files.
    *fault* / *fault_seed* inject deterministic chaos faults
    (:mod:`repro.fleet.chaos`); *drain_timeout* bounds the graceful
    SIGTERM drain.  *ready* is called once with the bound TCP address
    -- or ``None`` when serving UNIX-only -- after the listeners are
    up (the CLI prints its "listening on" line from it).  Returns the
    process exit code.
    """
    # Imported here, not at module level: the fleet router runs this
    # module's front end and must not load the closure engine.
    from repro.server.service import SynthesisService

    service = SynthesisService(
        stores,
        cost_bound=cost_bound,
        store_dir=store_dir,
        access_log=access_log,
        access_log_max_bytes=access_log_max_bytes,
        access_log_keep=access_log_keep,
    )
    server = ReproServer(
        service,
        host,
        port,
        unix_path=unix,
        fault_injector=build_injector(fault, seed=fault_seed),
        drain_timeout=drain_timeout,
    )
    await server.start()

    loop = asyncio.get_running_loop()
    stop = stop_event or asyncio.Event()
    installed: list[int] = []
    if threading.current_thread() is threading.main_thread():
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(
                signal.SIGHUP,
                lambda: loop.create_task(service.reload()),
            )
            installed.append(signal.SIGHUP)
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
    try:
        if ready is not None:
            ready(server.address if port is not None else None, service)
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.close()
    return 0


class BackgroundServer:
    """A ``repro serve`` stack on a daemon thread (tests/benchmarks).

    Usage::

        with BackgroundServer("closure.rpro") as server:
            client = ServeClient(server.address_text)
            ...

        with BackgroundServer(["fast=a.rpro", "deep=b.rpro"],
                              unix="/tmp/repro.sock") as server:
            client = ServeClient("unix:/tmp/repro.sock", store="deep")

    The server binds an ephemeral port by default; keyword arguments
    pass through to :func:`run_server` (``unix``, ``store_dir``,
    ``access_log``, ...).  Signals are *not* installed (they require
    the main thread); use :meth:`reload` for the SIGHUP path.
    """

    def __init__(self, stores: str | Sequence[str], **kwargs):
        if isinstance(stores, (str, os.PathLike)):
            self._stores: list[str] = [str(stores)]
        else:
            self._stores = [str(spec) for spec in stores]
        self._kwargs = kwargs
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._service: SynthesisService | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._started = False
        self._address: tuple[str, int] | None = None
        self._error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        assert self._address is not None, "server not started or unix-only"
        return self._address

    @property
    def address_text(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    @property
    def unix_address_text(self) -> str:
        """The ``unix:PATH`` endpoint (requires ``unix=`` at construction)."""
        path = self._kwargs.get("unix")
        assert path is not None, "server has no unix listener"
        return f"unix:{path}"

    @property
    def service(self) -> SynthesisService:
        assert self._service is not None, "server not started"
        return self._service

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            raise self._error
        if not self._started:
            raise ReproError("server failed to start within 60s")
        return self

    def reload(self, timeout: float = 30.0) -> None:
        """Synchronously run the SIGHUP store-reload path."""
        assert self._loop is not None and self._service is not None
        asyncio.run_coroutine_threadsafe(
            self._service.reload(), self._loop
        ).result(timeout)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def on_ready(address, service):
                self._address = address  # None when serving UNIX-only
                self._service = service
                self._started = True
                self._ready.set()

            await run_server(
                self._stores,
                ready=on_ready,
                stop_event=self._stop,
                **self._kwargs,
            )

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 -- reported to starter
            self._error = exc
        finally:
            self._ready.set()
