"""Fleet process management: spawn, watch, restart, tear down.

:class:`FleetManager` owns N real ``repro serve`` subprocesses, each
serving the same stores on its own UNIX socket under one **run
directory** (sockets, per-backend access logs, per-backend stdout
captures, the supervisor's ops log -- everything a post-mortem needs
in one place).  :func:`run_fleet` is the blocking entry point behind
``repro fleet serve``: it spawns the backends, fronts them with a
:class:`~repro.fleet.router.RouterService` inside the ordinary
:class:`~repro.server.app.ReproServer` (so the fleet speaks the exact
single-server wire protocol, graceful drain included), and runs the
:class:`~repro.fleet.supervisor.Supervisor` loop beside them.
:class:`BackgroundFleet` is the daemon-thread wrapper the tests and
benchmarks use, mirroring
:class:`~repro.server.app.BackgroundServer`.

Chaos wiring: ``faults={index: spec}`` hands a
:mod:`repro.fleet.chaos` fault spec to chosen backends' **first**
spawn only -- a supervised restart deliberately relaunches without the
fault flags, because the restart models replacing a crashed process
with a healthy one (and makes recovery assertions deterministic).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import subprocess
import sys
import tempfile
import time
from typing import Callable, Sequence

from repro.client import wait_until_ready
from repro.errors import ReproError, SpecificationError
from repro.fleet.router import (
    DEFAULT_ATTEMPT_TIMEOUT,
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_RETRIES,
    RouterService,
)
from repro.fleet.supervisor import (
    DEFAULT_INTERVAL,
    DEFAULT_PROBE_TIMEOUT,
    GuardRails,
    Supervisor,
)
from repro.server.app import DEFAULT_DRAIN_TIMEOUT, ReproServer
from repro.telemetry import TraceSource

DEFAULT_REPLICAS = 2
#: Seconds a backend gets to terminate after SIGTERM before SIGKILL.
TERMINATE_GRACE = 5.0
#: Seconds to wait for the initial replica set to answer healthz.
DEFAULT_READY_TIMEOUT = 120.0


class ManagedBackend:
    """One supervised ``repro serve`` subprocess and its run files."""

    def __init__(
        self,
        name: str,
        argv: list[str],
        endpoint: str,
        access_log: str,
        stdout_path: str,
        env: dict | None = None,
        fault: str | None = None,
        fault_seed: int = 0,
    ):
        self.name = name
        self.argv = list(argv)
        self.endpoint = endpoint
        self.access_log = access_log
        self.stdout_path = stdout_path
        self.env = env
        self.fault = fault
        self.fault_seed = fault_seed
        #: The supervisor may restart this backend (False for adopted
        #: externally-managed endpoints: eject is the only remedy).
        self.supervised = True
        self.proc: subprocess.Popen | None = None
        self.spawned_at = time.monotonic()
        #: Monotonic timestamps of supervised restarts (budget window).
        self.restart_times: list[float] = []
        self._stdout = None

    def spawn(self, with_fault: bool = True) -> None:
        """Launch (or relaunch) the subprocess.  Never blocks on it."""
        argv = list(self.argv)
        if with_fault and self.fault is not None:
            argv += [
                "--fault", self.fault, "--fault-seed", str(self.fault_seed),
            ]
        self._close_stdout()
        self._stdout = open(self.stdout_path, "ab")
        self.proc = subprocess.Popen(
            argv,
            stdout=self._stdout,
            stderr=subprocess.STDOUT,
            env=self.env,
        )
        self.spawned_at = time.monotonic()

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def exit_code(self) -> int | None:
        return None if self.proc is None else self.proc.poll()

    def terminate(self, grace: float = TERMINATE_GRACE) -> None:
        """SIGTERM (graceful drain), escalate to SIGKILL past *grace*."""
        if self.proc is not None and self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(OSError):
                    self.proc.kill()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.proc.wait(timeout=5.0)
        self._close_stdout()

    def _close_stdout(self) -> None:
        if self._stdout is not None:
            with contextlib.suppress(OSError):
                self._stdout.close()
            self._stdout = None


class FleetManager:
    """Spawns and owns the replica subprocesses of one fleet.

    Args:
        stores: the store specs every replica serves (``PATH`` /
            ``ALIAS=PATH``), exactly as ``repro serve`` takes them.
        replicas: how many backend processes to run.
        run_dir: directory for sockets/logs (created; a ``mkdtemp``
            under the system temp dir when None -- UNIX socket paths
            are length-capped, so short beats descriptive).
        store_dir / cost_bound: forwarded to every backend's ``repro
            serve`` flags.
        faults: ``{replica_index: fault_spec}`` chaos injection for
            the first spawn of chosen replicas.
        fault_seed: seed forwarded with every fault spec.
    """

    def __init__(
        self,
        stores: Sequence[str],
        replicas: int = DEFAULT_REPLICAS,
        run_dir: str | None = None,
        store_dir: str | None = None,
        cost_bound: int | None = None,
        faults: dict[int, str] | None = None,
        fault_seed: int = 0,
    ):
        if replicas < 1:
            raise SpecificationError("a fleet needs at least one replica")
        stores = [str(spec) for spec in stores]
        if not stores and store_dir is None:
            raise SpecificationError(
                "nothing to serve: give store files and/or store_dir"
            )
        if run_dir is None:
            run_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        else:
            os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        faults = dict(faults or {})
        unknown = [i for i in faults if not 0 <= i < replicas]
        if unknown:
            raise SpecificationError(
                f"fault spec for nonexistent replica index {unknown[0]} "
                f"(fleet has {replicas})"
            )
        # The child must import the same repro package the parent runs,
        # regardless of the working directory it inherits.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        self.backends: dict[str, ManagedBackend] = {}
        for index in range(replicas):
            name = f"backend-{index}"
            socket_path = os.path.join(run_dir, f"b{index}.sock")
            access_log = os.path.join(run_dir, f"b{index}.access.ndjson")
            argv = [
                sys.executable, "-m", "repro", "serve", *stores,
                "--no-tcp", "--unix", socket_path,
                "--access-log", access_log,
            ]
            if store_dir is not None:
                argv += ["--store-dir", str(store_dir)]
            if cost_bound is not None:
                argv += ["--cost-bound", str(cost_bound)]
            self.backends[name] = ManagedBackend(
                name,
                argv,
                endpoint=f"unix:{socket_path}",
                access_log=access_log,
                stdout_path=os.path.join(run_dir, f"b{index}.log"),
                env=env,
                fault=faults.get(index),
                fault_seed=fault_seed,
            )

    def endpoints(self) -> dict[str, str]:
        return {
            name: backend.endpoint
            for name, backend in self.backends.items()
        }

    def spawn_all(self) -> None:
        for backend in self.backends.values():
            backend.spawn()

    def await_ready(self, name: str, timeout: float) -> dict:
        """Block until one backend answers healthz (worker thread)."""
        return wait_until_ready(self.backends[name].endpoint, timeout=timeout)

    def restart(self, name: str) -> None:
        """Terminate and respawn one backend (blocking; supervisor path).

        The respawn drops any chaos fault flags: a restart replaces a
        faulty process with a healthy one.  Readiness is *not* awaited
        here -- the supervisor's next healthy probe re-admits it.
        """
        backend = self.backends[name]
        backend.terminate()
        backend.restart_times.append(time.monotonic())
        backend.spawn(with_fault=False)

    def shutdown(self) -> None:
        for backend in self.backends.values():
            backend.terminate()


class FleetHandle:
    """What ``run_fleet`` exposes to its ``ready`` callback and tests."""

    def __init__(
        self,
        router: RouterService,
        supervisor: Supervisor,
        manager: FleetManager,
        ops_log: str,
        router_access_log: str | None = None,
    ):
        self.router = router
        self.supervisor = supervisor
        self.manager = manager
        self.ops_log = ops_log
        self.router_access_log = router_access_log


async def run_fleet(
    stores: str | Sequence[str],
    replicas: int = DEFAULT_REPLICAS,
    host: str = "127.0.0.1",
    port: int | None = 0,
    unix: str | None = None,
    store_dir: str | None = None,
    cost_bound: int | None = None,
    run_dir: str | None = None,
    faults: dict[int, str] | None = None,
    fault_seed: int = 0,
    retries: int = DEFAULT_RETRIES,
    attempt_timeout: float = DEFAULT_ATTEMPT_TIMEOUT,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
    breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
    guardrails: GuardRails | None = None,
    interval: float = DEFAULT_INTERVAL,
    probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
    latency_threshold_ms: float | None = None,
    ops_log: str | None = None,
    router_access_log: str | None = None,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ready_timeout: float = DEFAULT_READY_TIMEOUT,
    ready: Callable | None = None,
    stop_event: asyncio.Event | None = None,
) -> int:
    """Run a supervised fleet until stopped; ``repro fleet serve``'s body.

    Spawns *replicas* backend processes, waits for all of them to answer
    ``healthz``, binds the router front end on *host*:*port* (and/or
    *unix*), starts the supervisor loop, then serves until *stop_event*
    (or SIGINT/SIGTERM on the main thread).  *ready* is called once
    with ``(address, handle)`` where ``address`` is the bound TCP
    address (``None`` when UNIX-only) and ``handle`` a
    :class:`FleetHandle`.  Returns the process exit code.
    """
    import signal
    import threading

    from repro.fleet import supervisor as supervisor_mod

    if isinstance(stores, (str, os.PathLike)):
        stores = [str(stores)]
    manager = FleetManager(
        stores,
        replicas=replicas,
        run_dir=run_dir,
        store_dir=store_dir,
        cost_bound=cost_bound,
        faults=faults,
        fault_seed=fault_seed,
    )
    if ops_log is None:
        ops_log = os.path.join(manager.run_dir, "ops.ndjson")
    if router_access_log is None:
        router_access_log = os.path.join(
            manager.run_dir, "router.access.ndjson"
        )

    # The router is built before any replica starts, so a bad router
    # flag fails at once instead of after a full fleet start-up.
    # One TraceSource shared by the front end (which mints the
    # trace_id for untraced requests) and the router (which mints
    # the per-attempt span_ids) -- the fleet's tracing edge.
    traces = TraceSource()
    router = RouterService(
        manager.endpoints(),
        retries=retries,
        attempt_timeout=attempt_timeout,
        max_inflight=max_inflight,
        breaker_threshold=breaker_threshold,
        breaker_cooldown=breaker_cooldown,
        trace_source=traces,
        access_log=router_access_log,
    )
    loop = asyncio.get_running_loop()
    manager.spawn_all()
    server: ReproServer | None = None
    supervisor: Supervisor | None = None
    try:
        await asyncio.gather(*[
            loop.run_in_executor(
                None, manager.await_ready, name, ready_timeout
            )
            for name in manager.backends
        ])
        server = ReproServer(
            router, host, port, unix_path=unix, drain_timeout=drain_timeout,
            trace_source=traces,
        )
        await server.start()
        supervisor = Supervisor(
            router,
            manager,
            ops_log=ops_log,
            registry=router.telemetry,
            guardrails=guardrails,
            interval=interval,
            probe_timeout=probe_timeout,
            latency_threshold_ms=(
                supervisor_mod.DEFAULT_LATENCY_THRESHOLD_MS
                if latency_threshold_ms is None else latency_threshold_ms
            ),
        )
        await supervisor.start()

        stop = stop_event or asyncio.Event()
        installed: list[int] = []
        if threading.current_thread() is threading.main_thread():
            with contextlib.suppress(NotImplementedError, ValueError):
                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(signum, stop.set)
                    installed.append(signum)
        try:
            if ready is not None:
                ready(
                    server.address if port is not None else None,
                    FleetHandle(
                        router,
                        supervisor,
                        manager,
                        ops_log,
                        router_access_log=router_access_log,
                    ),
                )
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
    finally:
        if supervisor is not None:
            await supervisor.stop()
        if server is not None:
            await server.close()  # drains in-flight, then closes router
        await loop.run_in_executor(None, manager.shutdown)
    return 0


class BackgroundFleet:
    """A supervised fleet on a daemon thread (tests/benchmarks).

    Usage::

        with BackgroundFleet("closure.rpro", replicas=2) as fleet:
            client = ServeClient(fleet.address_text)
            ...

    Keyword arguments pass through to :func:`run_fleet`.  Signals are
    not installed (they need the main thread); stop via :meth:`stop`.
    """

    def __init__(self, stores: str | Sequence[str], **kwargs):
        self._stores = stores
        self._kwargs = kwargs
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready_event = None
        self._started = False
        self._address: tuple[str, int] | None = None
        self._handle: FleetHandle | None = None
        self._error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        assert self._address is not None, "fleet not started or unix-only"
        return self._address

    @property
    def address_text(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    @property
    def handle(self) -> FleetHandle:
        assert self._handle is not None, "fleet not started"
        return self._handle

    @property
    def router(self) -> RouterService:
        return self.handle.router

    @property
    def supervisor(self) -> Supervisor:
        return self.handle.supervisor

    @property
    def manager(self) -> FleetManager:
        return self.handle.manager

    @property
    def ops_log(self) -> str:
        return self.handle.ops_log

    def start(self) -> "BackgroundFleet":
        import threading

        self._ready_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet", daemon=True
        )
        self._thread.start()
        self._ready_event.wait(timeout=180)
        if self._error is not None:
            raise self._error
        if not self._started:
            raise ReproError("fleet failed to start within 180s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None

    def __enter__(self) -> "BackgroundFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def on_ready(address, handle):
                self._address = address
                self._handle = handle
                self._started = True
                self._ready_event.set()

            await run_fleet(
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
            self._ready_event.set()
