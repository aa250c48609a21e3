"""Serving processes and the closed-loop clients that drive them.

``repro serve`` and ``repro fleet serve`` run as their own processes
with default tuning flags; the benchmark only picks a free TCP port
(and, for the fleet, a run directory inside the checkout).  Clients
are ``repro.client.ServeClient`` connections, one per thread, each
waiting for its answer before sending the next request.
"""

from __future__ import annotations

import gc
import re
import threading
import time

from common import HostSpeed, PYTHON, Process, Tracer, free_port, vm_hwm_mb

#: Fixed readiness poll interval while measuring set-up time.
POLL_S = 0.005


class Service:
    """A running ``repro serve`` or ``repro fleet serve``."""

    def __init__(self, store: str, fleet: bool, name: str):
        self.port = free_port()
        self.address = f"127.0.0.1:{self.port}"
        self.fleet = fleet
        if fleet:
            argv = [PYTHON, "-m", "repro", "fleet", "serve", store,
                    "--port", str(self.port),
                    "--run-dir", f".perfbench/run/{name}"]
        else:
            argv = [PYTHON, "-m", "repro", "serve", store,
                    "--port", str(self.port)]
        self.process = Process(argv, f"{name}.log")

    def wait_first_synth(self, spec: str, timeout: float = 90.0) -> float:
        """Seconds from spawn until a ``synth`` first succeeds."""
        from repro.client import ServeClient
        from repro.errors import ProtocolError, ServerError

        deadline = self.process.started + timeout
        while True:
            try:
                with ServeClient(self.address, timeout=10.0) as client:
                    client.synth(spec)
                return time.monotonic() - self.process.started
            except (OSError, ServerError, ProtocolError):
                if self.process.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited: {self.process.log_text()[-2000:]}"
                    ) from None
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered") from None
                time.sleep(POLL_S)

    def replicas(self) -> dict[str, tuple[str, int]]:
        """Fleet replica name -> (endpoint, pid), from the ready lines."""
        found = re.findall(r"^\s+(backend-\d+): (\S+) pid (\d+)",
                           self.process.log_text(), re.M)
        return {name: (endpoint, int(pid)) for name, endpoint, pid in found}

    def pids(self) -> list[int]:
        return [self.process.pid] + [
            pid for _endpoint, pid in self.replicas().values()
        ]

    def direct_endpoints(self) -> list[str]:
        """Addresses of the processes that execute queries."""
        if not self.fleet:
            return [self.address]
        return [endpoint for endpoint, _pid in self.replicas().values()]

    def rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        self.process.stop()


def start_service(store: str, fleet: bool, spec: str, spawns: int,
                  name: str, speed: HostSpeed
                  ) -> tuple[Service, list[float]]:
    """Spawn *spawns* times, timing each to its first synth; keep the last.

    Reference-task slices of *speed* run before the first spawn and
    after each.
    """
    setups = []
    speed.slice("setup")
    for i in range(spawns):
        service = Service(store, fleet, f"{name}{i}")
        try:
            setups.append(service.wait_first_synth(spec))
        except BaseException:
            service.stop()
            raise
        if i < spawns - 1:
            service.stop()
        speed.slice("setup")
    return service, setups


class Reply:
    """One request as sent and answered.

    *answers* holds one key per target answered -- ``(spec, level,
    gates, target, cost)`` -- shared with every other reply carrying
    the same answer, so a long run keeps a bounded set of answers
    instead of every decoded payload.  ``None`` marks a refused entry.
    """

    __slots__ = ("request", "answered", "latency", "answers", "error")

    def __init__(self, request, answered, latency, answers, error):
        self.request = request
        self.answered = answered
        self.latency = latency
        self.answers = answers
        self.error = error


def _answer_keys(request: dict, payload, seen: dict) -> tuple:
    if payload is None:
        return ()
    if request["op"] == "synth":
        records = payload["results"][:1]
    else:
        records = [entry["result"] if entry["ok"] else None
                   for entry in payload["results"]]
    keys = []
    for spec, level, record in zip(request["targets"], request["levels"],
                                   records):
        if record is None:
            keys.append(None)
            continue
        key = (spec, level, tuple(record["gates"]), record.get("target"),
               record.get("cost"))
        keys.append(seen.setdefault(key, key))
    return tuple(keys) if len(records) == len(request["targets"]) else ()


def closed_loop(
    address: str, streams: list[list[dict]], seconds: float | None,
    verify_in_loop: bool, tracer: Tracer, starts: list[int],
    counts: list[int] | None = None,
) -> tuple[list[Reply], float, list[int]]:
    """One thread and connection per stream until *seconds* elapse.

    Connection ``c`` sends stream ``c`` from index ``starts[c]``,
    wrapping around its end, until *seconds* elapse or, with *seconds*
    ``None``, until it has sent ``counts[c]`` requests.  Returns the
    replies, the wall time and the count each connection sent.

    A request is timed from before it is sent until its reply is
    decoded -- and, with *verify_in_loop*, rebuilt and re-verified by
    ``repro.io.result_from_dict`` as ``repro synth --server`` does.
    Each reply records when it was answered, in seconds from the start.
    In a traced run every request records client spans.
    """
    from repro.client import ServeClient
    from repro.errors import ReproError
    from repro.io import result_from_dict

    replies: list[list[Reply]] = [[] for _ in streams]
    sent = [0] * len(streams)
    seen: list[dict] = [{} for _ in streams]
    crashed: list[BaseException] = []
    start_gate = threading.Barrier(len(streams) + 1, timeout=120)
    clock = time.perf_counter_ns
    # A malformed reply fails its request; it does not stop the loop.
    failures = (ReproError, OSError, KeyError, TypeError, ValueError)

    def drive(conn: int) -> None:
        try:
            loop(conn)
        except BaseException as exc:
            crashed.append(exc)
            start_gate.abort()
            raise

    def loop(conn: int) -> None:
        out = replies[conn]
        stream = streams[conn]
        with ServeClient(address) as client:
            client.store_info()
            start_gate.wait()
            began = clock()
            if seconds is None:
                deadline, count = float("inf"), counts[conn]
            else:
                deadline, count = began + int(seconds * 1e9), float("inf")
            i = 0
            while i < count and clock() < deadline:
                request = stream[(starts[conn] + i) % len(stream)]
                i += 1
                sent[conn] = i
                payload = error = None
                started = clock()
                try:
                    if request["op"] == "synth":
                        payload = client.synth(request["targets"][0])
                        records = payload["results"]
                    else:
                        payload = client.synth_batch(request["targets"])
                        records = [entry["result"]
                                   for entry in payload["results"]
                                   if entry["ok"]]
                    called = clock()
                    if verify_in_loop:
                        for record in records:
                            result_from_dict(record)
                except failures as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    called = clock()
                if tracer.enabled:
                    done = clock()
                    root = tracer.record("client.request", started, done,
                                         op=request["op"], conn=conn)
                    tracer.record("client.call", started, called, root, root)
                    if verify_in_loop:
                        tracer.record("client.verify", called, done, root,
                                      root)
                done = clock()
                latency = (done - started) / 1e9
                try:
                    keys = _answer_keys(request, payload, seen[conn])
                except failures:
                    keys = ()
                out.append(Reply(request, (done - began) / 1e9, latency,
                                 keys, error))

    threads = [threading.Thread(target=drive, args=(conn,))
               for conn in range(len(streams))]
    # Answers are kept compactly, so nothing the loop allocates needs
    # the cyclic collector; its pauses would only add noise.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        start_gate.wait()
        began = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
    finally:
        gc.enable()
    if crashed:
        raise RuntimeError(f"client thread failed: {crashed[0]!r}")
    return [reply for out in replies for reply in out], wall, sent


class Loop:
    """A measured closed loop: its streams, how long it runs (``None``:
    each stream is sent once) and whether replies are re-verified inside
    the timed request; gathers its replies and wall time."""

    def __init__(self, streams: list[list[dict]], seconds: float | None,
                 verify_in_loop: bool):
        self.streams = streams
        self.seconds = seconds
        self.verify_in_loop = verify_in_loop
        self.starts = [0] * len(streams)
        self.replies: list[Reply] = []
        self.wall = 0.0


def measured_loops(address: str, loops: list[Loop], segments: int,
                   tracer: Tracer, speed: HostSpeed) -> None:
    """Run each loop cut into *segments* parts, the loops taking turns.

    A reference-task slice of *speed* runs first, then part ``k`` of
    every loop, then another slice, then part ``k + 1``; so every loop
    and the slices spread over the same stretch of time.  A timed part
    lasts ``seconds / segments``; a stream sent once is split into
    parts of equal count.  Each part continues its streams where the
    one before stopped.
    """
    speed.slice("serve")
    for k in range(segments):
        for loop in loops:
            counts = None
            if loop.seconds is None:
                counts = [len(s) * (k + 1) // segments
                          - len(s) * k // segments for s in loop.streams]
            part, wall, sent = closed_loop(
                address, loop.streams, loop.seconds and loop.seconds / segments,
                loop.verify_in_loop, tracer, loop.starts, counts)
            loop.starts = [start + n for start, n in zip(loop.starts, sent)]
            loop.replies += part
            loop.wall += wall
        speed.slice("serve")

