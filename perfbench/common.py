"""Shared helpers: checkout layout, child processes, statistics, spans.

Everything the benchmark writes goes under ``.perfbench/`` at the root
of the checkout (stores, sockets, server logs, request streams, result
artifacts and traces).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN = WORK / "run"
PYTHON = sys.executable


def require_checkout() -> None:
    """Refuse to run anywhere but a checkout that holds the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC / 'repro'}; run from "
            "the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def prepare_workdirs() -> None:
    for sub in ("run", "tmp", "streams", "results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    for path in sorted(RUN.rglob("*"), reverse=True):
        if path.is_dir():
            path.rmdir()
        else:
            path.unlink()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Process:
    """A child started in its own session, always stopped with its group."""

    def __init__(self, argv: list[str], log_name: str):
        self.log_path = RUN / log_name
        self._log = open(self.log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def log_text(self) -> str:
        return self.log_path.read_text(errors="replace")

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM the whole process group; SIGKILL what outlives *grace*."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGTERM)
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        # Replicas of a fleet share the group; make sure none survive,
        # and wait until the group is gone.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        deadline = time.monotonic() + grace
        with contextlib.suppress(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.01)
        self._log.close()


def run_child(argv: list[str], timeout: float = 170.0) -> tuple[float, dict]:
    """Run a child to completion; returns (spawn monotonic, last JSON line)."""
    spawned = time.monotonic()
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{argv[1]} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics -------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# -- host speed -------------------------------------------------------------------------

#: Seconds one reference task takes at the reference host speed.  Timing
#: metrics are reported at that speed (see :class:`HostSpeed`).
REFERENCE_S = 0.028
_REFERENCE_DATA: list = []


def reference_task() -> float:
    """Seconds one pass of a fixed task takes on this host right now.

    The task mixes the kinds of work the program does -- interpreted
    arithmetic, a numpy sort of a buffer larger than the caches, random
    reads from a table far larger than them, as closure lookups make,
    and filling freshly mapped memory, as a closure expansion does --
    and calls nothing of the program.
    """
    import numpy

    if not _REFERENCE_DATA:
        rng = numpy.random.default_rng(0)
        table = rng.integers(0, 1 << 30, 16_000_000)
        _REFERENCE_DATA.extend([
            rng.integers(0, 1 << 30, 500_000), table,
            rng.integers(0, len(table), 500_000)])
    buffer, table, rows = _REFERENCE_DATA
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    numpy.sort(buffer)
    numpy.take(table, rows).sum()
    numpy.ones(2_000_000).sum()
    return time.perf_counter() - started


class HostSpeed:
    """Reference-task slices interleaved with the measured work of a run.

    A shared host's speed drifts by tens of percent from one run to the
    next, and every timing drifts with it.  A run's timings are
    therefore reported at the reference speed: each phase's timings
    (precompute, server spawns, serving) are multiplied by
    ``REFERENCE_S`` over the mean reference-task time of the slices
    taken before, between and after that phase's measured parts.  Over
    a phase the mean follows the host's drift, not the task's own
    jitter.  Slices run while none of the program's processes has work,
    so nothing the program does can slow the reference task; the raw
    timings stay in the results record.
    """

    SAMPLES = 3

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        # The first pass after building the task's data runs cold.
        reference_task()

    def slice(self, phase: str) -> None:
        self.samples.setdefault(phase, []).extend(
            reference_task() for _ in range(self.SAMPLES))

    def scale(self, phase: str) -> float:
        """Factor taking *phase*'s timings to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples[phase])


# -- environment ------------------------------------------------------------------------


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """The environment block recorded with every result."""
    import numpy

    from repro.core.store import resolve_codec

    mem_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {
        "cpus": os.cpu_count(),
        "ram_gb": round(mem_kb / 1024**2, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_codec": resolve_codec("auto"),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "platform": platform.platform(),
    }


# -- spans ------------------------------------------------------------------------------


class Tracer:
    """In-memory spans, written out once when the run ends.

    A span is ``(trace, id, parent, name, start_ns, end_ns, attrs)``;
    spans of one request share its trace id.  A disabled tracer hands
    out a no-op context, so untraced code pays one attribute check.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Open spans of the main thread (probes run single-threaded).
        self._stack: list[tuple[int, int]] = []

    def record(self, name: str, start_ns: int, end_ns: int,
               trace: int = 0, parent: int = 0, **attrs) -> int:
        """Append one finished span (thread-safe); returns its id."""
        with self._lock:
            span_id = next(self._ids)
            self.spans.append((trace or span_id, span_id, parent, name,
                               start_ns, end_ns, attrs))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        trace, parent = self._stack[-1] if self._stack else (0, 0)
        with self._lock:
            span_id = next(self._ids)
        trace = trace or span_id
        self._stack.append((trace, span_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            with self._lock:
                self.spans.append(
                    (trace, span_id, parent, name, start, end, attrs)
                )

    def add(self, name: str, seconds: float, **attrs) -> None:
        """Record, under the open span, a span timed elsewhere (a child)."""
        if not self.enabled:
            return
        trace, parent = self._stack[-1] if self._stack else (0, 0)
        end = time.perf_counter_ns()
        self.record(name, end - int(seconds * 1e9), end, trace, parent,
                    **attrs)

    def durations_us(self, name: str) -> list[float]:
        return [(s[5] - s[4]) / 1e3 for s in self.spans if s[3] == name]

    def summary(self) -> dict:
        """Per span name: count, median total and median self time (us)."""
        covered: dict[int, int] = {}
        for span in self.spans:
            if span[2]:
                covered[span[2]] = covered.get(span[2], 0) + span[5] - span[4]
        by_name: dict[str, list[tuple[float, float]]] = {}
        for span in self.spans:
            total = span[5] - span[4]
            own = total - covered.get(span[1], 0)
            by_name.setdefault(span[3], []).append((total / 1e3, own / 1e3))
        return {
            name: {
                "count": len(rows),
                "median_us": median([r[0] for r in rows]),
                "median_self_us": median([r[1] for r in rows]),
            }
            for name, rows in sorted(by_name.items())
        }

    def write(self, path: Path) -> None:
        keys = ("trace", "id", "parent", "name", "start_ns", "end_ns",
                "attrs")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
