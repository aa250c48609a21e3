"""Shared NDJSON access-log writer: batched, rotating and observable.

The router and every replica write their access logs through this
class.  :meth:`AccessLogWriter.submit` encodes a record on the
caller's thread and puts the line on a :class:`queue.SimpleQueue`;
one writer thread blocks for the first line, waits :data:`BATCH_S`
for more to arrive, drains the queue and writes the batch with one
``write`` and one ``flush``.  A per-record thread hand-off (a future,
a wake-up and a flush per line) cost about as much CPU as the query
it logged; the gather window pays for one wake-up per batch instead.

Metric set (all on the optional *registry*):

* ``<prefix>_log_records_written_total`` / ``<prefix>_log_bytes_written_total``
  -- what actually reached the file (a flatlining rate under live
  traffic is the wedged-device signal).
* ``<prefix>_log_write_errors_total`` -- records dropped because the
  device errored: every record of a batch whose write or flush failed.
* ``<prefix>_log_rotations_total`` and a scrape-time
  ``<prefix>_log_queue_depth`` gauge -- records submitted but not yet
  written, the open gather window included; a growing depth means the
  writer thread is falling behind.

Threading contract: :meth:`submit` may be called from any thread and
never blocks on I/O or raises on a device error; all writes and
rotations happen on the writer's single thread.  Rotation is checked
line by line inside a batch, between whole lines, so every file in a
rotated set ends on a complete record.  :meth:`close` drains every
submitted record before closing the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import threading
import time
from pathlib import Path

from ..errors import SpecificationError
from .registry import MetricsRegistry

#: Default number of rotated files kept (``log.1 .. log.N``).
DEFAULT_KEEP = 3

#: Gather window (seconds): after the first line of a batch arrives the
#: writer waits this long for more before it writes.  A record reaches
#: the file at most about this late.
BATCH_S = 0.01

#: Queue sentinel that tells the writer thread to finish and exit.
_STOP = object()


class AccessLogWriter:
    """Appends NDJSON records to *path* in batches on a dedicated thread.

    Args:
        path: the log file (appended; created on :meth:`start`).
        max_bytes: rotate once the file reaches this size (``None``
            never rotates).  Rotation shifts ``log -> log.1 -> ...``
            like logrotate; ``log.N`` (the oldest) falls off the end.
        keep: how many rotated files to keep (default 3).
        registry: register the writer's metric set here (optional).
        prefix: metric name prefix (default ``repro``).
    """

    def __init__(
        self,
        path: str,
        max_bytes: int | None = None,
        keep: int | None = None,
        registry: MetricsRegistry | None = None,
        prefix: str = "repro",
    ):
        if max_bytes is not None and max_bytes < 1:
            raise SpecificationError("max_bytes must be positive")
        if keep is not None and keep < 1:
            raise SpecificationError(
                "keep must retain at least one rotated file"
            )
        self.path = str(path)
        self._max_bytes = max_bytes
        self._keep = DEFAULT_KEEP if keep is None else keep
        self._file = None
        self._size = 0
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        #: Lines the writer thread has taken off the queue but not yet
        #: written (the open gather window); part of the queue depth.
        self._held = 0
        self._m_records = None
        if registry is not None:
            self._m_records = registry.counter(
                f"{prefix}_log_records_written_total",
                "Access-log records written to disk.",
            )
            self._m_bytes = registry.counter(
                f"{prefix}_log_bytes_written_total",
                "Access-log bytes written to disk.",
            )
            self._m_rotations = registry.counter(
                f"{prefix}_log_rotations_total",
                "Access-log rotations performed.",
            )
            self._m_errors = registry.counter(
                f"{prefix}_log_write_errors_total",
                "Access-log records dropped on write error.",
            )
            registry.gauge(
                f"{prefix}_log_queue_depth",
                "Records submitted but not yet written by the access-log "
                "writer thread.",
                fn=self.queue_depth,
            )

    # -- lifecycle --------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._thread is not None

    def start(self) -> "AccessLogWriter":
        """Open the file and start the writer thread (idempotent)."""
        if self._thread is None:
            self._open()
            self._queue = queue.SimpleQueue()
            self._thread = threading.Thread(
                target=self._run, name="repro-access-log", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Write every submitted record, then close the file (blocking).

        Callers on an event loop should run this in an executor, the
        same way the service drains its pools.
        """
        thread = self._thread
        if thread is not None:
            self._thread = None
            self._queue.put(_STOP)
            thread.join()
        if self._file is not None:
            with contextlib.suppress(OSError):
                self._file.close()
            self._file = None

    def queue_depth(self) -> int:
        """Records submitted but not yet written, the open window included."""
        if self._thread is None:
            return 0
        return self._queue.qsize() + self._held

    # -- writing ----------------------------------------------------------------------

    def submit(self, record: dict) -> None:
        """Queue one record for writing (fire-and-forget, any thread).

        Serialization happens here (on the caller's thread) so the
        record dict cannot be mutated between submit and write.  A
        record submitted before :meth:`start` or after :meth:`close`
        is dropped.
        """
        if self._thread is None:
            return
        self._queue.put(
            json.dumps(record, separators=(",", ":")).encode() + b"\n"
        )

    def _run(self) -> None:
        """The writer thread: gather a batch, write it, repeat until stopped."""
        get = self._queue.get
        get_nowait = self._queue.get_nowait
        while True:
            line = get()
            if line is _STOP:
                return
            self._held = 1
            time.sleep(BATCH_S)
            batch = [line]
            stop = False
            while True:
                try:
                    line = get_nowait()
                except queue.Empty:
                    break
                if line is _STOP:
                    stop = True
                    break
                batch.append(line)
            self._held = len(batch)
            self._write_batch(batch)
            self._held = 0
            if stop:
                return

    def _write_batch(self, lines: list[bytes]) -> None:
        """Write *lines* in runs that end where the file must rotate."""
        run: list[bytes] = []
        for line in lines:
            run.append(line)
            self._size += len(line)
            if self._max_bytes is not None and self._size >= self._max_bytes:
                self._write_run(run)
                run = []
                with contextlib.suppress(OSError, ValueError):
                    self._rotate()
        if run:
            self._write_run(run)

    def _write_run(self, run: list[bytes]) -> None:
        # A full disk must degrade the log, never the serving path;
        # every record of a failed write or flush is counted as dropped.
        data = b"".join(run)
        try:
            self._file.write(data)
            self._file.flush()
        except (OSError, ValueError):
            if self._m_records is not None:
                self._m_errors.inc(len(run))
            return
        if self._m_records is not None:
            self._m_records.inc(len(run))
            self._m_bytes.inc(len(data))

    def _open(self) -> None:
        self._file = open(self.path, "ab")
        self._size = self._file.tell()

    def _rotate(self) -> None:
        """Shift ``log -> log.1 -> ... -> log.N`` and reopen (log thread)."""
        path = self.path
        keep = self._keep
        self._file.close()
        with contextlib.suppress(OSError):
            os.unlink(f"{path}.{keep}")
        for index in range(keep - 1, 0, -1):
            source = f"{path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{path}.{index + 1}")
        os.replace(path, f"{path}.1")
        self._open()
        if self._m_records is not None:
            self._m_rotations.inc()


def rotated_access_logs(path: str | Path) -> list[Path]:
    """The rotated set for an access log, oldest first, active log last.

    :meth:`AccessLogWriter._rotate` shifts ``log -> log.1 -> log.2
    ...`` (higher suffix = older), so reading ``log.N ... log.1, log``
    yields every surviving record in arrival order.  Only numeric
    suffixes belong to the set; missing files are simply absent.
    """
    base = Path(path)
    prefix = base.name + "."
    indexed: list[tuple[int, Path]] = []
    if base.parent.is_dir():
        for entry in base.parent.iterdir():
            suffix = entry.name[len(prefix):]
            if entry.name.startswith(prefix) and suffix.isdigit():
                indexed.append((int(suffix), entry))
    ordered = [entry for _index, entry in sorted(indexed, reverse=True)]
    ordered.append(base)
    return ordered
