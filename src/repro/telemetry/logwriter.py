"""Shared NDJSON access-log writer with rotation and visibility.

The service grew this logic inline (single log thread, fire-and-forget
submits, logrotate-style shifting between whole lines); the router now
needs an identical writer for its own access log, and the satellite
fix in PR 10 wants the writer *observable* -- today a wedged log
device drops records silently and nothing counts them.  This class is
that logic extracted verbatim, plus a metric set:

* ``<prefix>_log_records_written_total`` / ``<prefix>_log_bytes_written_total``
  -- what actually reached ``write()`` (a flatlining rate under live
  traffic is the wedged-device signal).
* ``<prefix>_log_write_errors_total`` -- records dropped because the
  device errored (the previously-silent branch).
* ``<prefix>_log_rotations_total`` and a scrape-time
  ``<prefix>_log_queue_depth`` gauge -- a growing queue means the log
  thread is falling behind the loop.

Threading contract (inherited from the service): :meth:`submit` may be
called from any thread and never blocks on I/O; all writes and
rotations happen on the writer's single thread, between whole lines,
so every file in a rotated set ends on a complete record.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..errors import SpecificationError
from .registry import MetricsRegistry

#: Default number of rotated files kept (``log.1 .. log.N``).
DEFAULT_KEEP = 3


class AccessLogWriter:
    """Appends NDJSON records to *path* on a dedicated thread.

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
        self._pool: ThreadPoolExecutor | None = None
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
                "Records waiting for the access-log writer thread.",
                fn=self.queue_depth,
            )

    # -- lifecycle --------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._pool is not None

    def start(self) -> "AccessLogWriter":
        """Open the file and spin up the writer thread (idempotent)."""
        if self._pool is None:
            self._file = open(self.path, "a", encoding="utf-8")
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-access-log"
            )
        return self

    def close(self) -> None:
        """Drain queued records and close the file (blocking).

        Callers on an event loop should run this in an executor, the
        same way the service drains its pools.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._file is not None:
            with contextlib.suppress(OSError):
                self._file.close()
            self._file = None

    def queue_depth(self) -> int:
        """Records queued behind the writer thread right now."""
        pool = self._pool
        if pool is None:
            return 0
        return pool._work_queue.qsize()

    # -- writing ----------------------------------------------------------------------

    def submit(self, record: dict) -> None:
        """Queue one record for writing (fire-and-forget, any thread).

        Serialization happens here (on the caller's thread) so the
        record dict cannot be mutated between submit and write.
        """
        if self._pool is None:
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        # Pool shut down mid-close: drop, exactly as the service did.
        with contextlib.suppress(RuntimeError):
            self._pool.submit(self._write_line, line)

    def _write_line(self, line: str) -> None:
        # A full disk must degrade the log, never the serving path --
        # but unlike the pre-PR-10 writer, the drop is now counted.
        try:
            self._file.write(line)
            self._file.flush()
        except (OSError, ValueError):
            if self._m_records is not None:
                self._m_errors.inc()
            return
        if self._m_records is not None:
            self._m_records.inc()
            self._m_bytes.inc(len(line.encode("utf-8")))
        if (
            self._max_bytes is not None
            and self._file.tell() >= self._max_bytes
        ):
            with contextlib.suppress(OSError, ValueError):
                self._rotate()

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
        self._file = open(path, "a", encoding="utf-8")
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
