"""Worker pool and checkpoint directory of the closure-expansion engine.

:class:`~repro.core.kernel.VectorEngine` runs the whole expansion; this
module holds its two optional out-of-process pieces:

* **Worker pool.**  With ``jobs > 1`` the engine fans per-gate
  candidate composition out to a ``multiprocessing`` pool.  The
  coordinator lays source-level rows and kept-index arrays into a shared
  scratch mapping, and workers compose + hash their assigned slices into
  disjoint ranges of a shared output mapping.  Output positions are
  fixed by the plan, so the candidate array is byte-identical to the
  in-process one no matter how slices interleave.
* **Checkpoint directory.**  With a ``checkpoint_dir`` completed levels
  are persisted (``level-NNNN.npz``), dedup slabs live as memmap files
  under ``slabs/``, and a manifest is atomically rewritten after every
  level.  A crash mid-level leaves in-flight claims and uncommitted rows
  in the slabs; on resume they are swept back to the last checkpoint
  (:meth:`~repro.core.dedup.ShardedDedupTable.sweep_uncommitted`) and
  the expansion continues -- producing the same closure as an
  uninterrupted run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kernel import hash_rows

#: Manifest schema version of a checkpoint directory.
CHECKPOINT_FORMAT = 1


# -- worker pool -----------------------------------------------------------------------
#
# Workers are plain processes; the only state they carry is the per-gate
# pair tables (shipped once through the pool initializer).  Level data
# travels through file-backed scratch mappings: the coordinator lays the
# needed source rows and kept-index arrays into ``in.buf``, workers
# compose + hash their slices into disjoint ranges of ``out.buf``.
# File-backed ``np.memmap`` (page-cache shared, path-addressable) is
# deliberately chosen over ``multiprocessing.shared_memory``: it is
# picklable as a path, start-method agnostic, and leaves no tracker
# residue if a worker dies.

_WORKER_TABLES: list[np.ndarray] | None = None


def _init_worker(table_blobs: list[bytes]) -> None:
    global _WORKER_TABLES
    _WORKER_TABLES = [
        np.frombuffer(blob, dtype=np.uint16) for blob in table_blobs
    ]


def _compose_task(task: tuple) -> None:
    """Compose + hash one slice of one (gate, source-level) chunk.

    ``task`` is ``(in_path, out_path, width, n_src_rows, kept_offset,
    total, gi, k0, k1, out_pos)``: rows ``kept[k0:k1]`` of the source
    block are composed through gate ``gi``'s pair table into candidate
    rows ``out_pos..`` and their hashes.
    """
    (
        in_path, out_path, width, n_src_rows, kept_offset,
        total, gi, k0, k1, out_pos,
    ) = task
    m = k1 - k0
    buf_in = np.memmap(in_path, dtype=np.uint8, mode="r")
    src16 = buf_in[: n_src_rows * width].reshape(n_src_rows, width).view(
        np.uint16
    )
    kept = buf_in[kept_offset:].view(np.int64)[k0:k1]
    buf_out = np.memmap(out_path, dtype=np.uint8, mode="r+")
    cand = buf_out[: total * width].reshape(total, width)
    hash_off = total * width + (-(total * width)) % 8
    hashes = buf_out[hash_off : hash_off + total * 8].view(np.uint64)
    block = cand[out_pos : out_pos + m]
    np.take(
        _WORKER_TABLES[gi],
        np.take(src16, kept, axis=0),
        out=block.view(np.uint16),
        mode="clip",
    )
    hashes[out_pos : out_pos + m] = hash_rows(block)
    # No flush: the mappings are MAP_SHARED, so the coordinator reads
    # the same page-cache pages; msync here would force synchronous
    # writeback of the whole output region to disk.


class ComposePool:
    """A worker pool plus the scratch mappings it composes through.

    Args:
        jobs: worker processes.
        tables16: the per-gate uint16 pair tables (shipped once).
        scratch_base: parent directory for the scratch mappings
            (``None``: the system temporary directory).
    """

    def __init__(
        self,
        jobs: int,
        tables16: list[np.ndarray],
        scratch_base: Path | None = None,
    ):
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self.jobs = jobs
        self._pool = ctx.Pool(
            jobs,
            initializer=_init_worker,
            initargs=([t.tobytes() for t in tables16],),
        )
        self._scratch_dir = Path(
            tempfile.mkdtemp(prefix="repro-expand-", dir=scratch_base)
        )

    def _scratch(self, name: str, size: int) -> Path:
        path = self._scratch_dir / name
        with open(path, "wb") as handle:
            handle.truncate(size)
        return path

    def compose(self, engine, chunks, total: int):
        """Compose + hash an engine's planned candidates in the pool.

        Writes the needed source levels and kept-index arrays into a
        scratch input mapping, assigns every chunk slice a fixed output
        range (chunk order = the in-process candidate order), and lets
        the workers fill the output mapping.  Returns ``(cand, ch)``,
        views of that mapping.
        """
        width = engine.width
        srcs = sorted({src for _gi, src, _kept in chunks})
        src_base = {}
        rows_total = 0
        for src in srcs:
            src_base[src] = rows_total
            rows_total += engine.level_size(src)
        kept_offset = rows_total * width
        kept_offset += (-kept_offset) % 8
        in_path = self._scratch("in.buf", kept_offset + total * 8)
        buf_in = np.memmap(in_path, dtype=np.uint8, mode="r+")
        for src in srcs:
            start = src_base[src] * width
            level = engine.level_perms(src)
            buf_in[start : start + level.size] = level.reshape(-1)
        kept_arr = buf_in[kept_offset:].view(np.int64)

        out_bytes = total * width
        out_pad = (-out_bytes) % 8
        out_path = self._scratch("out.buf", out_bytes + out_pad + total * 8)

        # Slice chunks into pool tasks; output positions are fixed now,
        # so any execution order reproduces the in-process layout.
        tasks = []
        slice_rows = max(8192, -(-total // (self.jobs * 4)))
        pos = 0
        for gi, src, kept in chunks:
            m = kept.size
            kept_arr[pos : pos + m] = src_base[src] + kept
            for k0 in range(0, m, slice_rows):
                k1 = min(m, k0 + slice_rows)
                tasks.append(
                    (
                        str(in_path), str(out_path), width, rows_total,
                        kept_offset, total, gi, pos + k0, pos + k1,
                        pos + k0,
                    )
                )
            pos += m
        self._pool.map(_compose_task, tasks, chunksize=1)
        del buf_in, kept_arr
        buf_out = np.memmap(out_path, dtype=np.uint8, mode="r+")
        cand = buf_out[:out_bytes].reshape(total, width)
        ch = buf_out[out_bytes + out_pad :].view(np.uint64)
        return cand, ch

    def close(self) -> None:
        """Stop the workers and remove the scratch mappings."""
        self._pool.close()
        self._pool.join()
        shutil.rmtree(self._scratch_dir, ignore_errors=True)


# -- checkpointing ---------------------------------------------------------------------


class ExpansionCheckpoint:
    """Per-level persistence of an expansion under one directory.

    Layout::

        <dir>/manifest.json      atomically replaced after every level
        <dir>/level-NNNN.npz     perms/masks/parents/gates of level N
        <dir>/slabs/shard-*.slab the live (memmapped) dedup slabs

    The manifest records the identity of the computation (library and
    cost-model fingerprints, degree, shard bits, parent tracking) plus
    the committed state (level offsets, per-shard slab sizes), so a
    resume can refuse a directory written for a different search.
    """

    def __init__(self, directory: str | Path, provenance: dict | None = None):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.provenance = dict(provenance or {})

    @property
    def manifest_path(self) -> Path:
        return self.dir / "manifest.json"

    @property
    def slab_dir(self) -> Path:
        return self.dir / "slabs"

    def level_path(self, level: int) -> Path:
        return self.dir / f"level-{level:04d}.npz"

    def load_manifest(self) -> dict | None:
        try:
            return json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None

    def compatible(self, manifest: dict, identity: dict) -> bool:
        """Whether a manifest matches this computation's identity."""
        if manifest.get("format") != CHECKPOINT_FORMAT:
            return False
        return all(manifest.get(k) == v for k, v in identity.items())

    def write_manifest(self, manifest: dict) -> None:
        """Atomically replace the manifest (the format version first)."""
        manifest = {"format": CHECKPOINT_FORMAT, **manifest}
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=1) + "\n")
        os.replace(tmp, self.manifest_path)

    def write_level(
        self,
        level: int,
        perms: np.ndarray,
        masks: np.ndarray,
        parents: np.ndarray,
        gates: np.ndarray,
    ) -> None:
        path = self.level_path(level)
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as handle:
            np.savez(
                handle, perms=perms, masks=masks, parents=parents, gates=gates
            )
        os.replace(tmp, path)

    def read_level(self, level: int) -> dict[str, np.ndarray]:
        with np.load(self.level_path(level)) as data:
            return {name: np.array(data[name]) for name in data.files}
