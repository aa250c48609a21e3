"""The reasonable-product cascade search (shared FMCF/MCE engine).

This is the computational heart of the paper: a layered breadth-first
closure over cascades of library gates, where a gate may extend a cascade
``f`` only when ``f(S)`` avoids the gate's banned set (Definition 1's
*reasonable product*).  Levels are indexed by accumulated quantum cost, so
with non-unit cost models the search is a Dijkstra-style layered
expansion; with the paper's unit costs it degenerates to plain BFS and the
level sets are exactly the paper's ``B[k]`` (and their union ``A[k]``).

The closure has one representation: arrays.  A search holds either a
:class:`~repro.core.kernel.VectorEngine` (the live expansion state) or a
:class:`SearchArrays` snapshot (store-loaded, possibly memory-mapped,
or the output of the reference kernel) -- one row of image bytes per
permutation plus S-image mask, parent and gate columns, in level-major
discovery order.  Every query reads those arrays; :meth:`CascadeSearch.level`
is a list view built from them on each call.

Two kernels drive the expansion:

* ``kernel="vector"`` (default): the NumPy engine of
  :mod:`repro.core.kernel` -- a gate application is one mask filter
  plus one fancy-indexing composition, relation-filtered candidates
  dedup through a sharded, spillable hash table, and composition
  optionally fans out to a worker pool.  Tunables (worker count, shard
  bits, dedup memory budget, checkpoint directory) arrive via
  ``kernel_options``.
* ``kernel="translate"``: the reference oracle -- one
  ``bytes.translate`` per candidate with its own dict dedup, local to
  one :meth:`CascadeSearch.extend_to` call.  It reads the current
  levels from the arrays and appends the new ones to a fresh
  :class:`SearchArrays` snapshot, so it never shares the vector
  engine's dedup table (``benchmarks/bench_kernel.py`` uses it as the
  baseline).

Both kernels produce identical levels in identical discovery order with
identical parent pointers; ``tests/test_kernels.py`` and
``tests/test_parallel.py`` pin that equivalence.  Parent pointers give
O(cost) witness extraction for MCE, and row-based accessors
(:meth:`CascadeSearch.perm_bytes_at`,
:meth:`CascadeSearch.witness_indices_for_row`) let index-serving layers
avoid byte-level lookups entirely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.errors import FrozenSearchError, InvalidValueError
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.kernel import (
    GateRows,
    VectorEngine,
    compute_masks,
    mask_int_to_words,
    mask_word_count,
    mask_words_to_int,
)
from repro.gates.library import GateLibrary
from repro.perm.permutation import Permutation, pack_images, unpack_images

#: Kernel names accepted by :class:`CascadeSearch`.
KERNELS = ("vector", "translate")


@dataclass
class SearchArrays:
    """Array-backed snapshot of an expanded search (the store form).

    Rows appear in level-major discovery order, so a row index is the
    permutation's *global index*; level ``k`` occupies rows
    ``level_offsets[k]:level_offsets[k+1]``.  All arrays may be plain
    ndarrays or read-only ``np.memmap`` views -- treat them as immutable.

    Attributes:
        expanded_to: highest fully-computed cost level.
        degree: label-space size (row width of *perms*).
        n_binary: number of binary labels (the paper's set S).
        mask_words: uint64 words per S-image mask row.
        level_offsets: ``(expanded_to + 2,)`` int64 row offsets.
        perms: ``(n, degree)`` uint8 image arrays.
        masks: ``(n, mask_words)`` uint64 S-image masks.
        parents: ``(n,)`` int32 parent global rows (row 0 = -1), or None
            for counting-only closures.
        gates: ``(n,)`` int32 appended-gate indices (row 0 = -1), or
            None alongside *parents*.
        elapsed_seconds: accumulated expansion wall time.
    """

    expanded_to: int
    degree: int
    n_binary: int
    mask_words: int
    level_offsets: np.ndarray
    perms: np.ndarray
    masks: np.ndarray
    parents: np.ndarray | None
    gates: np.ndarray | None
    elapsed_seconds: float

    @property
    def n_rows(self) -> int:
        return int(self.level_offsets[-1])

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(
            int(self.level_offsets[k + 1] - self.level_offsets[k])
            for k in range(self.expanded_to + 1)
        )

    def level_rows(self, cost: int) -> tuple[int, int]:
        """``(start, stop)`` global-row range of one level."""
        return int(self.level_offsets[cost]), int(self.level_offsets[cost + 1])


@dataclass(frozen=True)
class SearchStats:
    """Size/timing snapshot of an expanded search."""

    cost_bound: int
    level_sizes: tuple[int, ...]
    total_seen: int
    elapsed_seconds: float

    @property
    def a_sizes(self) -> tuple[int, ...]:
        """Cumulative sizes |A[k]| = |B[0]| + ... + |B[k]|."""
        out = []
        acc = 0
        for size in self.level_sizes:
            acc += size
            out.append(acc)
        return tuple(out)


def _level_pairs(perms, masks) -> list[tuple[bytes, int]]:
    """One level's rows as ``(image bytes, S-image mask int)`` pairs."""
    masks = np.asarray(masks)
    if masks.shape[1] == 1:
        ints = masks[:, 0].tolist()
    else:
        ints = [mask_words_to_int(row) for row in masks]
    return list(zip(unpack_images(np.asarray(perms)), ints))


class CascadeSearch:
    """Incremental layered closure over reasonable cascades.

    Args:
        library: gate library to search over.
        cost_model: integer gate costs (default: the paper's unit model).
        track_parents: keep one predecessor pointer per discovered
            permutation, enabling :meth:`witness_circuit`.  Costs memory
            proportional to the closure size; disable for counting-only
            runs such as Table 2.
        kernel: ``"vector"`` (NumPy engine, default) or ``"translate"``
            (the reference pure-Python loop).  Both produce identical
            closures; see the module docstring.
        kernel_options: tunables for the vector engine -- ``jobs``,
            ``shard_bits``, ``memory_budget``, ``checkpoint_dir`` (see
            :class:`repro.core.kernel.VectorEngine`).  Ignored by the
            translate kernel.
    """

    def __init__(
        self,
        library: GateLibrary,
        cost_model: CostModel = UNIT_COST,
        track_parents: bool = True,
        kernel: str = "vector",
        kernel_options: dict | None = None,
    ):
        if kernel not in KERNELS:
            raise InvalidValueError(
                f"unknown kernel {kernel!r}; pick one of {KERNELS}"
            )
        self._kernel_options = dict(kernel_options or {})
        self._library = library
        self._cost_model = cost_model
        self._track_parents = track_parents
        self._kernel = kernel
        space = library.space
        self._degree = space.size
        self._n_binary = space.n_binary
        self._s_mask = space.s_mask
        self._identity = bytes(range(self._degree))
        # Hot-path gate rows for the translate kernel:
        # (translate table, banned mask, cost, index).
        self._rows = tuple(
            (
                entry.table,
                entry.banned_mask,
                cost_model.gate_cost(entry.gate.kind),
                entry.index,
            )
            for entry in library.gates
        )
        self._expanded_to = 0
        self._elapsed = 0.0
        self._restored = False
        self._frozen = False
        self._attached_index: tuple[int, dict] | None = None
        # Optional progress sink (duck-typed ProgressReporter),
        # forwarded onto whichever engine runs the expansion.
        self._progress = None

        # The closure: the vector engine (when present) or a raw
        # SearchArrays snapshot (store-loaded, possibly memmapped, or
        # written by the translate kernel) -- exactly one is set.
        self._engine: VectorEngine | None = None
        self._raw: SearchArrays | None = None
        # Shard layout recorded by the store this search was loaded from.
        self._recorded_shards: dict | None = None

        if kernel == "translate":
            self._raw = self._identity_arrays()
        else:
            self._engine = self._new_engine()
            self._engine.seed_identity()
            if self._kernel_options.get("checkpoint_dir"):
                resumed = self._engine.try_resume()
                if resumed:
                    self._expanded_to = resumed
                    self._restored = True

    # -- infrastructure ----------------------------------------------------------------

    def _gate_rows(self) -> GateRows:
        inverse = []
        for entry in self._library.gates:
            try:
                inverse.append(self._library.adjoint_entry(entry).index)
            except Exception:
                inverse.append(-1)
        return GateRows(
            [row[0] for row in self._rows],
            [row[1] for row in self._rows],
            [row[2] for row in self._rows],
            inverse,
            mask_words=mask_word_count(self._degree),
        )

    def _new_engine(self) -> VectorEngine:
        options = dict(self._kernel_options)
        provenance = options.pop("provenance", None)
        if provenance is None and options.get("checkpoint_dir"):
            from repro.core.store import (
                cost_model_fingerprint,
                library_fingerprint,
            )

            provenance = {
                "library_fingerprint": library_fingerprint(self._library),
                "cost_fingerprint": cost_model_fingerprint(self._cost_model),
            }
        return VectorEngine(
            self._degree,
            self._n_binary,
            self._gate_rows(),
            track_parents=self._track_parents,
            provenance=provenance,
            **options,
        )

    def _identity_arrays(self) -> SearchArrays:
        """Level 0 alone: the identity singleton as a snapshot."""
        words = mask_word_count(self._degree)
        perms = np.frombuffer(self._identity, dtype=np.uint8)[None, :]
        parents = gates = None
        if self._track_parents:
            parents = np.full(1, -1, dtype=np.int32)
            gates = np.full(1, -1, dtype=np.int32)
        return SearchArrays(
            expanded_to=0,
            degree=self._degree,
            n_binary=self._n_binary,
            mask_words=words,
            level_offsets=np.array([0, 1], dtype=np.int64),
            perms=perms,
            masks=compute_masks(perms, self._n_binary, words),
            parents=parents,
            gates=gates,
            elapsed_seconds=0.0,
        )

    def _mask_of(self, perm: bytes) -> int:
        """Bitmask of the images of the binary labels under *perm*."""
        mask = 0
        for image in perm[: self._n_binary]:
            mask |= 1 << image
        return mask

    @property
    def library(self) -> GateLibrary:
        return self._library

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def expanded_to(self) -> int:
        """Highest cost level fully computed so far."""
        return self._expanded_to

    @property
    def tracks_parents(self) -> bool:
        return self._track_parents

    @property
    def kernel(self) -> str:
        """The expansion kernel this search uses."""
        return self._kernel

    def set_progress(self, reporter) -> None:
        """Attach a progress reporter (or detach with ``None``).

        The reporter (duck-typed
        :class:`~repro.telemetry.ProgressReporter`) receives
        level-start/level-end events from :meth:`extend_to` and
        plan/generate/commit (plus spill/checkpoint) events from the
        array engines.  Expansion results are byte-identical with or
        without one attached.
        """
        self._progress = reporter
        if self._engine is not None:
            self._engine.progress = reporter

    def use_kernel(self, kernel: str, kernel_options: dict | None = None) -> None:
        """Switch the expansion kernel for future :meth:`extend_to` calls.

        Either kernel picks up the closure's arrays as they are: the
        translate kernel reads them level by level, the vector engine
        replays a snapshot into its dedup table at the next expansion.
        Switching is therefore free until an expansion actually runs.
        *kernel_options* replaces the vector-engine tunables when given;
        a live engine built with other options hands its closure to a
        fresh engine at the next expansion.
        """
        if self._frozen:
            raise FrozenSearchError(
                "search is frozen for serving; kernels cannot be switched"
            )
        if kernel not in KERNELS:
            raise InvalidValueError(
                f"unknown kernel {kernel!r}; pick one of {KERNELS}"
            )
        self._kernel = kernel
        if kernel_options is not None and dict(kernel_options) != (
            self._kernel_options
        ):
            self._kernel_options = dict(kernel_options)
            if self._engine is not None:
                # Engine options are fixed at construction: park the
                # closure as an array snapshot; _ensure_engine replays
                # it into an engine built with the new options.
                self._raw = self.export_arrays()
                self._engine.close()
                self._engine = None

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has pinned this search for serving."""
        return self._frozen

    def freeze(self) -> "CascadeSearch":
        """Pin the closure for concurrent read-only serving.

        The long-lived service (:mod:`repro.server`) hands one search to
        a pool of worker threads.  Every query accessor only reads the
        closure's arrays -- the engine's, or a store's memory-mapped
        :class:`SearchArrays` -- and builds nothing lazily, but
        :meth:`extend_to`, :meth:`use_kernel` and
        :meth:`attach_remainder_index` mutate the search outright.
        ``freeze()`` makes the concurrency contract explicit:

        * the level tables are read once *now*, on the calling thread,
          so any latent inconsistency surfaces here instead of
          mid-query;
        * mutating operations (:meth:`extend_to` beyond the expanded
          bound, :meth:`use_kernel`, :meth:`attach_remainder_index`)
          raise :class:`~repro.errors.FrozenSearchError` afterwards;
        * a vector engine's worker pool and expansion scratch buffers
          are released (its dedup table stays, for row lookups).

        After ``freeze()`` returns, these methods are safe to call from
        any number of threads concurrently: :meth:`perm_bytes_at`,
        :meth:`cost_of_row`, :meth:`witness_indices_for_row`,
        :meth:`witness_indices`, :meth:`witness_circuit`,
        :meth:`find_matching_rows`, :meth:`s_fixing_rows`,
        :meth:`cost_of`, :meth:`level`, :meth:`level_size`,
        :meth:`total_seen` and :meth:`stats` (all for costs within the
        frozen bound).  Returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        self.stats()
        for cost in range(self._expanded_to + 1):
            self._level_start(cost)
        if self._engine is not None:
            # A search pinned for serving keeps no idle worker
            # processes or expansion scratch (the dedup table stays for
            # row lookups).
            self._engine.release_workers()
        self._frozen = True
        return self

    def shard_layout(self) -> dict | None:
        """Dedup-shard layout of the vector engine that built this closure.

        ``None`` for translate-kernel searches; a store-loaded search
        without an engine reports the layout its store recorded.  The
        v2/v3 store writers embed a non-None layout into the header so
        `repro store shards` can report it.
        """
        if self._kernel != "vector":
            return None
        if self._engine is None:
            return self._recorded_shards
        return self._engine.dedup_table.layout()

    @property
    def was_restored(self) -> bool:
        """True when this search was rebuilt from a snapshot or store.

        A restored search expanded to level 0 represents a deliberate
        bound of 0, unlike a fresh level-0 search that simply has not
        been extended yet -- :class:`~repro.core.batch.BatchSynthesizer`
        uses the distinction to pick its default bound.
        """
        return self._restored

    def _level_arrays(self, cost: int):
        """``(perms (n, degree) u8, masks (n, W) u64)`` for one level."""
        if self._engine is not None:
            return (
                self._engine.level_perms_raw(cost),
                self._engine.level_masks[cost],
            )
        start, stop = self._raw.level_rows(cost)
        return self._raw.perms[start:stop], self._raw.masks[start:stop]

    def _ensure_engine(self) -> VectorEngine:
        """The vector engine, replaying the raw snapshot into it first."""
        if self._engine is not None:
            return self._engine
        engine = self._new_engine()
        raw = self._raw
        for cost in range(raw.expanded_to + 1):
            start, stop = raw.level_rows(cost)
            engine.load_level(
                raw.perms[start:stop],
                raw.masks[start:stop],
                raw.parents[start:stop] if raw.parents is not None else None,
                raw.gates[start:stop] if raw.gates is not None else None,
            )
        # The engine copied everything out of the snapshot; drop the
        # raw reference so a memory-mapped store file is no longer
        # pinned (re-saving over it must work on every platform).
        self._raw = None
        self._engine = engine
        return engine

    def close(self) -> None:
        """Release engine resources (worker pool, dedup slabs, scratch).

        Only a search holding a vector engine has any; calling this on
        a translate-kernel or store-loaded search (or twice) is a
        no-op.  After closing, level reads and witness walks keep
        working (they read the engine's arrays), but exact row lookups
        on the engine (:meth:`cost_of` / ``find_row``) need the dedup
        slabs and raise a clean :class:`~repro.errors.InvalidValueError`.
        To keep a search fully queryable while only shedding worker
        processes, use :meth:`freeze` instead.
        """
        if self._engine is not None:
            self._engine.close()

    # -- expansion ---------------------------------------------------------------------

    def extend_to(self, cost_bound: int) -> None:
        """Ensure all levels up to *cost_bound* are computed."""
        if cost_bound < 0:
            raise InvalidValueError("cost bound must be non-negative")
        if cost_bound <= self._expanded_to:
            return
        if self._frozen:
            raise FrozenSearchError(
                f"search is frozen for serving at cost bound "
                f"{self._expanded_to}; cannot extend to {cost_bound}"
            )
        started = perf_counter()
        progress = self._progress
        if self._kernel == "vector":
            engine = self._ensure_engine()
            engine.progress = progress
            for cost in range(self._expanded_to + 1, cost_bound + 1):
                if progress is not None:
                    progress.emit("level-start", level=cost)
                    level_started = perf_counter()
                engine.expand_level(cost)
                self._expanded_to = cost
                if progress is not None:
                    progress.emit(
                        "level-end",
                        level=cost,
                        size=int(engine.level_size(cost)),
                        rows=int(engine.n_rows),
                        elapsed_s=round(perf_counter() - level_started, 6),
                    )
        else:
            self._extend_translate(cost_bound)
        # An attached store index only describes the pre-extension
        # closure file; release it (and its memmap pin) -- it is
        # rebuilt from the arrays on the next BatchSynthesizer.
        self._attached_index = None
        self._elapsed += perf_counter() - started

    def _extend_translate(self, cost_bound: int) -> None:
        """The reference kernel: ``bytes.translate`` plus a dict dedup.

        The dedup set and level lists live only for this call: the
        existing levels are read from the closure's arrays, and the new
        ones are appended to a fresh :class:`SearchArrays` snapshot that
        becomes the search's closure (any engine is closed).
        """
        base = self.export_arrays()
        seen = set(unpack_images(np.asarray(base.perms)))
        # cost -> (first global row, [(perm bytes, S-image mask)]).
        levels: dict[int, tuple[int, list[tuple[bytes, int]]]] = {}

        def source(cost: int):
            if cost not in levels:
                start, stop = base.level_rows(cost)
                levels[cost] = (
                    start,
                    _level_pairs(base.perms[start:stop], base.masks[start:stop]),
                )
            return levels[cost]

        offsets = [int(o) for o in base.level_offsets]
        parents: list[int] = []
        gates: list[int] = []
        progress = self._progress
        for cost in range(self._expanded_to + 1, cost_bound + 1):
            if progress is not None:
                progress.emit("level-start", level=cost)
                level_started = perf_counter()
            frontier: list[tuple[bytes, int]] = []
            for table, banned, gate_cost, gate_index in self._rows:
                if gate_cost > cost:
                    continue
                start, pairs = source(cost - gate_cost)
                for row, (perm, mask) in enumerate(pairs, start):
                    if mask & banned:
                        continue
                    product = perm.translate(table)
                    if product in seen:
                        continue
                    seen.add(product)
                    frontier.append((product, self._mask_of(product)))
                    parents.append(row)
                    gates.append(gate_index)
            levels[cost] = (offsets[-1], frontier)
            offsets.append(offsets[-1] + len(frontier))
            if progress is not None:
                progress.emit(
                    "level-end",
                    level=cost,
                    size=len(frontier),
                    rows=offsets[-1],
                    elapsed_s=round(perf_counter() - level_started, 6),
                )

        new_perms = pack_images(
            [
                perm
                for cost in range(self._expanded_to + 1, cost_bound + 1)
                for perm, _mask in levels[cost][1]
            ],
            self._degree,
        )
        tracked = base.parents is not None
        self._raw = SearchArrays(
            expanded_to=cost_bound,
            degree=self._degree,
            n_binary=self._n_binary,
            mask_words=base.mask_words,
            level_offsets=np.array(offsets, dtype=np.int64),
            perms=np.concatenate([np.asarray(base.perms), new_perms]),
            masks=np.concatenate(
                [
                    np.asarray(base.masks),
                    compute_masks(new_perms, self._n_binary, base.mask_words),
                ]
            ),
            parents=np.concatenate(
                [np.asarray(base.parents), np.array(parents, dtype=np.int32)]
            ) if tracked else None,
            gates=np.concatenate(
                [np.asarray(base.gates), np.array(gates, dtype=np.int32)]
            ) if tracked else None,
            elapsed_seconds=base.elapsed_seconds,
        )
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        self._expanded_to = cost_bound

    # -- queries -----------------------------------------------------------------------

    def level(self, cost: int) -> list[tuple[bytes, int]]:
        """The ``B[cost]`` level: list of (permutation bytes, S-image mask).

        Expands the search on demand.  The list is built from the
        level's arrays on every call; row-based consumers should prefer
        :meth:`find_matching_rows` / :meth:`s_fixing_rows`.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        return _level_pairs(*self._level_arrays(cost))

    def level_size(self, cost: int) -> int:
        if cost > self._expanded_to:
            self.extend_to(cost)
        if self._engine is not None:
            return self._engine.level_size(cost)
        start, stop = self._raw.level_rows(cost)
        return stop - start

    def total_seen(self) -> int:
        """|A[expanded_to]|: all distinct cascade permutations found."""
        if self._engine is not None:
            return self._engine.n_rows
        return self._raw.n_rows

    def cost_of(self, perm: bytes | Permutation) -> int | None:
        """Minimal cost of a full label permutation, if discovered so far."""
        key = perm.images if isinstance(perm, Permutation) else bytes(perm)
        if len(key) != self._degree:
            return None
        row = self._find_row(key)
        return None if row < 0 else self._level_of_row(row)

    def _find_row(self, key: bytes) -> int:
        if self._engine is not None:
            return self._engine.find_row(key)
        # Snapshot: a vectorized scan, level by level, instead of
        # copying the whole closure into an engine hash table.  O(n)
        # per call, but it keeps a store's lazy open lazy -- levels are
        # fetched through the store's row accessors (for a v3 store,
        # one decompressed chunk at a time through the section cache)
        # -- and it never mutates, so frozen searches can serve
        # cost_of() concurrently.
        wanted = np.frombuffer(key, dtype=np.uint8)
        raw = self._raw
        for cost in range(raw.expanded_to + 1):
            start, stop = raw.level_rows(cost)
            if start == stop:
                continue
            hits = np.flatnonzero(
                (raw.perms[start:stop] == wanted[None, :]).all(axis=1)
            )
            if hits.size:
                return start + int(hits[0])
        return -1

    def _level_of_row(self, row: int) -> int:
        if self._engine is not None:
            return self._engine.level_of_row(row)
        return bisect.bisect_right(self._raw.level_offsets.tolist(), row) - 1

    @property
    def s_mask(self) -> int:
        """The mask identifying binary-preserving cascades (b(S) = S)."""
        return self._s_mask

    def stats(self) -> SearchStats:
        return SearchStats(
            cost_bound=self._expanded_to,
            level_sizes=tuple(
                self.level_size(c) for c in range(self._expanded_to + 1)
            ),
            total_seen=self.total_seen(),
            elapsed_seconds=self._elapsed,
        )

    # -- row-based accessors (index-serving layers) ------------------------------------

    def n_rows(self) -> int:
        """Total rows (= :meth:`total_seen`), for row-based consumers."""
        return self.total_seen()

    def _check_row(self, row: int) -> None:
        """Refuse a global row index outside ``0 .. n_rows - 1``."""
        n = self.total_seen()
        if not 0 <= row < n:
            raise InvalidValueError(f"row {row} outside 0..{n - 1}")

    def perm_bytes_at(self, row: int) -> bytes:
        """The image bytes of the permutation at a global row index."""
        self._check_row(row)
        if self._engine is not None:
            return self._engine.row_bytes(row)
        return self._raw.perms[row].tobytes()

    def cost_of_row(self, row: int) -> int:
        """The level (= minimal cost) of a global row index."""
        self._check_row(row)
        return self._level_of_row(row)

    def _parent_of_row(self, row: int) -> tuple[int, int]:
        if self._engine is not None:
            return self._engine.parent_of(row)
        return int(self._raw.parents[row]), int(self._raw.gates[row])

    def witness_indices_for_row(self, row: int) -> list[int]:
        """Gate indices of the minimal cascade ending at a global row.

        The row-based twin of :meth:`witness_indices`: used by the batch
        index (and the v2 store's serialized remainder index) to extract
        witnesses without any byte-level lookup.
        """
        if not self._track_parents:
            raise InvalidValueError(
                "search was built with track_parents=False; no witnesses"
            )
        self._check_row(row)
        n = self.total_seen()
        indices: list[int] = []
        while row:
            row, gate_index = self._parent_of_row(row)
            indices.append(gate_index)
            if (
                len(indices) > self._expanded_to
                or not 0 <= gate_index < len(self._library)
                or not 0 <= row < n
            ):
                # Unit-or-heavier gate costs bound a minimal cascade's
                # length by its level; anything longer (or a bad gate
                # id or parent row) means corrupted parent data.
                raise InvalidValueError(
                    "parent walk exceeds the closure bound; the parent "
                    "arrays are corrupted"
                )
        indices.reverse()
        return indices

    def find_matching_rows(self, cost: int, remainder: bytes) -> list[int]:
        """Global rows at *cost* that fix S and restrict to *remainder*.

        The vectorized core of MCE's level scan: one boolean reduction
        over the level's arrays instead of a Python loop over its
        permutations.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        perms, masks = self._level_arrays(cost)
        if not perms.shape[0]:
            return []
        start = self._level_start(cost)
        wanted = np.frombuffer(remainder, dtype=np.uint8)
        hits = (perms[:, : self._n_binary] == wanted[None, :]).all(axis=1)
        hits &= self._s_fixing_mask(masks)
        return [start + int(i) for i in np.flatnonzero(hits)]

    def s_fixing_rows(self, cost: int):
        """``(global rows, remainders (n, n_binary) u8)`` fixing S at *cost*."""
        if cost > self._expanded_to:
            self.extend_to(cost)
        perms, masks = self._level_arrays(cost)
        local = np.flatnonzero(self._s_fixing_mask(masks))
        remainders = perms[local, : self._n_binary]
        return (self._level_start(cost) + local).tolist(), remainders

    def _s_fixing_mask(self, masks):
        s_words = mask_int_to_words(self._s_mask, masks.shape[1])
        if masks.shape[1] == 1:
            return masks[:, 0] == s_words[0]
        return (masks == s_words[None, :]).all(axis=1)

    def _level_start(self, cost: int) -> int:
        if self._engine is not None:
            return self._engine.offsets[cost]
        return int(self._raw.level_offsets[cost])

    def attach_remainder_index(self, cost_bound: int, index: dict) -> None:
        """Attach a precomputed remainder index (deserialized from a store).

        :class:`~repro.core.batch.BatchSynthesizer` picks this up and
        skips its closure scan entirely.
        """
        if self._frozen:
            raise FrozenSearchError(
                "search is frozen for serving; cannot swap its index"
            )
        self._attached_index = (cost_bound, index)

    @property
    def attached_remainder_index(self) -> tuple[int, dict] | None:
        return self._attached_index

    # -- snapshot export / restore -----------------------------------------------------

    def export_arrays(self) -> SearchArrays:
        """Snapshot the closure in array form (the store layout).

        Returns views of the live arrays where possible -- treat the
        result as read-only.
        """
        if self._engine is None:
            if self._raw.elapsed_seconds != self._elapsed:
                return replace(self._raw, elapsed_seconds=self._elapsed)
            return self._raw
        engine = self._engine
        parents = gates = None
        if self._track_parents:
            parents = np.concatenate(
                [lvl.astype(np.int32) for lvl in engine.level_parents]
            )
            gates = np.concatenate(
                [lvl.astype(np.int32) for lvl in engine.level_gates]
            )
        return SearchArrays(
            expanded_to=self._expanded_to,
            degree=self._degree,
            n_binary=self._n_binary,
            mask_words=engine.mask_words,
            level_offsets=np.asarray(engine.offsets, dtype=np.int64),
            perms=engine.all_perms_raw(),
            masks=np.concatenate(engine.level_masks),
            parents=parents,
            gates=gates,
            elapsed_seconds=self._elapsed,
        )

    @classmethod
    def from_arrays(
        cls,
        library: GateLibrary,
        arrays: SearchArrays,
        cost_model: CostModel = UNIT_COST,
        kernel: str = "vector",
        validate: bool = True,
        kernel_options: dict | None = None,
        shard_layout: dict | None = None,
    ) -> "CascadeSearch":
        """Rebuild a search from an array snapshot without copying rows.

        This is the O(levels touched) load path of the closure store:
        the arrays (typically ``np.memmap`` views) are adopted as-is,
        and nothing is read until a query touches it.  The result
        behaves exactly like the search the arrays were exported from:
        queries answer without re-expansion, and :meth:`extend_to`
        continues the closure past the stored bound (the vector kernel
        replays the arrays into an engine first).

        Args:
            validate: run structural sanity checks (shape/offset
                consistency and the identity row).  Skippable for
                payloads already guarded by a checksum.
            shard_layout: the dedup-shard layout recorded with the
                snapshot (a store header's ``shards``); reported by
                :meth:`shard_layout` until an engine takes over, so a
                re-save or migration keeps the build's provenance.
        """
        search = cls(
            library,
            cost_model,
            track_parents=arrays.parents is not None,
            kernel=kernel,
            kernel_options=kernel_options,
        )
        if validate:
            search._validate_arrays(arrays)
        search._engine = None
        search._raw = arrays
        search._expanded_to = arrays.expanded_to
        search._elapsed = arrays.elapsed_seconds
        search._restored = True
        search._recorded_shards = shard_layout or None
        return search

    def _validate_arrays(self, arrays: SearchArrays) -> None:
        if arrays.degree != self._degree:
            raise InvalidValueError(
                f"arrays have degree {arrays.degree}, library space has "
                f"{self._degree}"
            )
        if arrays.expanded_to + 2 != len(arrays.level_offsets):
            raise InvalidValueError(
                f"arrays claim bound {arrays.expanded_to} but carry "
                f"{len(arrays.level_offsets)} level offsets"
            )
        offsets = arrays.level_offsets
        if int(offsets[0]) != 0 or (np.diff(offsets) < 0).any():
            raise InvalidValueError("level offsets are not monotonic from 0")
        n = arrays.n_rows
        if arrays.perms.shape != (n, self._degree):
            raise InvalidValueError(
                f"perms array has shape {arrays.perms.shape}, expected "
                f"({n}, {self._degree})"
            )
        if int(offsets[1]) != 1 or arrays.perms[0].tobytes() != self._identity:
            raise InvalidValueError(
                "arrays level 0 is not the identity singleton"
            )
        if arrays.parents is not None:
            if arrays.parents.shape[0] != n or arrays.gates is None:
                raise InvalidValueError("parent/gate arrays are inconsistent")

    # -- witnesses ---------------------------------------------------------------------

    def witness_indices(self, perm: bytes | Permutation) -> list[int]:
        """Library gate indices of one minimal cascade realizing *perm*.

        Raises:
            InvalidValueError: if parents are not tracked or the
                permutation has not been discovered yet.
        """
        if not self._track_parents:
            raise InvalidValueError(
                "search was built with track_parents=False; no witnesses"
            )
        key = perm.images if isinstance(perm, Permutation) else bytes(perm)
        row = self._find_row(key) if len(key) == self._degree else -1
        if row < 0:
            raise InvalidValueError("permutation not discovered at current bound")
        return self.witness_indices_for_row(row)

    def witness_circuit(self, perm: bytes | Permutation) -> Circuit:
        """One minimal-cost circuit realizing *perm* (cascade order)."""
        gates = [
            self._library[i].gate for i in self.witness_indices(perm)
        ]
        return Circuit(gates, self._library.n_qubits)
