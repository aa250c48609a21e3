"""The reasonable-product cascade search (shared FMCF/MCE engine).

This is the computational heart of the paper: a layered breadth-first
closure over cascades of library gates, where a gate may extend a cascade
``f`` only when ``f(S)`` avoids the gate's banned set (Definition 1's
*reasonable product*).  Levels are indexed by accumulated quantum cost, so
with non-unit cost models the search is a Dijkstra-style layered
expansion; with the paper's unit costs it degenerates to plain BFS and the
level sets are exactly the paper's ``B[k]`` (and their union ``A[k]``).

The closure has one representation: a :class:`SearchArrays` -- one row
of image bytes per permutation plus S-image mask, parent and gate
columns, in level-major discovery order.  Every row read goes through
the search's one snapshot.  A store-loaded search adopts the store's
(possibly memory-mapped) arrays; a search that expands holds views of
its :class:`~repro.core.kernel.VectorEngine`'s row store, taken again
whenever the rows change (after an expansion, a replay or a resume),
never per query.

Queries ask which rows have a given S-image (a row's first ``2**n``
labels): :meth:`CascadeSearch.find_matching_rows` per vector and
level (MCE, Section 4), or grouped for every binary one through
:meth:`s_fixing_rows` into :mod:`repro.core.fmcf`'s remainder index.
:meth:`CascadeSearch.level` is a list view for the tests' oracles.

One kernel drives the expansion: the NumPy engine of
:mod:`repro.core.kernel` -- a gate application is one mask filter plus
one fancy-indexing composition, relation-filtered candidates dedup
through a sharded, spillable hash table.  Tunables (shard bits, dedup
memory budget, checkpoint directory) arrive via ``kernel_options``.  A
snapshot is replayed into an engine at its first extension.

``tests/reference_closure.py`` keeps the seed algorithm (one
``bytes.translate`` per candidate, a set for dedup) as the oracle;
``tests/test_kernels.py``, ``tests/test_parallel.py`` and the golden
tables pin identical levels, discovery order and parent pointers
against it.  Parent pointers give O(cost) witness extraction for MCE,
and row-based accessors (:meth:`CascadeSearch.perm_bytes_at`,
:meth:`CascadeSearch.witness_indices_for_row`) let index-serving layers
avoid byte-level lookups entirely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.errors import (
    FrozenSearchError,
    InvalidValueError,
    SpecificationError,
)
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.kernel import (
    GateRows,
    SearchArrays,
    VectorEngine,
    mask_int_to_words,
    mask_word_count,
    mask_words_to_int,
)
from repro.gates.library import GateLibrary
from repro.perm.permutation import Permutation, unpack_images

#: Vector-engine tunables accepted in ``kernel_options``.
KERNEL_OPTIONS = ("shard_bits", "memory_budget", "checkpoint_dir")


def _checked_kernel_options(options: dict | None) -> dict:
    """A copy of *options*, refusing unknown names and bad shard bits."""
    options = dict(options or {})
    unknown = sorted(set(options) - set(KERNEL_OPTIONS))
    if unknown:
        raise InvalidValueError(
            f"unknown kernel option(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(KERNEL_OPTIONS)}"
        )
    bits = options.get("shard_bits", 0)
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise InvalidValueError(
            f"shard_bits must be an integer, got {bits!r}"
        )
    return options


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
        kernel: ``"vector"``, the only expansion kernel; any other
            name is refused.
        kernel_options: tunables for the vector engine --
            ``shard_bits``, ``memory_budget``, ``checkpoint_dir`` (see
            :class:`repro.core.kernel.VectorEngine`); any other name is
            refused.
    """

    def __init__(
        self,
        library: GateLibrary,
        cost_model: CostModel = UNIT_COST,
        track_parents: bool = True,
        kernel: str = "vector",
        kernel_options: dict | None = None,
    ):
        if kernel != "vector":
            raise InvalidValueError(
                f"unknown kernel {kernel!r}; the only kernel is 'vector'"
            )
        self._setup(library, cost_model, track_parents, kernel_options)
        engine = self._engine = self._new_engine()
        engine.seed_identity()
        if self._kernel_options.get("checkpoint_dir"):
            resumed = engine.try_resume()
            if resumed:
                self._expanded_to = resumed
                self._restored = True
        self._adopt(engine.arrays())

    def _setup(self, library, cost_model, track_parents, kernel_options):
        """Everything but the closure (shared with :meth:`from_arrays`)."""
        self._kernel_options = _checked_kernel_options(kernel_options)
        self._library = library
        self._cost_model = cost_model
        self._track_parents = track_parents
        space = library.space
        self._degree = space.size
        self._n_binary = space.n_binary
        self._s_mask = space.s_mask
        self._identity = bytes(range(self._degree))
        self._n_gates = len(library)
        self._expanded_to = 0
        self._elapsed = 0.0
        self._restored = False
        self._frozen = False
        self._attached_index: tuple[int, dict] | None = None
        # Optional progress sink (duck-typed ProgressReporter),
        # forwarded onto whichever engine runs the expansion.
        self._progress = None
        # The closure every row read goes through (see the module
        # docstring), its row count and level offsets as plain ints
        # (see _adopt), and the engine that extends it, if one exists.
        self._arrays: SearchArrays | None = None
        self._n_rows = 0
        self._offsets: list[int] = [0]
        self._engine: VectorEngine | None = None
        # Shard layout recorded by the store this search was loaded from.
        self._recorded_shards: dict | None = None

    # -- infrastructure ----------------------------------------------------------------

    def _gate_rows(self) -> GateRows:
        entries = self._library.gates
        inverse = []
        for entry in entries:
            try:
                inverse.append(self._library.adjoint_entry(entry).index)
            except Exception:
                inverse.append(-1)
        return GateRows(
            [entry.table for entry in entries],
            [entry.banned_mask for entry in entries],
            [self._cost_model.gate_cost(entry.gate.kind) for entry in entries],
            inverse,
            mask_words=mask_word_count(self._degree),
        )

    def _new_engine(self) -> VectorEngine:
        options = self._kernel_options
        provenance = None
        if options.get("checkpoint_dir"):
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

    def set_kernel_options(self, kernel_options: dict) -> None:
        """Replace the vector-engine tunables for future expansions.

        Unknown names are refused, as in the constructor.  Engine
        options are fixed at construction, so a live engine built with
        other options is closed; the closure's arrays stay valid, and a
        fresh engine replays them at the next :meth:`extend_to` --
        changing options is free until an expansion actually runs.
        """
        if self._frozen:
            raise FrozenSearchError(
                "search is frozen for serving; kernel options cannot change"
            )
        kernel_options = _checked_kernel_options(kernel_options)
        if kernel_options == self._kernel_options:
            return
        self._kernel_options = kernel_options
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has pinned this search for serving."""
        return self._frozen

    def freeze(self) -> "CascadeSearch":
        """Pin the closure for concurrent read-only serving.

        The long-lived service (:mod:`repro.server`) shares one search
        between its event loop and its store-opener thread.  Every query
        accessor only reads the closure's :class:`SearchArrays` and
        builds nothing lazily, but
        :meth:`extend_to`, :meth:`set_kernel_options` and
        :meth:`attach_remainder_index` mutate the search outright.
        ``freeze()`` makes the concurrency contract explicit:

        * the level tables are read once *now*, on the calling thread,
          so any latent inconsistency surfaces here instead of
          mid-query;
        * mutating operations (:meth:`extend_to` beyond the expanded
          bound, :meth:`set_kernel_options`,
          :meth:`attach_remainder_index`)
          raise :class:`~repro.errors.FrozenSearchError` afterwards;
        * a vector engine's expansion scratch buffers are released
          (its dedup table stays, for row lookups).

        After ``freeze()`` returns, these methods are safe to call from
        any number of threads concurrently: :meth:`perm_bytes_at`,
        :meth:`cost_of_row`, :meth:`witness_indices_for_row`,
        :meth:`witness_indices`, :meth:`witness_circuit`,
        :meth:`find_matching_rows`, :meth:`s_fixing_rows`,
        :meth:`cost_of`, :meth:`level_size`, :meth:`total_seen` and
        :meth:`stats` (all for costs within the frozen bound), and the
        tests' :meth:`level`.  Returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        self.stats()
        for cost in range(self._expanded_to + 1):
            self._level_start(cost)
        if self._engine is not None:
            # A search pinned for serving keeps no expansion scratch
            # (the dedup table stays for row lookups).
            self._engine.release_scratch()
        self._frozen = True
        return self

    def shard_layout(self) -> dict | None:
        """Dedup-shard layout of the vector engine that built this closure.

        A search without an engine (store-loaded, or restored from a
        snapshot) reports the layout recorded with it, or ``None``.  The
        v2/v3 store writers embed a non-None layout into the header so
        `repro store shards` can report it.
        """
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

    def _adopt(self, arrays: SearchArrays) -> None:
        """Read every row through *arrays* from now on.

        The row count and level offsets are taken once per snapshot,
        as Python ints, so a row query never converts numpy scalars.
        """
        self._arrays = arrays
        self._offsets = arrays.level_offsets.tolist()
        self._n_rows = self._offsets[-1]

    def _level_arrays(self, cost: int):
        """``(perms (n, degree) u8, masks (n, W) u64)`` for one level."""
        start, stop = self._offsets[cost], self._offsets[cost + 1]
        return self._arrays.perms[start:stop], self._arrays.masks[start:stop]

    def _ensure_engine(self) -> VectorEngine:
        """The vector engine, replaying the snapshot into it first."""
        if self._engine is not None:
            return self._engine
        engine = self._new_engine()
        arrays = self._arrays
        for cost in range(arrays.expanded_to + 1):
            start, stop = arrays.level_rows(cost)
            engine.load_level(
                arrays.perms[start:stop],
                arrays.masks[start:stop],
                None if arrays.parents is None else arrays.parents[start:stop],
                None if arrays.gates is None else arrays.gates[start:stop],
            )
        # The engine copied every row in; its own views replace the
        # snapshot, so a memory-mapped store file is no longer pinned
        # (re-saving over it must work on every platform).
        self._engine = engine
        self._adopt(engine.arrays())
        return engine

    def close(self) -> None:
        """Release engine resources (dedup slabs, scratch buffers).

        Only a search holding a vector engine has any; calling this on
        a store-loaded search (or twice) is a no-op.  After closing,
        level reads and witness walks keep working (they read the
        closure's arrays), but exact row lookups on the engine
        (:meth:`cost_of` / ``find_row``) need the dedup slabs and raise
        a clean :class:`~repro.errors.InvalidValueError`.  To keep a
        search fully queryable while only shedding the expansion
        scratch, use :meth:`freeze` instead.
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
        engine = self._ensure_engine()
        engine.progress = progress
        # The snapshot's views would pin the row store's current
        # buffers through a level that outgrows them; drop it for the
        # expansion and take the grown store's views afterwards.
        self._arrays = None
        try:
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
        finally:
            # An attached store index only describes the pre-extension
            # closure file; release it (and its memmap pin) -- it is
            # rebuilt from the arrays on the next BatchSynthesizer.
            self._attached_index = None
            self._elapsed += perf_counter() - started
            self._adopt(engine.arrays())

    # -- queries -----------------------------------------------------------------------

    def level(self, cost: int) -> list[tuple[bytes, int]]:
        """The ``B[cost]`` level: list of (permutation bytes, S-image mask).

        Expands the search on demand and builds the list on every
        call.  Only the tests' oracles read it; queries go through
        :meth:`find_matching_rows` or the remainder index.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        return _level_pairs(*self._level_arrays(cost))

    def level_size(self, cost: int) -> int:
        if cost > self._expanded_to:
            self.extend_to(cost)
        return self._offsets[cost + 1] - self._offsets[cost]

    def total_seen(self) -> int:
        """|A[expanded_to]|: all distinct cascade permutations found."""
        return self._n_rows

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
        arrays = self._arrays
        for cost in range(arrays.expanded_to + 1):
            start, stop = arrays.level_rows(cost)
            if start == stop:
                continue
            hits = np.flatnonzero(
                (arrays.perms[start:stop] == wanted[None, :]).all(axis=1)
            )
            if hits.size:
                return start + int(hits[0])
        return -1

    def _level_of_row(self, row: int) -> int:
        return bisect.bisect_right(self._offsets, row) - 1

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
        n = self._n_rows
        if not 0 <= row < n:
            raise InvalidValueError(f"row {row} outside 0..{n - 1}")

    def perm_bytes_at(self, row: int) -> bytes:
        """The image bytes of the permutation at a global row index."""
        self._check_row(row)
        return self._arrays.perms[row].tobytes()

    def cost_of_row(self, row: int) -> int:
        """The level (= minimal cost) of a global row index."""
        self._check_row(row)
        return self._level_of_row(row)

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
        n, bound, n_gates = self._n_rows, self._expanded_to, self._n_gates
        indices: list[int] = []
        # ``item`` reads a Python int from every array kind: an engine
        # view, a memory-mapped v2 section or a lazy v3 one.
        parent, gate = self._arrays.parents.item, self._arrays.gates.item
        while row:
            row, gate_index = parent(row), gate(row)
            indices.append(gate_index)
            if (
                len(indices) > bound
                or not 0 <= gate_index < n_gates
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

    def find_matching_rows(self, cost: int, wanted: bytes) -> list[int]:
        """Global rows at *cost* whose first ``n_binary`` images are *wanted*.

        A binary *wanted* (MCE's remainder) implies b(S) = S; any other
        is a Section 4 specification.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        start = self._level_start(cost)
        head = self._level_arrays(cost)[0][:, : self._n_binary]
        vector = np.frombuffer(wanted, dtype=np.uint8)
        if self._n_binary % 8 == 0:
            # Eight labels per compare (3 qubits: one u64 per row).
            head, vector = head.view("<u8"), vector.view("<u8")
        hits = (head == vector[None, :]).all(axis=1)
        return [start + int(i) for i in np.flatnonzero(hits)]

    def s_fixing_rows(self, cost: int):
        """``(global rows, remainders (n, n_binary) u8)`` fixing S at *cost*."""
        if cost > self._expanded_to:
            self.extend_to(cost)
        perms, masks = self._level_arrays(cost)
        s_words = mask_int_to_words(self._s_mask, masks.shape[1])
        local = np.flatnonzero((masks == s_words[None, :]).all(axis=1))
        remainders = perms[local, : self._n_binary]
        return (self._level_start(cost) + local).tolist(), remainders

    def _level_start(self, cost: int) -> int:
        return self._offsets[cost]

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

        Returns the search's own snapshot -- for a search that expanded,
        views of the engine's row store -- so treat it as read-only.
        """
        if self._arrays.elapsed_seconds != self._elapsed:
            return replace(self._arrays, elapsed_seconds=self._elapsed)
        return self._arrays

    @classmethod
    def from_arrays(
        cls,
        library: GateLibrary,
        arrays: SearchArrays,
        cost_model: CostModel = UNIT_COST,
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
        continues the closure past the stored bound (the arrays are
        replayed into an engine first).

        Args:
            validate: run structural sanity checks (shape/offset
                consistency and the identity row).  Skippable for
                payloads already guarded by a checksum.
            shard_layout: the dedup-shard layout recorded with the
                snapshot (a store header's ``shards``); reported by
                :meth:`shard_layout` until an engine takes over, so a
                re-save or migration keeps the build's provenance.
        """
        # No engine until an extension needs one (see _ensure_engine).
        search = cls.__new__(cls)
        search._setup(
            library, cost_model, arrays.parents is not None, kernel_options
        )
        if validate:
            search._validate_arrays(arrays)
        search._adopt(arrays)
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


def search_for(
    library: GateLibrary,
    cost_model: CostModel | None,
    search: CascadeSearch | None,
    track_parents: bool,
    caller: str,
) -> CascadeSearch:
    """*search* checked for *caller*'s one-shot query, or a fresh one.

    A *cost_model* of None means the shared search's own (unit for a
    fresh one); any other model is refused, since the search's levels
    are costs under its own.
    """
    if search is None:
        return CascadeSearch(
            library, cost_model or UNIT_COST, track_parents=track_parents
        )
    if cost_model is not None and cost_model != search.cost_model:
        raise SpecificationError(
            f"{caller} was given {cost_model} but the shared search "
            f"costs cascades under {search.cost_model}"
        )
    if track_parents and not search.tracks_parents:
        raise SpecificationError(f"{caller} needs a parent-tracking search")
    return search
