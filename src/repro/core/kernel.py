"""NumPy-vectorized closure-expansion engine (the hot path of the search).

The seed engine extended a level by looping over every (cascade, gate)
pair in Python: one ``bytes.translate`` per candidate plus a dict lookup
for dedup.  This module replaces that inner loop with array operations
over fixed-size candidate batches on a :class:`VectorEngine`:

* **Representation.**  Each discovered permutation is one row of a
  contiguous ``(n_rows, padded_width)`` uint8 array (padded to a
  multiple of 8 so rows view as uint64 words); rows are appended in
  discovery order, so a row index is the permutation's *global index*
  and levels are contiguous row ranges.  Parallel global arrays in the
  same row order hold each row's S-image bitmask (``mask_words``
  uint64 words per row), parent global row and appended gate index.
  :meth:`VectorEngine.arrays` exposes them as one :class:`SearchArrays`
  of views -- the form every closure read goes through.

* **Candidate generation.**  Per gate, Definition 1's reasonable-product
  test is one vectorized mask filter (``masks & banned == 0``) and
  composition is one fancy-indexing gather through a precomputed
  65536-entry uint16 *pair table* (two labels substituted per lookup --
  half the gathers of a byte-wise table).  A guaranteed-duplicate
  back-edge filter drops candidates that would just undo the gate that
  created their source (``p * g * g^-1 = p`` is always already seen).

* **Relation filter.**  Before composing anything, a precomputed table
  of length-:math:`\\le 2` gate relations (commutations, two-gate
  products that equal a cheaper gate, inverse pairs) drops candidates
  that some *earlier* candidate -- earlier level, or same level and a
  smaller library-gate index -- is guaranteed to have produced.  On the
  paper's 3-qubit library this removes ~75% of the duplicate candidate
  mass at the deep levels without touching a single row byte (see
  :class:`RelationFilter` for why it cannot change results).

* **Streaming, in two stages.**  A level's planned candidates are
  cut into batches (half of :data:`_BATCH_BYTES` of rows, at most
  :data:`_BATCH_ROWS` rows, and a short first one), in library-gate
  order.  A worker thread composes, hashes and masks batch k+1 into
  one of two reused scratch sets while the calling thread dedups and
  commits batch k from the other; batches commit in candidate order.
  The row store and the dedup table are sized once per level from the
  plan's kept count.  Each batch dedups against every row committed
  before it -- earlier levels and earlier batches alike -- so the
  closure is the one a single whole-level batch would find, at a
  fraction of the scratch memory.

* **Dedup.**  New candidates are separated from duplicates by a
  :class:`~repro.core.dedup.ShardedDedupTable`: per-shard
  open-addressing slabs (hash-prefix sharded, spilling to ``np.memmap``
  files past a memory budget) with claim races resolved to the lowest
  candidate id.  Hash hits are verified against full packed rows, so
  the result is exact.  The normative claim protocol lives in
  :mod:`repro.core.dedup`.

* **Checkpoints** (optional).  ``checkpoint_dir`` persists every
  level and the dedup slabs so a crashed expansion resumes
  (:class:`ExpansionCheckpoint`).  A crash mid-level leaves in-flight
  claims and uncommitted rows in the slabs; on resume they are swept
  back to the last checkpoint
  (:meth:`~repro.core.dedup.ShardedDedupTable.sweep_uncommitted`) and
  the expansion continues -- producing the same closure as an
  uninterrupted run.

Determinism contract: for any library and cost model the engine
discovers the same level sets, in the same order, with the same parent
pointers as the seed ``bytes.translate`` loop (the reference oracle in
``tests/reference_closure.py``), for every value of ``shard_bits`` and
memory budget.  ``tests/test_kernels.py`` and ``tests/test_parallel.py``
pin the equivalence, forced hash collisions and claim races included.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.dedup import ShardedDedupTable, shard_of
from repro.errors import InvalidValueError

#: 64-bit mulxor hash constant (golden-ratio multiplier).
_HASH_C = np.uint64(0x9E3779B97F4A7C15)
_ONE = np.uint64(1)


def padded_width(degree: int) -> int:
    """Row width in bytes: *degree* rounded up to a multiple of 8."""
    return -(-degree // 8) * 8


def mask_word_count(degree: int) -> int:
    """uint64 words needed for a *degree*-bit S-image mask."""
    return -(-degree // 64) or 1


def mask_int_to_words(value: int, words: int) -> np.ndarray:
    """Split an arbitrary-precision bitmask into little-endian u64 words."""
    return np.array(
        [(value >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(words)],
        dtype=np.uint64,
    )


def mask_words_to_int(row: np.ndarray) -> int:
    """Recombine u64 mask words into a Python int bitmask."""
    out = 0
    for w, word in enumerate(row.tolist()):
        out |= word << (64 * w)
    return out


def pack_rows(rows: np.ndarray, degree: int) -> np.ndarray:
    """Pad ``(n, degree)`` uint8 rows to the kernel's aligned width.

    Pad columns hold the fixed points ``degree .. padded_width-1`` so a
    padded row is itself a valid permutation of the padded domain and
    gate tables (identity beyond *degree*) leave the padding untouched.
    """
    width = padded_width(degree)
    n = rows.shape[0]
    if rows.shape[1] == width:
        return np.ascontiguousarray(rows, dtype=np.uint8)
    out = np.empty((n, width), dtype=np.uint8)
    out[:, :degree] = rows
    out[:, degree:] = np.arange(degree, width, dtype=np.uint8)
    return out


#: Row-block size for cache-blocked column sweeps (rows * width ~ L2).
_CHUNK = 1 << 16
#: Bytes of packed candidate rows in flight: bounds the expansion
#: scratch, which is two half-size batches (one composed while the
#: other commits; 47,662 rows each at 4 qubits).
_BATCH_BYTES = 16 << 20
#: Most candidates per batch whatever the row width, so narrow rows
#: (3 qubits, the ternary and quaternary libraries) still get several
#: batches a level to overlap.
_BATCH_ROWS = 1 << 16
#: Rows the worker gathers, composes, hashes and masks together, so
#: each step's temporaries stay cache-sized.
_BLOCK = 1 << 12


def hash_rows(packed: np.ndarray) -> np.ndarray:
    """Mulxor hash of packed rows: ``(n, words) u64 -> (n,) u64``.

    Processed in row blocks so the per-word column sweeps stay in cache
    (each sweep touches every row's cache line; blocking pays the DRAM
    traffic once instead of once per word).
    """
    n = packed.shape[0]
    if not n:
        return np.empty(0, dtype=np.uint64)
    words = packed.view(np.uint64).reshape(n, -1)
    out = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        block = words[start : start + _CHUNK]
        h = block[:, 0] * _HASH_C
        for j in range(1, block.shape[1]):
            h = (h ^ block[:, j]) * _HASH_C
        out[start : start + _CHUNK] = h
    return out


#: ``_BIT64[i] == 1 << i`` -- gather table for vectorized mask building.
_BIT64 = _ONE << np.arange(64, dtype=np.uint64)
#: Row-block size of the multi-word mask builder's presence matrix
#: (``rows * 64 * words`` bools, kept cache-sized).
_MASK_CHUNK = 1 << 13


def compute_masks(
    perms: np.ndarray, n_binary: int, words: int, out: np.ndarray | None = None
) -> np.ndarray:
    """S-image mask words for each row: OR of ``1 << image`` over S.

    ``perms`` may be padded or degree-wide; only the first *n_binary*
    columns (the binary labels, always the low indices of the reduced
    ordering) are read.  Writes into *out* (``(n, words)`` u64) when
    given.
    """
    n = perms.shape[0]
    if out is None:
        out = np.empty((n, words), dtype=np.uint64)
    if words == 1:
        for start in range(0, n, _CHUNK):
            block = perms[start : start + _CHUNK]
            mask = _BIT64[block[:, 0]]
            for j in range(1, n_binary):
                mask |= _BIT64[block[:, j]]
            out[start : start + _CHUNK, 0] = mask
        return out
    for start in range(0, n, _MASK_CHUNK):
        block = perms[start : start + _MASK_CHUNK, :n_binary]
        # One presence row of 64 * words flags per permutation, packed
        # bit i of byte b = label 8b + i: the little-endian u64 words.
        present = np.zeros((block.shape[0], 64 * words), dtype=bool)
        present[np.arange(block.shape[0])[:, None], block] = True
        out[start : start + _MASK_CHUNK] = np.packbits(
            present, axis=1, bitorder="little"
        ).view(np.uint64)
    return out


def _pair_table(table: bytes) -> np.ndarray:
    """uint16 pair-substitution table for a 256-byte translate table.

    Entry ``hi << 8 | lo`` maps to ``t[hi] << 8 | t[lo]``, so composing
    a little-endian uint16 view of a row substitutes two labels per
    gather.
    """
    t16 = np.frombuffer(table, dtype=np.uint8).astype(np.uint16)
    return ((t16[:, None] << np.uint16(8)) | t16[None, :]).ravel()


class GateRows:
    """Static per-gate kernel data derived from a gate library.

    Attributes:
        tables: per-gate raw 256-byte translate tables (the source the
            derived pair tables and relation filters are built from).
        tables16: per-gate uint16 pair tables.
        banned: per-gate ``(mask_words,)`` u64 banned masks.
        costs: per-gate integer costs.
        inverse: per-gate index of the inverse gate (-1 if the inverse
            is not in the library), for the back-edge duplicate filter.
    """

    __slots__ = ("tables", "tables16", "banned", "costs", "inverse", "groups")

    def __init__(
        self,
        tables: list[bytes],
        banned_masks: list[int],
        costs: list[int],
        inverse: list[int],
        mask_words: int,
    ):
        self.tables = [bytes(t) for t in tables]
        self.tables16 = [_pair_table(t) for t in tables]
        self.banned = [mask_int_to_words(b, mask_words) for b in banned_masks]
        self.costs = list(costs)
        self.inverse = list(inverse)
        # Gates sharing (banned set, cost) also share the reasonable-
        # product filter, so the per-level keep mask is computed once per
        # group (the paper's L_A..L_BC sub-libraries for n = 3).
        groups: dict[tuple, list[int]] = {}
        for gi, (mask, cost) in enumerate(zip(banned_masks, costs)):
            groups.setdefault((mask, cost), []).append(gi)
        self.groups = list(groups.values())

    def __len__(self) -> int:
        return len(self.tables16)


def preimage_mask(table: bytes, mask: int, degree: int) -> int:
    """Labels ``x < degree`` that *table* maps into *mask*, as a mask."""
    return sum(1 << x for x in range(degree) if mask >> table[x] & 1)


def _minimal(masks: list[int]) -> list[int]:
    """The distinct masks that contain no other one, fewest bits first."""
    kept: list[int] = []
    for mask in sorted(set(masks), key=int.bit_count):
        if all(mask & other != other for other in kept):
            kept.append(mask)
    return kept


class RelationFilter:
    """Pre-composition pruning from length-:math:`\\le 2` gate relations.

    For a candidate ``t_g . p`` where row ``p`` was created by appending
    gate ``q`` to parent ``a`` (so the candidate's image is
    ``t_g . t_q . a``), the filter may drop the candidate when one of
    these holds:

    * **identity** -- ``t_g . t_q = e``: the image *is* ``a``,
      discovered two levels down (subsumes the kernel's inverse
      back-edge filter, and also fires when the inverse permutation
      hides under a different gate name).
    * **single** -- ``t_g . t_q = t_h`` with ``cost(h) < cost(q) +
      cost(g)`` (or equal cost and ``h < g``), and ``h`` applicable to
      ``a`` (``mask(a) & banned(h) == 0``): candidate ``(a, h)``
      produced the image at an earlier level (or earlier chunk of the
      same level).
    * **pair** -- ``t_g . t_q = t_{g2} . t_{q2}`` with ``cost(q2) +
      cost(g2)`` smaller (any ``g2``) or equal and ``g2 < g``, with
      both steps applicable: ``mask(a) & banned(q2) == 0`` and
      ``mask(t_{q2} . a) & banned(g2) == 0``.  Then
      ``r = t_{q2} . a`` is discovered no later than
      ``cost(a) + cost(q2)`` and candidate ``(r, g2)`` precedes ours.

    Why this is exact: every skipped candidate names a witness
    candidate strictly earlier in the (level, gate-chunk) enumeration
    that yields the same image.  The witness may itself have been
    skipped, but each skip steps strictly down a well-founded order, so
    a chain of witnesses always terminates at a non-skipped earlier
    producer.  First producers therefore are never skipped, and level
    contents, discovery order and parent choice all survive untouched.

    Every rule is one test on ``mask(a)``, so the filter never composes
    a row.  The gate table ``t_{q2}`` is a bijection on labels, so
    ``t_{q2} . a`` maps a point of S into ``banned(g2)`` exactly when
    ``a`` maps it into the preimage ``t_{q2}^{-1}(banned(g2))``: the
    pair rule is ``mask(a) & (banned(q2) | preimage) == 0``, with a
    constant mask per alternative.  The single rule's mask is
    ``banned(h)`` and the identity's is zero.  A candidate is skipped
    iff ``mask(a) & A == 0`` for one of its ``(g, q)`` alternatives
    ``A``; an alternative whose mask contains another's can never fire
    first and is dropped.  Rows of unknown provenance (restored levels
    carrying ``-1`` parent or gate entries) are passed as gate ``-1``,
    which has no alternatives.
    """

    def __init__(self, gate_rows: GateRows, degree: int, mask_words: int):
        n_g = len(gate_rows)
        tables = gate_rows.tables
        costs = gate_rows.costs
        banned = [mask_words_to_int(b) for b in gate_rows.banned]
        # products[t_g . t_q] = every (q, g) composing to it
        products: dict[bytes, list[tuple[int, int]]] = {}
        for q in range(n_g):
            for g in range(n_g):
                key = tables[q][:degree].translate(tables[g])
                products.setdefault(key, []).append((q, g))
        by_single = {t[:degree]: h for h, t in enumerate(tables)}
        identity = bytes(range(degree))

        #: Relations found per rule, before redundant ones are dropped.
        self.found = {"identity": 0, "single": 0, "pair": 0}
        alternatives: dict[tuple[int, int], list[int]] = {}
        for key, members in products.items():
            single_h = by_single.get(key)
            for q, g in members:
                if key == identity:
                    self.found["identity"] += 1
                    alternatives[g, q] = [0]
                    continue
                total = costs[q] + costs[g]
                masks = []
                if single_h is not None and (
                    costs[single_h] < total
                    or (costs[single_h] == total and single_h < g)
                ):
                    self.found["single"] += 1
                    masks.append(banned[single_h])
                for q2, g2 in members:
                    total2 = costs[q2] + costs[g2]
                    if (q2, g2) != (q, g) and (
                        total2 < total or (total2 == total and g2 < g)
                    ):
                        self.found["pair"] += 1
                        masks.append(
                            banned[q2]
                            | preimage_mask(tables[q2], banned[g2], degree)
                        )
                if masks:
                    alternatives[g, q] = _minimal(masks)

        # _alts[g, q, k] = alternative k of (g, q), all ones where there
        # is none (S-masks are nonzero, so it never fires).  Column
        # q = n_g, which gate -1 indexes, is the unknown provenance.
        depth = max(map(len, alternatives.values()), default=0)
        self._alts = np.full(
            (n_g, n_g + 1, depth, mask_words), ~np.uint64(0), dtype=np.uint64
        )
        self._any = np.zeros((n_g, n_g + 1), dtype=bool)
        for (g, q), masks in alternatives.items():
            self._any[g, q] = True
            for k, mask in enumerate(masks):
                self._alts[g, q, k] = mask_int_to_words(mask, mask_words)

    @property
    def active(self) -> bool:
        """Whether any relation exists for this library at all."""
        return bool(self._any.any())

    def prune(
        self,
        gi: int,
        rows: np.ndarray,
        gates: np.ndarray,
        pmasks: np.ndarray,
    ) -> np.ndarray:
        """The *rows* whose gate-``gi`` candidates no relation drops.

        ``gates[r]`` is row ``r``'s last gate (``-1`` if unknown) and
        ``pmasks[r]`` its parent's S-image mask words.
        """
        # Test only the rows whose last gate has an alternative.
        at = np.flatnonzero(self._any[gi][gates[rows]])
        if not at.size:
            return rows
        tested = rows[at]
        alts = self._alts[gi][gates[tested]]
        # misses[i, k]: row i's parent mask misses alternative k's mask.
        misses = ~(pmasks[tested][:, None, :] & alts).any(axis=2)
        keep = np.ones(rows.shape[0], dtype=bool)
        keep[at[misses.any(axis=1)]] = False
        return rows[keep]


@dataclass
class SearchArrays:
    """Array form of an expanded closure (the store layout).

    Rows appear in level-major discovery order, so a row index is the
    permutation's *global index*; level ``k`` occupies rows
    ``level_offsets[k]:level_offsets[k+1]``.  All arrays may be plain
    ndarrays, views of a live engine's row store or read-only
    ``np.memmap`` views -- treat them as immutable.

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


class _Scratch:
    """One batch of candidate scratch: packed rows and their hashes,
    S-image masks, parent global rows and appended-gate indices."""

    __slots__ = ("rows", "cand", "hashes", "masks", "parents", "gates")

    def __init__(self, rows: int, width: int, mask_words: int):
        self.rows = rows
        self.cand = np.empty((rows, width), dtype=np.uint8)
        self.hashes = np.empty(rows, dtype=np.uint64)
        self.masks = np.empty((rows, mask_words), dtype=np.uint64)
        self.parents = np.empty(rows, dtype=np.int32)
        self.gates = np.empty(rows, dtype=np.int32)

    def batch(self, n: int):
        """Views of the first *n* rows, in :meth:`VectorEngine._commit_batch`
        argument order."""
        return (
            self.cand[:n], self.hashes[:n], self.masks[:n],
            self.parents[:n], self.gates[:n],
        )


class VectorEngine:
    """Array-backed closure state plus the vectorized expansion kernel.

    One engine instance owns everything the expansion touches: the
    global row store (packed permutations, hashes, S-image masks,
    parents and gates), the relation filter and the sharded dedup
    table.  :meth:`arrays` hands the committed rows out as one
    :class:`SearchArrays` of views, which is all the public
    :class:`~repro.core.search.CascadeSearch` reads.

    Saving an expansion goes through the streamed store writers
    (:func:`~repro.core.store.save_search`): both the memory-mapped v2
    layout and the chunk-compressed v3 layout are emitted level by level
    straight off the row store, so writing never materializes a second
    copy of the closure -- the property that lets a budgeted run save a
    store larger than the dedup table's RAM cap.

    Args:
        shard_bits: the dedup keyspace is range-sharded into
            ``2**shard_bits`` hash-prefix shards.
        memory_budget: soft RAM cap (bytes) for dedup slabs; past it,
            slabs spill to memmap files.
        checkpoint_dir: persist completed levels + slabs here and resume
            from them (see :meth:`try_resume`).
        provenance: identity payload pinned into the checkpoint
            manifest (library/cost fingerprints).
    """

    def __init__(
        self,
        degree: int,
        n_binary: int,
        gate_rows: GateRows,
        track_parents: bool = True,
        *,
        shard_bits: int = 6,
        memory_budget: int | None = None,
        checkpoint_dir: str | Path | None = None,
        provenance: dict | None = None,
    ):
        self.degree = degree
        self.n_binary = n_binary
        self.width = padded_width(degree)
        self.mask_words = mask_word_count(degree)
        self.gate_rows = gate_rows
        self.track_parents = track_parents

        # The row store: five arrays in global row order, grown
        # together.  Parents and gates are recorded even for
        # counting-only runs -- the relation filter reads them -- and
        # are -1 where unknown (the identity row, replayed levels
        # without provenance).
        cap = 1024
        self._perms = np.empty((cap, self.width), dtype=np.uint8)
        self._hashes = np.empty(cap, dtype=np.uint64)
        self._masks = np.empty((cap, self.mask_words), dtype=np.uint64)
        self._parents = np.empty(cap, dtype=np.int32)
        self._gates = np.empty(cap, dtype=np.int32)
        self.n_rows = 0
        self.offsets: list[int] = [0]

        self._checkpoint = None
        if checkpoint_dir is not None:
            self._checkpoint = ExpansionCheckpoint(checkpoint_dir, provenance)
        self._table = ShardedDedupTable(
            shard_bits=shard_bits,
            memory_budget=memory_budget,
            spill_dir=self._checkpoint.slab_dir if self._checkpoint else None,
            persistent=self._checkpoint is not None,
        )
        #: The two batch scratch sets of the pipeline (see
        #: :meth:`_stream_level`), allocated on first expansion.
        self._scratch: tuple[_Scratch, _Scratch] | None = None
        self._closed = False

        #: Optional progress sink (duck-typed ``ProgressReporter``);
        #: ``None`` keeps every phase boundary a plain attribute check,
        #: so un-instrumented runs pay nothing.
        self.progress = None

    # -- row store ---------------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.offsets) - 1

    def level_size(self, level: int) -> int:
        return self.offsets[level + 1] - self.offsets[level]

    def _level_slice(self, level: int) -> slice:
        """Global-row range of one level, for slicing the row store."""
        return slice(self.offsets[level], self.offsets[level + 1])

    def level_perms(self, level: int) -> np.ndarray:
        """Padded ``(n, width)`` uint8 view of one level's rows."""
        return self._perms[self._level_slice(level)]

    def arrays(self) -> SearchArrays:
        """The committed rows as one :class:`SearchArrays` of views.

        Views of the current buffers: rows committed later, and buffers
        a later level grows into, are not in it -- take a fresh one
        after each expansion.  Parents and gates are ``None`` unless the
        engine tracks parents; ``elapsed_seconds`` is 0 (the search
        that drives the engine keeps the time).
        """
        n = self.n_rows
        parents = gates = None
        if self.track_parents:
            parents, gates = self._parents[:n], self._gates[:n]
        return SearchArrays(
            expanded_to=self.n_levels - 1,
            degree=self.degree,
            n_binary=self.n_binary,
            mask_words=self.mask_words,
            level_offsets=np.array(self.offsets, dtype=np.int64),
            perms=self._perms[:n, : self.degree],
            masks=self._masks[:n],
            parents=parents,
            gates=gates,
            elapsed_seconds=0.0,
        )

    def find_row(self, images: bytes) -> int:
        """Global row of a permutation, or -1 if not discovered."""
        row = np.frombuffer(images, dtype=np.uint8)[None, :]
        packed = pack_rows(row, self.degree)
        h = hash_rows(packed)[0]
        return self._table.find(
            packed.view(np.uint64)[0], h, self._perms.view(np.uint64)
        )

    @cached_property
    def _filter(self) -> RelationFilter | None:
        """The relation filter, or None when the library has no relations.

        Built on first use: an engine that only replays a stored
        closure never pays for it.
        """
        relations = RelationFilter(self.gate_rows, self.degree, self.mask_words)
        return relations if relations.active else None

    @property
    def dedup_table(self) -> ShardedDedupTable:
        return self._table

    def dedup_stats(self) -> dict:
        """Occupancy of the dedup table, as progress-event fields."""
        layout = self._table.layout()
        stats = {
            "dedup_slots": int(self._table.n_shards * layout["slab_slots"]),
            "dedup_used": int(self.n_rows),
        }
        if layout["spilled"]:
            stats["dedup_spilled"] = True
        return stats

    def _reserve_rows(self, extra: int) -> None:
        """Make room for *extra* more rows in the five row-store arrays.

        Capacity at least doubles, so replaying many small levels stays
        amortized; pages past ``n_rows`` that are never written cost no
        resident memory.
        """
        need = self.n_rows + extra
        cap = self._perms.shape[0]
        if need <= cap:
            return
        cap = max(need, 2 * cap)
        n = self.n_rows
        for name in ("_perms", "_hashes", "_masks", "_parents", "_gates"):
            old = getattr(self, name)
            grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def _append_level(self, perms, hashes, masks, parents, gates) -> None:
        """Copy one level's rows into the store (scalars broadcast)."""
        n = perms.shape[0]
        self._reserve_rows(n)
        rows = slice(self.n_rows, self.n_rows + n)
        self._perms[rows] = perms
        self._hashes[rows] = hashes
        self._masks[rows] = masks
        self._parents[rows] = parents
        self._gates[rows] = gates
        self._close_level(rows.stop)

    def _close_level(self, stop: int) -> None:
        """Record rows ``n_rows..stop`` (already in the store) as a level."""
        self.n_rows = stop
        self.offsets.append(stop)

    def seed_identity(self) -> None:
        """Install level 0: the identity singleton."""
        if self.n_levels:
            raise InvalidValueError("engine already seeded")
        identity = np.arange(self.width, dtype=np.uint8)[None, :]
        h = hash_rows(identity)
        self._append_level(
            identity,
            h,
            compute_masks(identity, self.n_binary, self.mask_words),
            -1,
            -1,
        )
        self._table.insert_distinct(
            h, np.ones(1, dtype=np.int32), self._hashes, self.n_rows
        )

    def load_level(
        self,
        perms: np.ndarray,
        masks: np.ndarray | None = None,
        parents: np.ndarray | None = None,
        gates: np.ndarray | None = None,
    ) -> None:
        """Append one level of already-validated, pairwise-distinct rows.

        Used when rebuilding the engine from a store or an array
        snapshot.  ``masks`` are recomputed when absent; ``parents`` and
        ``gates`` default to -1 (unknown -- the back-edge and relation
        filters then skip those rows, which only costs a few extra
        candidates).  Adopted checkpoint slabs are discarded first -- a
        replayed closure is its own source of truth -- and, when
        checkpointing, the replayed level is persisted so a later resume
        covers it.
        """
        self._discard_adopted_slabs()
        n = perms.shape[0]
        # The inputs may be views of a memory-mapped store file, and the
        # engine must not keep that mapping alive (the caller may
        # re-save over the file): the row store copies them in.
        packed = pack_rows(np.array(perms, dtype=np.uint8), self.degree)
        hashes = hash_rows(packed)
        if masks is None:
            masks = compute_masks(packed, self.n_binary, self.mask_words)
        else:
            masks = np.asarray(masks).reshape(n, self.mask_words)
        start = self.n_rows
        self._append_level(
            packed,
            hashes,
            masks,
            -1 if parents is None else parents,
            -1 if gates is None else gates,
        )
        if n:
            self._table.insert_distinct(
                hashes,
                (start + 1 + np.arange(n)).astype(np.int32),
                self._hashes,
                self.n_rows,
            )
        if self._checkpoint is not None:
            self._write_level(self.n_levels - 1)

    # -- the kernel --------------------------------------------------------------------

    def _plan_chunks(self, cost: int):
        """Candidate chunks ``(gate, src level, kept src rows)`` for a level.

        Returns ``(chunks, total, planned)``: *planned* counts the
        candidates passing the reasonable-product and back-edge tests,
        *total* those the relation filter keeps.  Chunks are sorted by
        library-gate index: candidates must appear in gate order for
        discovery order (and hence parent choice) to match the seed
        ``bytes.translate`` loop.
        """
        rows = self.gate_rows
        chunks: list[tuple[int, int, np.ndarray]] = []
        total = 0
        planned = 0
        provenance: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for group in rows.groups:
            src = cost - rows.costs[group[0]]
            if src < 0 or src >= self.n_levels or not self.level_size(src):
                continue
            src_gates = self._gates[self._level_slice(src)]
            masks = self._masks[self._level_slice(src)]
            banned = rows.banned[group[0]]
            if self.mask_words == 1:
                keep_group = (masks[:, 0] & banned[0]) == 0
            else:
                keep_group = ~((masks & banned[None, :]).any(axis=1))
            for gi in group:
                inverse = rows.inverse[gi]
                if inverse >= 0:
                    # p * g * g^-1 == p is always already discovered.
                    keep = keep_group & (src_gates != inverse)
                else:
                    keep = keep_group
                kept = np.flatnonzero(keep)
                planned += kept.size
                if kept.size and self._filter is not None:
                    if src not in provenance:
                        provenance[src] = self._provenance(src)
                    kept = self._filter.prune(gi, kept, *provenance[src])
                if kept.size:
                    chunks.append((gi, src, kept))
                    total += kept.size
        chunks.sort(key=lambda chunk: chunk[0])
        return chunks, total, planned

    def _provenance(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Each level-``src`` row's last gate and its parent's S-image
        mask: the relation filter's inputs, gathered once per level.

        A row whose parent is unknown gets gate ``-1``.
        """
        level = self._level_slice(src)
        parents = self._parents[level]
        known = parents >= 0
        gates = np.where(known, self._gates[level], -1)
        return gates, self._masks[np.where(known, parents, 0)]

    def _scratch_sets(self, size: int) -> tuple[_Scratch, _Scratch]:
        """The two batch scratch sets, grown to *size* rows if smaller.

        Reused across batches and levels, so repeated levels skip
        realloc and page faults.
        """
        if self._scratch is None or self._scratch[0].rows < size:
            self._scratch = tuple(
                _Scratch(size, self.width, self.mask_words) for _ in range(2)
            )
        return self._scratch

    @staticmethod
    def _batches(chunks, size: int):
        """Cut the planned chunks into batches of at most *size* candidates.

        Yields one list of ``(gate, src level, src rows)`` pieces per
        batch, in chunk order; a chunk may straddle batch boundaries.
        """
        # A short first batch: the commit stage idles until it is
        # composed.
        limit = max(1, size // 8)
        pieces, fill = [], 0
        for gi, src, kept in chunks:
            done = 0
            while done < kept.size:
                m = min(kept.size - done, limit - fill)
                pieces.append((gi, src, kept[done : done + m]))
                fill += m
                done += m
                if fill == limit:
                    yield pieces
                    pieces, fill, limit = [], 0, size
        if pieces:
            yield pieces

    def _compose_batch(self, scratch: _Scratch, pieces):
        """The generate stage: compose one batch into *scratch*.

        Writes the packed candidate rows of *pieces*, their hashes,
        S-image masks, parent global rows and appended-gate indices,
        and returns views of them.  Runs on the worker thread; it only
        reads committed levels, which the concurrent commit never
        touches.
        """
        cand16 = scratch.cand.view(np.uint16)
        tables16 = self.gate_rows.tables16
        pos = 0
        for gi, src, rows in pieces:
            perms16 = self.level_perms(src).view(np.uint16)
            end = pos + rows.size
            scratch.parents[pos:end] = self.offsets[src] + rows
            scratch.gates[pos:end] = gi
            for lo in range(0, rows.size, _BLOCK):
                block = rows[lo : lo + _BLOCK]
                out16 = cand16[pos + lo : pos + lo + block.size]
                np.take(perms16, block, axis=0, out=out16)
                # mode="clip" skips the bounds check; uint16 indices
                # cannot exceed the 65536-entry pair table anyway.
                np.take(tables16[gi], out16, out=out16, mode="clip")
            pos = end
        # Hash and mask per block of the batch, not per piece: a batch
        # of many small pieces (every gate of a small level) then pays
        # each pass's fixed cost once, and the block stays cache-hot
        # from the hash to the mask pass.
        for lo in range(0, pos, _BLOCK):
            at = slice(lo, min(lo + _BLOCK, pos))
            scratch.hashes[at] = hash_rows(scratch.cand[at])
            compute_masks(
                scratch.cand[at], self.n_binary, self.mask_words,
                out=scratch.masks[at],
            )
        return scratch.batch(pos)

    def _commit_batch(self, cand, ch, masks, parents, gates, stop: int) -> int:
        """The commit stage: dedup one batch and store its new rows.

        Accepted rows (with their hashes, S-image masks, parents and
        gates) are written at ``stop``, the end of the rows committed
        so far; returns how many were accepted.
        """
        self._table.reserve(ch, self._hashes, stop)
        new_mask = self._table.dedup_commit(
            cand.view(np.uint64), ch, self._perms.view(np.uint64), stop
        )
        accepted = np.flatnonzero(new_mask)
        end = stop + accepted.size
        np.take(cand, accepted, axis=0, out=self._perms[stop:end])
        np.take(ch, accepted, out=self._hashes[stop:end])
        np.take(masks, accepted, axis=0, out=self._masks[stop:end])
        np.take(parents, accepted, out=self._parents[stop:end])
        np.take(gates, accepted, out=self._gates[stop:end])
        return accepted.size

    def _stream_level(self, chunks, total: int) -> int:
        """Generate and commit a level's batches as a two-stage pipeline.

        A single worker thread composes batch k+1 into one scratch set
        while this thread commits batch k from the other, so batches
        still commit in candidate order.  The worker lives only for
        this call: leaving the ``with`` block (normally or by an
        exception from either stage) joins it.  Returns the row count
        after the level.
        """
        half = max(1, _BATCH_BYTES // (2 * self.width))
        size = min(total, _BATCH_ROWS, half)
        sets = self._scratch_sets(size)
        stop = self.n_rows
        pending = None
        with ThreadPoolExecutor(1, "repro-compose") as worker:
            for k, pieces in enumerate(self._batches(chunks, size)):
                # Batch k reuses the set batch k-2 committed from.
                ready = worker.submit(self._compose_batch, sets[k % 2], pieces)
                if pending is not None:
                    stop += self._commit_batch(*pending.result(), stop)
                pending = ready
            if pending is not None:
                stop += self._commit_batch(*pending.result(), stop)
        return stop

    def expand_level(self, cost: int) -> int:
        """Compute the next level (must be ``n_levels``); returns its size."""
        if cost != self.n_levels:
            raise InvalidValueError(
                f"levels must be expanded in order: next is {self.n_levels}, "
                f"got {cost}"
            )
        # Safety net: never expand against adopted-but-unvalidated
        # checkpoint slabs (try_resume clears the flag when it vouches
        # for them).
        self._discard_adopted_slabs()
        was_spilled = self._table.spilled
        progress = self.progress
        chunks, total, planned = self._plan_chunks(cost)
        if progress is not None:
            progress.emit(
                "plan",
                level=cost,
                chunks=len(chunks),
                planned=int(planned),
                kept=int(total),
                rows=int(self.n_rows),
            )
        # The plan's kept count bounds the accepted rows: size the row
        # store and the dedup table once, so no batch reallocates the
        # store and batches rarely regrow the table mid-level.
        self._reserve_rows(total)
        if total:
            self._table.reserve_rows(total, self._hashes, self.n_rows)
        stop = self._stream_level(chunks, total)
        if progress is not None and total:
            progress.emit("generate", level=cost, candidates=int(total))
        n_new = stop - self.n_rows
        self._close_level(stop)
        if progress is not None:
            progress.emit(
                "commit",
                level=cost,
                accepted=int(n_new),
                rows=int(self.n_rows),
                **self.dedup_stats(),
            )
            if self._table.spilled and not was_spilled:
                progress.emit("spill", level=cost)
        if self._checkpoint is not None:
            self._write_checkpoint(cost)
        return n_new

    # -- teardown ----------------------------------------------------------------------

    def release_scratch(self) -> None:
        """Drop both candidate scratch sets reused across levels.

        Keeps the dedup table (row lookups still need it) -- this is
        what :meth:`CascadeSearch.freeze` calls so a search pinned for
        serving holds no expansion-sized scratch.
        """
        self._scratch = None

    def close(self) -> None:
        """Release the dedup slabs and scratch buffers."""
        if self._closed:
            return
        self._closed = True
        self.release_scratch()
        self._table.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- checkpoint / resume -----------------------------------------------------------

    def _identity_dict(self) -> dict:
        identity = {
            "degree": self.degree,
            "n_binary": self.n_binary,
            "mask_words": self.mask_words,
            "track_parents": self.track_parents,
            "shard_bits": self._table.shard_bits,
        }
        identity.update(self._checkpoint.provenance)
        return identity

    def _write_level(self, level: int) -> None:
        rows = self._level_slice(level)
        self._checkpoint.write_level(
            level,
            self._perms[rows, : self.degree],
            self._masks[rows],
            self._parents[rows],
            self._gates[rows],
        )

    def _write_checkpoint(self, cost: int) -> None:
        self._write_level(cost)
        self._table.flush()
        manifest = self._identity_dict()
        manifest.update(
            {
                "level_offsets": list(self.offsets),
                "n_rows": self.n_rows,
                "slab_bits": self._table.slab_bits,
            }
        )
        self._checkpoint.write_manifest(manifest)
        if self.progress is not None:
            self.progress.emit(
                "checkpoint", level=cost, path=str(self._checkpoint.dir)
            )

    def try_resume(self) -> int:
        """Adopt a compatible checkpoint; returns the resumed cost bound.

        Call once, right after :meth:`seed_identity`.  Levels recorded
        in the manifest are loaded back, the persistent dedup slabs are
        swept back to the checkpointed row count (erasing whatever a
        mid-level crash left in flight), and any shard whose contents
        fail validation is rebuilt from the committed rows.  Returns 0
        (nothing to resume) when the directory is empty or was written
        for a different computation.
        """
        if self._checkpoint is None or self.n_levels != 1:
            return 0
        found = self._checkpointed_levels()
        if found is None:
            self._discard_adopted_slabs()
            return 0
        manifest, levels = found
        # Adopt slab geometry before any insert touches the table (the
        # seeded identity row is part of the checkpointed slabs).
        self._table.adopt_geometry(
            int(manifest.get("slab_bits", self._table.slab_bits))
        )
        for data in levels:
            packed = pack_rows(data["perms"], self.degree)
            self._append_level(
                packed,
                hash_rows(packed),
                data["masks"].reshape(packed.shape[0], self.mask_words),
                data["parents"],
                data["gates"],
            )
        self._table.sweep_uncommitted(self.n_rows)
        self._rebuild_shards(mismatched_only=True)
        self._table.adopted = False  # contents now vouched for
        return self.n_levels - 1

    def _checkpointed_levels(self):
        """``(manifest, level arrays)`` of a usable checkpoint, or None."""
        manifest = self._checkpoint.load_manifest()
        if manifest is None or not self._checkpoint.compatible(
            manifest, self._identity_dict()
        ):
            return None
        offsets = [int(o) for o in manifest.get("level_offsets", [])]
        if len(offsets) < 2 or offsets[:2] != [0, 1]:
            return None
        try:
            levels = [
                self._checkpoint.read_level(level)
                for level in range(1, len(offsets) - 1)
            ]
        except (OSError, ValueError, KeyError):
            return None
        return manifest, levels

    def _discard_adopted_slabs(self) -> None:
        """Rebuild adopted persistent slabs from this engine's own rows.

        A persistent table adopts whatever slab files the checkpoint
        directory holds -- including a crashed run's in-flight claims.
        :meth:`try_resume` validates or sweeps them; every *other* way
        of populating the engine (``load_level`` replays from a store
        or another engine) must first erase the foreign contents, or
        stale claims would make genuine first-producer candidates
        "verify" as duplicates and silently shrink the closure.
        """
        if self._table.adopted:
            self._rebuild_shards(mismatched_only=False)
            self._table.adopted = False

    def _rebuild_shards(self, mismatched_only: bool) -> None:
        """Re-derive shard slabs from the committed rows.

        With *mismatched_only*, only shards whose recorded row count
        disagrees with the row store are rebuilt.
        """
        hashes = self._hashes[: self.n_rows]
        shards = shard_of(hashes, self._table.shard_bits)
        expected = np.bincount(shards, minlength=self._table.n_shards)
        recorded = self._table.layout()["rows_per_shard"]
        for s in range(self._table.n_shards):
            if mismatched_only and recorded[s] == int(expected[s]):
                continue
            rows = np.flatnonzero(shards == s).astype(np.int64)
            self._table.reinsert_shard(
                s, np.take(hashes, rows), (rows + 1).astype(np.int32)
            )


# -- checkpoint directory --------------------------------------------------------------

#: Manifest schema version of a checkpoint directory.
CHECKPOINT_FORMAT = 1


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
