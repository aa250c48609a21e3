"""NumPy-vectorized closure-expansion engine (the hot path of the search).

The seed engine extended a level by looping over every (cascade, gate)
pair in Python: one ``bytes.translate`` per candidate plus a dict lookup
for dedup.  This module replaces that inner loop with whole-level array
operations on a :class:`VectorEngine`:

* **Representation.**  Each discovered permutation is one row of a
  contiguous ``(n_rows, padded_width)`` uint8 array (padded to a
  multiple of 8 so rows view as uint64 words); rows are appended in
  discovery order, so a row index is the permutation's *global index*
  and levels are contiguous row ranges.  Parallel per-level arrays hold
  the S-image bitmask (``mask_words`` uint64 words per row), the parent
  global row and the appended gate index.

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
  :class:`RelationFilter` for why it cannot change results).  The same
  tables push a parent's S-image mask through the appended gate, so
  accepted rows get their masks without re-reading their images.

* **Dedup.**  New candidates are separated from duplicates by a
  :class:`~repro.core.dedup.ShardedDedupTable`: per-shard
  open-addressing slabs (hash-prefix sharded, spilling to ``np.memmap``
  files past a memory budget) with claim races resolved to the lowest
  candidate id.  Hash hits are verified against full packed rows, so
  the result is exact.  The normative claim protocol lives in
  :mod:`repro.core.dedup`.

* **Worker pool and checkpoints** (optional).  ``jobs > 1`` fans
  composition out to a :class:`~repro.core.parallel.ComposePool`;
  ``checkpoint_dir`` persists every level and the dedup slabs so a
  crashed expansion resumes (:class:`~repro.core.parallel.ExpansionCheckpoint`).

Determinism contract: for any library and cost model the engine
discovers the same level sets, in the same order, with the same parent
pointers as the seed ``bytes.translate`` kernel
(``CascadeSearch(kernel="translate")``), for every value of ``jobs``,
``shard_bits`` and memory budget.  ``tests/test_kernels.py`` and
``tests/test_parallel.py`` pin the equivalence, forced hash collisions
and claim races included.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.dedup import ShardedDedupTable, shard_of
from repro.errors import InvalidValueError

#: 64-bit mulxor hash constant (golden-ratio multiplier).
_HASH_C = np.uint64(0x9E3779B97F4A7C15)
_ONE = np.uint64(1)

#: Below this many planned candidates a level is composed in-process
#: even when a worker pool is configured (IPC would dominate).
PARALLEL_MIN_CANDIDATES = 4096


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


def compute_masks(perms: np.ndarray, n_binary: int, words: int) -> np.ndarray:
    """S-image mask words for each row: OR of ``1 << image`` over S.

    ``perms`` may be padded or degree-wide; only the first *n_binary*
    columns (the binary labels, always the low indices of the reduced
    ordering) are read.
    """
    n = perms.shape[0]
    out = np.zeros((n, words), dtype=np.uint64)
    if words == 1:
        for start in range(0, n, _CHUNK):
            block = perms[start : start + _CHUNK]
            mask = _BIT64[block[:, 0]]
            for j in range(1, n_binary):
                mask |= _BIT64[block[:, j]]
            out[start : start + _CHUNK, 0] = mask
    else:
        img = perms[:, :n_binary].astype(np.uint64)
        word_idx = img >> np.uint64(6)
        bit = _ONE << (img & np.uint64(63))
        for w in range(words):
            out[:, w] = np.bitwise_or.reduce(
                np.where(word_idx == w, bit, np.uint64(0)), axis=1
            )
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
      ``perm_mask(q2, mask(a)) & banned(g2) == 0``.  Then
      ``r = t_{q2} . a`` is discovered no later than
      ``cost(a) + cost(q2)`` and candidate ``(r, g2)`` precedes ours.

    Why this is exact: every skipped candidate names a witness
    candidate strictly earlier in the (level, gate-chunk) enumeration
    that yields the same image.  The witness may itself have been
    skipped, but each skip steps strictly down a well-founded order, so
    a chain of witnesses always terminates at a non-skipped earlier
    producer.  First producers therefore are never skipped, and level
    contents, discovery order and parent choice all survive untouched.
    Rows with unknown provenance (restored levels carrying ``-1``
    parent or gate entries) are never filtered.

    ``perm_mask(q, m)`` is the S-image mask ``m`` pushed through gate
    ``q``'s label permutation; it is evaluated via per-gate, per-byte
    lookup tables so the filter never composes a full row.
    """

    def __init__(self, gate_rows: GateRows, degree: int, mask_words: int):
        self._n_g = n_g = len(gate_rows)
        self._words = mask_words
        self._nbytes = nbytes = -(-degree // 8)
        tables = [
            np.frombuffer(t, dtype=np.uint8) for t in gate_rows.tables
        ]
        costs = gate_rows.costs
        banned = gate_rows.banned  # per gate: (words,) u64

        identity = np.arange(256, dtype=np.uint8)
        stacked = np.stack(tables)
        # composed[g, q] = t_g . t_q on the label space
        composed = stacked[:, stacked[:, :degree]]
        products: dict[bytes, list[tuple[int, int]]] = {}
        for q in range(n_g):
            for g in range(n_g):
                key = composed[g, q].tobytes()
                products.setdefault(key, []).append((q, g))
        by_single = {
            t[:degree].tobytes(): h for h, t in enumerate(tables)
        }
        identity_key = identity[:degree].tobytes()

        #: uncond[g][q] -- skip unconditionally (product is identity).
        self._uncond = np.zeros((n_g, n_g), dtype=bool)
        # singles[k] and pair_*[k] are per-alternative sentinel-padded
        # lookup arrays indexed [g][q]; all-ones banned sentinels make
        # the corresponding condition unsatisfiable (S-masks are
        # nonzero), so unused slots are naturally inert.
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        singles: list[np.ndarray] = []
        pair_q2: list[np.ndarray] = []
        pair_b1: list[np.ndarray] = []
        pair_b2: list[np.ndarray] = []
        single_used: list[np.ndarray] = []
        pair_used: list[np.ndarray] = []

        def _place_single(g, q, banned_h):
            for k, used in enumerate(single_used):
                if not used[g, q]:
                    singles[k][g, q] = banned_h
                    used[g, q] = True
                    return
            singles.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            single_used.append(np.zeros((n_g, n_g), dtype=bool))
            singles[-1][g, q] = banned_h
            single_used[-1][g, q] = True

        def _place_pair(g, q, q2, b1, b2):
            for k, used in enumerate(pair_used):
                if not used[g, q]:
                    pair_q2[k][g, q] = q2
                    pair_b1[k][g, q] = b1
                    pair_b2[k][g, q] = b2
                    used[g, q] = True
                    return
            pair_q2.append(np.zeros((n_g, n_g), dtype=np.int64))
            pair_b1.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            pair_b2.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            pair_used.append(np.zeros((n_g, n_g), dtype=bool))
            pair_q2[-1][g, q] = q2
            pair_b1[-1][g, q] = b1
            pair_b2[-1][g, q] = b2
            pair_used[-1][g, q] = True

        for key, members in products.items():
            is_identity = key == identity_key
            single_h = by_single.get(key)
            for q, g in members:
                total = costs[q] + costs[g]
                if is_identity:
                    self._uncond[g, q] = True
                    continue
                if single_h is not None and (
                    costs[single_h] < total
                    or (costs[single_h] == total and single_h < g)
                ):
                    _place_single(g, q, banned[single_h])
                for q2, g2 in members:
                    if (q2, g2) == (q, g):
                        continue
                    total2 = costs[q2] + costs[g2]
                    if total2 < total or (total2 == total and g2 < g):
                        _place_pair(g, q, q2, banned[q2], banned[g2])
        self._singles = singles
        self._pair_q2 = pair_q2
        self._pair_b1 = pair_b1
        self._pair_b2 = pair_b2
        # any_alt[g][q]: does (q, g) have any alternative at all?  One
        # gather against it narrows condition evaluation to the ~25% of
        # pairs that can fire.
        self._any_alt = self._uncond.copy()
        for used in single_used:
            self._any_alt |= used
        for used in pair_used:
            self._any_alt |= used
        self._active = bool(self._any_alt.any())

        # Per-gate byte-wise mask-permutation tables:
        # _ptab[(g * nbytes + b) * 256 + v] = OR of one-hot(t_g[8b + j])
        # over the bits j set in v (labels 8b + j < degree only).
        # onehot[j, g, b] = mask words of t_g's image of label 8b + j.
        labels = np.arange(nbytes * 8).reshape(nbytes, 8).T
        images = stacked[:, labels].transpose(1, 0, 2).astype(np.uint64)
        onehot = np.zeros((8, n_g, nbytes, mask_words), dtype=np.uint64)
        for w in range(mask_words):
            onehot[..., w] = np.where(
                (labels[:, None, :] < degree)
                & ((images >> np.uint64(6)) == w),
                _ONE << (images & np.uint64(63)),
                np.uint64(0),
            )
        # Subset recurrence: v's entry is v-without-its-lowest-bit's
        # entry plus that bit's one-hot image.
        by_value = np.zeros((256, n_g, nbytes, mask_words), dtype=np.uint64)
        for v in range(1, 256):
            low = (v & -v).bit_length() - 1
            by_value[v] = by_value[v & (v - 1)] | onehot[low]
        ptab = np.ascontiguousarray(by_value.transpose(1, 2, 0, 3)).reshape(
            n_g * nbytes * 256, mask_words
        )
        self._ptab = ptab if mask_words > 1 else ptab[:, 0]

    # -- evaluation --------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any relation exists for this library at all."""
        return self._active

    def permuted_masks(self, masks: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """Push S-image masks through per-row gate label permutations."""
        n = masks.shape[0]
        if self._words == 1:
            m = masks.reshape(n)
            out = np.zeros(n, dtype=np.uint64)
            base = (gates.astype(np.int64) * self._nbytes) * 256
            for b in range(self._nbytes):
                byte = ((m >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(
                    np.int64
                )
                out |= self._ptab[base + b * 256 + byte]
            return out.reshape(n, 1)
        bytes_view = masks.view(np.uint8).reshape(n, 8 * self._words)
        out = np.zeros((n, self._words), dtype=np.uint64)
        base = (gates.astype(np.int64) * self._nbytes) * 256
        for b in range(self._nbytes):
            idx = base + b * 256 + bytes_view[:, b].astype(np.int64)
            out |= self._ptab[idx]
        return out

    def prune(
        self, gi: int, qs: np.ndarray, pmasks: np.ndarray
    ) -> np.ndarray:
        """Skip mask for candidates extending gate-``qs`` rows by ``gi``.

        ``pmasks`` holds the (grand)parent S-image masks, ``(m, words)``.
        """
        qsl = qs.astype(np.int64)
        interesting = np.flatnonzero(self._any_alt[gi][qsl])
        if interesting.size < qsl.shape[0]:
            # Evaluate conditions only where an alternative exists.
            sub = self.prune(
                gi, qs[interesting], pmasks[interesting]
            )
            skip = np.zeros(qsl.shape[0], dtype=bool)
            skip[interesting[sub]] = True
            return skip
        m = qs.shape[0]
        skip = self._uncond[gi][qsl].copy()
        if self._words == 1:
            pm = pmasks.reshape(m)
            for arr in self._singles:
                skip |= (pm & arr[gi, :, 0][qsl]) == 0
            for k in range(len(self._pair_q2)):
                b1 = self._pair_b1[k][gi, :, 0][qsl]
                cond1 = ~skip & ((pm & b1) == 0)
                need = np.flatnonzero(cond1)
                if not need.size:
                    continue
                q2 = self._pair_q2[k][gi][qsl[need]]
                m2 = self.permuted_masks(
                    pm[need].reshape(-1, 1), q2
                ).reshape(-1)
                b2 = self._pair_b2[k][gi, :, 0][qsl[need]]
                hit = (m2 & b2) == 0
                skip[need[hit]] = True
            return skip
        for arr in self._singles:
            skip |= ((pmasks & arr[gi][qsl]) == 0).all(axis=1)
        for k in range(len(self._pair_q2)):
            b1 = self._pair_b1[k][gi][qsl]
            cond1 = ~skip & ((pmasks & b1) == 0).all(axis=1)
            need = np.flatnonzero(cond1)
            if not need.size:
                continue
            q2 = self._pair_q2[k][gi][qsl[need]]
            m2 = self.permuted_masks(pmasks[need], q2)
            b2 = self._pair_b2[k][gi][qsl[need]]
            hit = ((m2 & b2) == 0).all(axis=1)
            skip[need[hit]] = True
        return skip


class VectorEngine:
    """Array-backed closure state plus the vectorized expansion kernel.

    One engine instance owns everything the expansion touches: the
    global row store (packed permutations + hashes), the per-level
    mask, parent and gate arrays, the relation filter and the sharded
    dedup table.  The public :class:`~repro.core.search.CascadeSearch`
    holds either one engine or a :class:`~repro.core.search.SearchArrays`
    snapshot and answers every query from those arrays.

    Saving an expansion goes through the streamed store writers
    (:func:`~repro.core.store.save_search`): both the memory-mapped v2
    layout and the chunk-compressed v3 layout are emitted level by level
    straight off the row store, so writing never materializes a second
    copy of the closure -- the property that lets a budgeted run save a
    store larger than the dedup table's RAM cap.

    Args:
        jobs: worker processes for candidate composition (1 =
            in-process; levels below :data:`PARALLEL_MIN_CANDIDATES`
            candidates are always composed in-process).
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
        jobs: int = 1,
        shard_bits: int = 6,
        memory_budget: int | None = None,
        checkpoint_dir: str | Path | None = None,
        provenance: dict | None = None,
    ):
        if not isinstance(jobs, int) or jobs < 1:
            raise InvalidValueError(
                f"jobs must be a positive integer, got {jobs!r}"
            )
        self.degree = degree
        self.n_binary = n_binary
        self.width = padded_width(degree)
        self.mask_words = mask_word_count(degree)
        self.gate_rows = gate_rows
        self.track_parents = track_parents
        self.jobs = jobs

        cap = 1024
        self._perms = np.empty((cap, self.width), dtype=np.uint8)
        self._hashes = np.empty(cap, dtype=np.uint64)
        self.n_rows = 0
        self.offsets: list[int] = [0]
        self.level_masks: list[np.ndarray] = []
        self.level_parents: list[np.ndarray] = []
        self.level_gates: list[np.ndarray] = []
        # Global S-image masks, grown in row order (parent-mask lookups
        # for the relation filter gather straight from it).
        self._gmasks = np.empty((cap, self.mask_words), dtype=np.uint64)
        self._gmask_rows = 0

        self._checkpoint = None
        if checkpoint_dir is not None:
            from repro.core.parallel import ExpansionCheckpoint

            self._checkpoint = ExpansionCheckpoint(checkpoint_dir, provenance)
        self._table = ShardedDedupTable(
            shard_bits=shard_bits,
            memory_budget=memory_budget,
            spill_dir=self._checkpoint.slab_dir if self._checkpoint else None,
            persistent=self._checkpoint is not None,
        )
        self._pool = None
        self._cand_buf = None
        self._hash_buf = None
        self._meta_buf = None
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

    def level_perms(self, level: int) -> np.ndarray:
        """Padded ``(n, width)`` uint8 view of one level's rows."""
        return self._perms[self.offsets[level] : self.offsets[level + 1]]

    def level_perms_raw(self, level: int) -> np.ndarray:
        """Degree-wide ``(n, degree)`` view (drops the pad columns)."""
        return self.level_perms(level)[:, : self.degree]

    def all_perms_raw(self) -> np.ndarray:
        """Degree-wide view of every row, level-major discovery order."""
        return self._perms[: self.n_rows, : self.degree]

    def row_bytes(self, row: int) -> bytes:
        """The raw image bytes of one global row."""
        if not 0 <= row < self.n_rows:
            raise InvalidValueError(f"row {row} outside 0..{self.n_rows - 1}")
        return self._perms[row, : self.degree].tobytes()

    def level_of_row(self, row: int) -> int:
        """The level (= cost layer) a global row belongs to."""
        import bisect

        return bisect.bisect_right(self.offsets, row) - 1

    def parent_of(self, row: int) -> tuple[int, int]:
        """``(parent global row, gate index)`` of a non-identity row."""
        level = self.level_of_row(row)
        local = row - self.offsets[level]
        return (
            int(self.level_parents[level][local]),
            int(self.level_gates[level][local]),
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

    def _grow_rows(self, extra: int) -> None:
        need = self.n_rows + extra
        cap = self._perms.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        perms = np.empty((cap, self.width), dtype=np.uint8)
        perms[: self.n_rows] = self._perms[: self.n_rows]
        self._perms = perms
        hashes = np.empty(cap, dtype=np.uint64)
        hashes[: self.n_rows] = self._hashes[: self.n_rows]
        self._hashes = hashes

    def _sync_gmasks(self) -> None:
        """Copy level masks not yet mirrored into the global mask array."""
        if self._gmask_rows == self.n_rows:
            return
        cap = self._gmasks.shape[0]
        if self.n_rows > cap:
            while cap < self.n_rows:
                cap *= 2
            grown = np.empty((cap, self.mask_words), dtype=np.uint64)
            grown[: self._gmask_rows] = self._gmasks[: self._gmask_rows]
            self._gmasks = grown
        for level in range(self.level_of_row(self._gmask_rows), self.n_levels):
            start, stop = self.offsets[level], self.offsets[level + 1]
            lo = max(self._gmask_rows, start)
            self._gmasks[lo:stop] = self.level_masks[level][lo - start :]
        self._gmask_rows = self.n_rows

    def _append_level(
        self,
        perms: np.ndarray,
        hashes: np.ndarray,
        masks: np.ndarray,
        parents: np.ndarray,
        gates: np.ndarray,
    ) -> None:
        n = perms.shape[0]
        self._grow_rows(n)
        self._perms[self.n_rows : self.n_rows + n] = perms
        self._hashes[self.n_rows : self.n_rows + n] = hashes
        self.n_rows += n
        self.offsets.append(self.n_rows)
        self.level_masks.append(masks)
        self.level_parents.append(parents)
        self.level_gates.append(gates)

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
            np.full(1, -1, dtype=np.int32),
            np.full(1, -1, dtype=np.int32),
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
        # Explicit copies throughout: the inputs may be views of a
        # memory-mapped store file, and the engine must not keep that
        # mapping alive (the caller may re-save over the file).
        packed = pack_rows(np.array(perms, dtype=np.uint8), self.degree)
        hashes = hash_rows(packed)
        if masks is None:
            masks = compute_masks(packed, self.n_binary, self.mask_words)
        else:
            masks = np.array(masks, dtype=np.uint64).reshape(
                n, self.mask_words
            )
        if parents is None:
            parents = np.full(n, -1, dtype=np.int32)
        else:
            parents = np.array(parents, dtype=np.int32)
        if gates is None:
            gates = np.full(n, -1, dtype=np.int32)
        else:
            gates = np.array(gates, dtype=np.int32)
        start = self.n_rows
        self._append_level(packed, hashes, masks, parents, gates)
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
        discovery order (and hence parent choice) to match the translate
        kernel.
        """
        rows = self.gate_rows
        chunks: list[tuple[int, int, np.ndarray]] = []
        total = 0
        planned = 0
        for group in rows.groups:
            src = cost - rows.costs[group[0]]
            if src < 0 or src >= self.n_levels or not self.level_size(src):
                continue
            masks = self.level_masks[src]
            banned = rows.banned[group[0]]
            if self.mask_words == 1:
                keep_group = (masks[:, 0] & banned[0]) == 0
            else:
                keep_group = ~((masks & banned[None, :]).any(axis=1))
            for gi in group:
                inverse = rows.inverse[gi]
                if inverse >= 0:
                    # p * g * g^-1 == p is always already discovered.
                    keep = keep_group & (self.level_gates[src] != inverse)
                else:
                    keep = keep_group
                kept = np.flatnonzero(keep)
                planned += kept.size
                if kept.size and self._filter is not None:
                    kept = self._prune(src, gi, kept)
                if kept.size:
                    chunks.append((gi, src, kept))
                    total += kept.size
        chunks.sort(key=lambda chunk: chunk[0])
        return chunks, total, planned

    def _prune(self, src: int, gi: int, kept: np.ndarray) -> np.ndarray:
        """Drop kept rows whose gate-``gi`` candidates the filter proves
        to be duplicates of an earlier candidate."""
        parents = self.level_parents[src]
        if parents.shape[0] != self.level_size(src):
            return kept  # restored level without provenance
        qs = self.level_gates[src][kept]
        prs = parents[kept]
        valid = (qs >= 0) & (prs >= 0)
        if not valid.any():
            return kept
        self._sync_gmasks()
        vi = np.flatnonzero(valid)
        skip_valid = self._filter.prune(gi, qs[vi], self._gmasks[prs[vi]])
        if not skip_valid.any():
            return kept
        drop = np.zeros(kept.shape[0], dtype=bool)
        drop[vi] = skip_valid
        return kept[~drop]

    def _generate_candidates(self, chunks, total: int):
        """Compose + hash all planned candidates.

        Returns ``(cand, ch, parents, gates)``: packed candidate rows,
        their hashes, parent global rows (None when neither witnesses
        nor the relation filter need them) and appended-gate indices,
        all in chunk order.  Scratch buffers are reused across levels,
        so repeated levels skip realloc + page faults.
        """
        if self._meta_buf is None or self._meta_buf.shape[1] < total:
            self._meta_buf = np.empty((2, max(total, 4096)), dtype=np.int32)
        # The filter reads candidate parents even on counting-only runs;
        # the export layer still honours track_parents.
        keep_parents = self.track_parents or self._filter is not None
        parents = self._meta_buf[0, :total] if keep_parents else None
        gates = self._meta_buf[1, :total]
        pooled = self.jobs > 1 and total >= PARALLEL_MIN_CANDIDATES
        if pooled:
            cand, ch = self._compose_pool().compose(self, chunks, total)
        else:
            if self._cand_buf is None or self._cand_buf.shape[0] < total:
                cap = max(total, 4096)
                self._cand_buf = np.empty((cap, self.width), dtype=np.uint8)
                self._hash_buf = np.empty(cap, dtype=np.uint64)
            cand, ch = self._cand_buf[:total], self._hash_buf[:total]
        cand16 = cand.view(np.uint16)
        tables16 = self.gate_rows.tables16
        pos = 0
        for gi, src, kept in chunks:
            m = kept.size
            if not pooled:
                # mode="clip" skips the bounds check; uint16 indices
                # cannot exceed the 65536-entry pair table anyway.
                np.take(
                    tables16[gi],
                    np.take(self.level_perms(src).view(np.uint16), kept, axis=0),
                    out=cand16[pos : pos + m],
                    mode="clip",
                )
                # Hash while the freshly written block is still cache-hot.
                ch[pos : pos + m] = hash_rows(cand[pos : pos + m])
            if parents is not None:
                parents[pos : pos + m] = self.offsets[src] + kept
            gates[pos : pos + m] = gi
            pos += m
        return cand, ch, parents, gates

    def _commit_level(self, cand, ch, parents, gates) -> int:
        """Dedup the candidate batch and append the accepted rows.

        With the relation filter active, accepted-row masks come from
        their parents: ``mask(t_g . a) = perm_g(mask(a))`` -- pushing
        the parent's S-image mask through the appended gate's byte
        tables is cheaper than recomputing masks from the row images,
        and exactly equal.
        """
        self._table.reserve(ch, self._hashes, self.n_rows)
        new_mask = self._table.dedup_commit(
            cand.view(np.uint64), ch, self._perms.view(np.uint64), self.n_rows
        )
        accepted = np.flatnonzero(new_mask)
        n_new = accepted.size
        self._grow_rows(n_new)
        start = self.n_rows
        new_perms = self._perms[start : start + n_new]
        np.take(cand, accepted, axis=0, out=new_perms)
        np.take(ch, accepted, out=self._hashes[start : start + n_new])
        acc_gates = gates[accepted]
        if parents is None:
            acc_parents = np.empty(0, dtype=np.int32)
        else:
            acc_parents = parents[accepted]
        if self._filter is None:
            masks = compute_masks(new_perms, self.n_binary, self.mask_words)
        else:
            self._sync_gmasks()  # parents precede this level: all synced
            masks = self._filter.permuted_masks(
                self._gmasks[acc_parents], acc_gates
            )
        self.n_rows += n_new
        self.offsets.append(self.n_rows)
        self.level_masks.append(masks)
        self.level_parents.append(acc_parents)
        self.level_gates.append(acc_gates)
        return int(n_new)

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
        if total:
            cand, ch, parents, gates = self._generate_candidates(chunks, total)
            if progress is not None:
                progress.emit("generate", level=cost, candidates=int(total))
            n_new = self._commit_level(cand, ch, parents, gates)
        else:
            n_new = 0
            self._append_level(
                np.empty((0, self.width), dtype=np.uint8),
                np.empty(0, dtype=np.uint64),
                np.empty((0, self.mask_words), dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
            )
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

    # -- worker pool -------------------------------------------------------------------

    def _compose_pool(self):
        if self._pool is None:
            from repro.core.parallel import ComposePool

            self._pool = ComposePool(
                self.jobs,
                self.gate_rows.tables16,
                self._checkpoint.dir if self._checkpoint else None,
            )
        return self._pool

    def release_workers(self) -> None:
        """Shut down the compose pool and drop the expansion scratch.

        Keeps the dedup table (row lookups still need it) -- this is
        what :meth:`CascadeSearch.freeze` calls so a search pinned for
        serving holds no idle worker processes.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._cand_buf = self._hash_buf = self._meta_buf = None

    def close(self) -> None:
        """Release the worker pool, dedup slabs and scratch buffers."""
        if self._closed:
            return
        self._closed = True
        self.release_workers()
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
        self._checkpoint.write_level(
            level,
            self.level_perms_raw(level),
            self.level_masks[level],
            self.level_parents[level],
            self.level_gates[level],
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
                np.array(data["masks"], dtype=np.uint64).reshape(
                    packed.shape[0], self.mask_words
                ),
                np.array(data["parents"], dtype=np.int32),
                np.array(data["gates"], dtype=np.int32),
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
