"""Disk-backed sharded dedup table for closure expansion.

:class:`ShardedDedupTable` is the exact dedup table of the expansion
engine (:class:`~repro.core.kernel.VectorEngine`).  It **range-shards
the keyspace on the hash prefix**: candidate row hash ``h`` belongs to
shard ``h >> (64 - shard_bits)``, and every shard owns an independent
open-addressing *slab* of ``2**slab_bits`` slots.  A key only ever
probes inside its own shard's slab, which is what makes the table
partitionable:

* **In RAM** the slabs are stored as consecutive regions of one backing
  array, so a whole candidate batch probes in a handful of vectorized
  passes.
* **Past the memory budget** (or always, in ``persistent`` checkpoint
  mode) each shard's slab moves into its own ``np.memmap`` file under
  the spill directory and batches are processed shard by shard -- the
  OS pages one slab at a time instead of thrashing one giant table.

Sharding changes *where* a key lives, never *what* the table answers:
first-discovery order is byte-identical for every shard count, budget
and spill state.  ``tests/test_parallel.py`` and
``tests/test_kernels.py`` pin this against the reference oracle
(``tests/reference_closure.py``), forced hash collisions and claim
races included.

Claim protocol (normative)
--------------------------

This section is the reference specification of the table; any
reimplementation must preserve these invariants.

**Slot layout.**  Each shard's slab is an open-addressing array of
``2**slab_bits`` uint64 words, load factor kept under 1/4 (slabs double
on demand; regrowth reinserts all committed rows).  Each word packs two
fields:

* bits 63..32 -- the high half of the occupant's 64-bit mulxor row hash
  (:func:`~repro.core.kernel.hash_rows` over the 8-padded row bytes);
* bits 31..0 -- the *encoding*, an int32 in two's complement: ``0`` for
  an empty slot, ``row + 1`` (positive) for a committed global row,
  ``-(candidate_id + 1)`` (negative) for an in-flight batch claim.

Truncating the stored hash to 32 bits is safe because every hash match
is verified against the full packed rows.

**Probe sequence.**  Candidate ``i`` with hash ``h`` probes slot
``(h + r * step) mod 2**slab_bits`` of its shard's slab in round ``r``,
with ``step = (h >> 42) | 1`` (double hashing; round 0 probes
``h mod 2**slab_bits`` directly).

**Batch round protocol.**  Each round, every still-unresolved candidate
gathers its slot word once, then exactly one of three transitions
applies:

1. *Occupied, hash-high match* -- the candidate is **assumed** to be a
   duplicate of the occupant and leaves the probe loop; the (candidate,
   occupant-encoding) pair is queued for deferred verification.
2. *Occupied, hash-high mismatch* -- the candidate survives to the next
   round (ordinary collision, probe on).
3. *Empty* -- every candidate that probed this slot scatters its claim
   word (hash high | claim encoding) **in reverse candidate order**, so
   after numpy's last-write-wins scatter the *lowest* candidate id owns
   the slot: first-discovery order is exactly the seed loop's.  Each
   claimant re-reads the slot; the winner is provisionally **new**,
   a loser whose hash-high matches the winner is an assumed
   batch-internal duplicate (queued as in 1), any other loser probes on.

**Deferred verification.**  After the probe loop, all assumed-duplicate
pairs are verified in one vectorized comparison of full packed rows
(claims resolve against the claiming candidate's row, committed
encodings against the stored row).  A pair that fails -- a genuine
64-bit hash collision -- is re-inserted through an exact single-key
probe path in ascending candidate order.  Optimism therefore never
changes *what* is deduplicated, only how fast.

**Commit.**  Accepted candidates receive consecutive global rows in
candidate order (``n_rows + 1 ..``), and their slots are rewritten from
claim encodings to committed ``row + 1`` encodings; claims never
survive a batch.  Readers (:meth:`ShardedDedupTable.find`) treat any
positive encoding with a matching hash-high as a hit candidate and
verify against the full row, so they are correct against committed
state at any batch boundary.

**Crash recovery.**  Committed encodings reference checkpointed rows
only; claims never survive a batch.  :meth:`~ShardedDedupTable.sweep_uncommitted`
erases every slot holding a claim or a row past the last checkpoint --
open addressing only ever fills empty slots, so clearing later
insertions restores exactly the checkpointed table state (earlier probe
chains are unaffected).

`repro store shards` reports the per-shard occupancy this module
tracks, so operators can size ``--dedup-budget``.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import InvalidValueError

_ONE = np.uint64(1)
_LOW32 = np.uint64(0xFFFFFFFF)
_WORD = 8  # bytes per slab slot

#: Smallest slab: 2**_MIN_SLAB_BITS slots per shard.
_MIN_SLAB_BITS = 8
#: Highest supported shard count (2**MAX_SHARD_BITS shards).
MAX_SHARD_BITS = 12


def shard_of(hashes: np.ndarray, shard_bits: int) -> np.ndarray:
    """Range shard (hash-prefix) of each 64-bit row hash."""
    if shard_bits == 0:
        return np.zeros(hashes.shape[0], dtype=np.uint16)
    return (hashes >> np.uint64(64 - shard_bits)).astype(np.uint16)


def _pack_word(hashes: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """Combine hash high halves with int32 encodings into slot words."""
    return (hashes & ~_LOW32) | (enc.astype(np.int64).view(np.uint64) & _LOW32)


class ShardedDedupTable:
    """Hash-prefix-sharded, optionally disk-backed exact dedup table.

    Args:
        shard_bits: the keyspace is split into ``2**shard_bits`` ranges
            by hash prefix (0 = a single shard).
        memory_budget: soft cap, in bytes, on table memory held in RAM.
            When the next capacity step would cross it, the table
            switches to per-shard ``np.memmap`` slabs under
            *spill_dir*.  ``None`` never spills.
        spill_dir: directory for spilled/persistent slabs.  Created on
            demand; when ``None`` a temporary directory is created at
            first spill and removed on :meth:`close`.
        persistent: keep every slab as a memmap file under *spill_dir*
            from the start (the engine's checkpoint/resume mode) and, when slab files of the expected size already
            exist, adopt their contents instead of zeroing them --
            callers then :meth:`sweep_uncommitted` back to their last
            checkpoint.
    """

    def __init__(
        self,
        shard_bits: int = 6,
        memory_budget: int | None = None,
        spill_dir: str | Path | None = None,
        persistent: bool = False,
    ):
        if not 0 <= shard_bits <= MAX_SHARD_BITS:
            raise InvalidValueError(
                f"shard_bits must be in 0..{MAX_SHARD_BITS}, got {shard_bits}"
            )
        if memory_budget is not None and memory_budget < 0:
            raise InvalidValueError("memory budget must be non-negative")
        self.shard_bits = shard_bits
        self.n_shards = 1 << shard_bits
        self.memory_budget = memory_budget
        self.persistent = persistent
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._owns_spill_dir = False
        self._slab_bits = _MIN_SLAB_BITS
        self._rows = np.zeros(self.n_shards, dtype=np.int64)
        self.adopted = False
        if persistent:
            self._backing = None
            # A prior run's slab files fix the geometry: adopt their
            # size (the resuming caller validates the contents or
            # resets them), otherwise start with fresh minimal slabs.
            probe = self._slab_path(0)
            if probe.exists():
                slots = probe.stat().st_size // _WORD
                bits = max(slots.bit_length() - 1, 0)
                if (1 << bits) == slots and bits >= _MIN_SLAB_BITS:
                    self._slab_bits = bits
                    self.adopted = True
            self._slabs: list[np.ndarray] | None = [
                self._open_slab(s, adopt=True) for s in range(self.n_shards)
            ]
        else:
            self._slabs = None
            self._backing = self._alloc_backing(self._slab_bits)

    # -- storage -----------------------------------------------------------------------

    @property
    def spilled(self) -> bool:
        """True once slabs live as per-shard memmap files."""
        return self._slabs is not None

    @property
    def slab_bits(self) -> int:
        """log2 slots per shard slab (uniform across shards)."""
        return self._slab_bits

    @property
    def ram_bytes(self) -> int:
        """Table bytes currently held in ordinary RAM."""
        return 0 if self._backing is None else self._backing.nbytes

    @property
    def spill_dir(self) -> Path | None:
        return self._spill_dir

    @property
    def n_rows(self) -> int:
        """Committed rows across all shards."""
        return int(self._rows.sum())

    def _alloc_backing(self, bits: int) -> np.ndarray:
        backing = np.empty(self.n_shards << bits, dtype=np.uint64)
        backing.fill(0)
        return backing

    def _slab_path(self, shard: int) -> Path:
        if self._spill_dir is None:
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-dedup-"))
            self._owns_spill_dir = True
        return self._spill_dir / f"shard-{shard:04d}.slab"

    def _open_slab(self, shard: int, adopt: bool = False) -> np.memmap:
        path = self._slab_path(shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        size = (1 << self._slab_bits) * _WORD
        if adopt and path.exists() and path.stat().st_size == size:
            return np.memmap(
                path, dtype=np.uint64, mode="r+", shape=(1 << self._slab_bits,)
            )
        slab = np.memmap(
            path, dtype=np.uint64, mode="w+", shape=(1 << self._slab_bits,)
        )
        slab[:] = 0
        return slab

    def _slab(self, shard: int) -> np.ndarray:
        if self._slabs is not None:
            return self._slabs[shard]
        if self._backing is None:
            raise InvalidValueError(
                "dedup table is closed; row lookups and inserts need a "
                "live table"
            )
        return self._backing[shard << self._slab_bits :][: 1 << self._slab_bits]

    def _spill(self) -> None:
        """Move the in-RAM backing into per-shard memmap slabs."""
        if self._slabs is not None:
            return
        backing = self._backing
        self._backing = None
        self._slabs = []
        for s in range(self.n_shards):
            slab = self._open_slab(s)
            slab[:] = backing[s << self._slab_bits :][: 1 << self._slab_bits]
            self._slabs.append(slab)

    # -- capacity ----------------------------------------------------------------------

    def reserve(
        self, cand_hashes: np.ndarray, all_hashes: np.ndarray, n_rows: int
    ) -> None:
        """Grow slabs so the worst case (every candidate new) keeps every
        shard's load factor under 1/4.

        ``all_hashes[:n_rows]`` are the hashes of every committed row --
        regrown slabs are refilled from them.
        """
        counts = self._rows + np.bincount(
            shard_of(cand_hashes, self.shard_bits), minlength=self.n_shards
        )
        self._fit(int(counts.max()), all_hashes, n_rows)

    def reserve_rows(
        self, extra: int, all_hashes: np.ndarray, n_rows: int
    ) -> None:
        """Grow slabs once for *extra* more rows spread evenly over the
        shards (the engine calls this per level, with the plan's kept
        count); :meth:`reserve` stays the per-batch safety net for
        shard skew.  Arguments as in :meth:`reserve`.
        """
        mean = -(-(self.n_rows + extra) // self.n_shards)
        self._fit(mean, all_hashes, n_rows)

    def _bits_for(self, need: int) -> int:
        """Smallest slab bits (not below the current) that keep *need*
        rows in one shard under load factor 1/4."""
        bits = self._slab_bits
        while need * 4 > (1 << bits):
            bits += 1
        return bits

    def _fit(self, need: int, all_hashes: np.ndarray, n_rows: int) -> None:
        """Regrow so one shard holds *need* rows under load 1/4."""
        bits = self._bits_for(need)
        if bits != self._slab_bits:
            self._regrow(bits, all_hashes, n_rows)

    def _regrow(self, bits: int, all_hashes: np.ndarray, n_rows: int) -> None:
        spill_next = self.persistent or (
            self.memory_budget is not None
            and (self.n_shards << bits) * _WORD > self.memory_budget
        )
        self._slab_bits = bits
        if self._slabs is not None or spill_next:
            self._backing = None
            self._slabs = [
                self._open_slab(s) for s in range(self.n_shards)
            ]
        else:
            self._backing = self._alloc_backing(bits)
        self._rows[:] = 0
        if n_rows:
            self.insert_distinct(
                all_hashes[:n_rows],
                np.arange(1, n_rows + 1, dtype=np.int32),
                all_hashes,
                n_rows,
            )

    # -- inserts (known-distinct rows) -------------------------------------------------

    def insert_distinct(
        self,
        hashes: np.ndarray,
        encodings: np.ndarray,
        all_hashes: np.ndarray,
        n_rows_after: int,
    ) -> None:
        """Insert rows known to be pairwise-distinct and absent.

        ``encodings`` carries the ``row + 1`` slot values;
        ``all_hashes[:n_rows_after]`` must already include *hashes* (it
        backs any slab regrowth the insert triggers).
        """
        if not hashes.size:
            return
        shards = shard_of(hashes, self.shard_bits)
        counts = self._rows + np.bincount(shards, minlength=self.n_shards)
        bits = self._bits_for(int(counts.max()))
        if bits != self._slab_bits:
            prior = n_rows_after - hashes.size
            # _regrow reinserts rows 1..n_rows_after in one pass (the
            # new rows are part of all_hashes already), so we are done.
            if (
                prior >= 0
                and np.array_equal(encodings[:1], np.int32([prior + 1]))
                and hashes.size == n_rows_after - prior
            ):
                self._regrow(bits, all_hashes, n_rows_after)
                return
            self._regrow(bits, all_hashes, prior)
        if self._backing is not None:
            self._insert_vectorized(hashes, encodings, shards)
        else:
            order = np.argsort(shards, kind="stable")
            counts = np.bincount(shards, minlength=self.n_shards)
            bounds = np.zeros(self.n_shards + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            for s in np.flatnonzero(counts):
                sel = order[bounds[s] : bounds[s + 1]]
                self._insert_shard(
                    int(s), np.take(hashes, sel), np.take(encodings, sel)
                )
        self._rows += np.bincount(shards, minlength=self.n_shards)

    def _global_slots(self, hashes: np.ndarray, rnd: np.uint64) -> np.ndarray:
        """Backing-array slot of each hash at probe round *rnd*."""
        msk = np.uint64((1 << self._slab_bits) - 1)
        if rnd == np.uint64(0):
            local = hashes & msk
        else:
            step = (hashes >> np.uint64(42)) | _ONE
            local = (hashes + rnd * step) & msk
        if self.shard_bits == 0:
            return local.view(np.int64)
        base = (hashes >> np.uint64(64 - self.shard_bits)) << np.uint64(
            self._slab_bits
        )
        return (base | local).view(np.int64)

    def _local_slots(self, hashes: np.ndarray, rnd: np.uint64) -> np.ndarray:
        """Slab-local slot of each hash at probe round *rnd*."""
        msk = np.uint64((1 << self._slab_bits) - 1)
        if rnd == np.uint64(0):
            return (hashes & msk).view(np.int64)
        step = (hashes >> np.uint64(42)) | _ONE
        return ((hashes + rnd * step) & msk).view(np.int64)

    def _insert_batch(self, ht, slot_fn, hashes, encodings) -> None:
        """Known-distinct insert loop, shared by both backings.

        ``slot_fn(hashes, round)`` maps to slots of *ht* --
        :meth:`_global_slots` for the RAM backing array,
        :meth:`_local_slots` for one shard's slab.
        """
        words = _pack_word(hashes, encodings)
        alive = np.arange(hashes.size, dtype=np.int64)
        rnd = np.uint64(0)
        while alive.size:
            slot = slot_fn(hashes[alive], rnd)
            empty = (np.take(ht, slot, mode="clip") & _LOW32) == 0
            idx = alive[empty]
            sl = slot[empty]
            ht[sl[::-1]] = words[idx[::-1]]
            won = np.take(ht, sl, mode="clip") == words[idx]
            alive = np.concatenate([alive[~empty], idx[~won]])
            rnd += _ONE

    def _insert_vectorized(
        self, hashes: np.ndarray, encodings: np.ndarray, shards: np.ndarray
    ) -> None:
        self._insert_batch(self._backing, self._global_slots, hashes, encodings)

    def _insert_shard(
        self, shard: int, hashes: np.ndarray, encodings: np.ndarray
    ) -> None:
        self._insert_batch(self._slab(shard), self._local_slots, hashes, encodings)

    # -- batch dedup (the claim protocol) ----------------------------------------------

    def dedup_commit(
        self,
        candw: np.ndarray,
        ch: np.ndarray,
        permw: np.ndarray,
        n_rows: int,
    ) -> np.ndarray:
        """Classify a candidate batch; returns the accepted-as-new mask.

        Args:
            candw: ``(M, words)`` uint64 view of the packed candidates.
            ch: ``(M,)`` candidate hashes.
            permw: uint64 view of the committed global row store
                (occupant verification reads it).
            n_rows: committed rows before this batch; accepted
                candidates are committed as rows ``n_rows..`` in
                candidate order.

        Implements the module's claim protocol: lowest candidate id wins
        claim races, optimistic duplicates are verified against full
        rows, collision victims re-insert through an exact single-key
        probe.
        """
        M = candw.shape[0]
        status = np.zeros(M, dtype=np.int8)  # 0 pending, 1 new, 2 dup
        slot_of = np.empty(M, dtype=np.int64)  # global (RAM) / local (spilled)
        pair_cand: list[np.ndarray] = []
        pair_occ: list[np.ndarray] = []
        if self._backing is not None:
            self._probe_batch(
                self._backing, self._global_slots, ch, None,
                status, slot_of, pair_cand, pair_occ,
            )
        else:
            cand_shard = shard_of(ch, self.shard_bits)
            order = np.argsort(cand_shard, kind="stable")
            counts = np.bincount(cand_shard, minlength=self.n_shards)
            bounds = np.zeros(self.n_shards + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            for s in np.flatnonzero(counts):
                # Stable partition keeps per-shard ids ascending, so the
                # reversed claim scatter stays lowest-id-wins.
                ids = order[bounds[s] : bounds[s + 1]]
                self._probe_batch(
                    self._slab(int(s)), self._local_slots, ch, ids,
                    status, slot_of, pair_cand, pair_occ,
                )
        # Deferred verification of every optimistic duplicate, in one
        # vectorized full-row comparison across all shards.
        if pair_cand:
            cids = np.concatenate(pair_cand)
            occs = np.concatenate(pair_occ)
            eq = (
                self._occupant_packed(occs, candw, permw)
                == np.take(candw, cids, axis=0, mode="clip")
            ).all(axis=1)
            for cid in np.sort(cids[~eq]):
                self._exact_insert(
                    int(cid), candw, ch, permw, status, slot_of
                )
        new_mask = status == 1
        accepted = np.flatnonzero(new_mask)
        if accepted.size:
            final = (n_rows + 1 + np.arange(accepted.size)).astype(np.int32)
            acc_h = np.take(ch, accepted)
            acc_shard = shard_of(acc_h, self.shard_bits)
            if self._backing is not None:
                self._backing[slot_of[accepted]] = _pack_word(acc_h, final)
            else:
                for s in np.unique(acc_shard):
                    sel = acc_shard == s
                    self._slab(int(s))[slot_of[accepted[sel]]] = _pack_word(
                        acc_h[sel], final[sel]
                    )
            self._rows += np.bincount(acc_shard, minlength=self.n_shards)
        return new_mask

    def _probe_batch(
        self, ht, slot_fn, ch, ids, status, slot_of, pair_cand, pair_occ
    ) -> None:
        """The claim-protocol probe rounds, shared by both backings.

        One batch of candidates probes the table *ht* through
        ``slot_fn(hashes, round)`` -- :meth:`_global_slots` for the RAM
        backing array (``ids=None``: every candidate, the round-0 fast
        path), :meth:`_local_slots` for one spilled shard's slab (with
        ``ids`` that shard's global candidate ids, ascending, so the
        reversed claim scatter stays lowest-id-wins).  Follows the
        module's normative round structure.
        """
        rnd = np.uint64(0)
        while True:
            if ids is None:
                h = ch
            else:
                if not ids.size:
                    break
                h = np.take(ch, ids)
            slot = slot_fn(h, rnd)
            word = np.take(ht, slot, mode="clip")
            enc = (word & _LOW32).astype(np.uint32).view(np.int32)
            survivors = []
            occ_i = np.flatnonzero(enc)
            if occ_i.size:
                own = occ_i if ids is None else np.take(ids, occ_i)
                hmatch = (
                    np.take(word, occ_i) >> np.uint64(32)
                ) == (np.take(h, occ_i) >> np.uint64(32))
                if hmatch.any():
                    dup_own = own[hmatch]
                    status[dup_own] = 2
                    pair_cand.append(dup_own)
                    pair_occ.append(np.take(enc, occ_i[hmatch]))
                    survivors.append(own[~hmatch])
                else:
                    survivors.append(own)
            emp_i = np.flatnonzero(enc == 0)
            if emp_i.size:
                claimants = emp_i if ids is None else np.take(ids, emp_i)
                sl = np.take(slot, emp_i)
                my_h = np.take(ch, claimants)
                my_word = _pack_word(my_h, (-1 - claimants).astype(np.int32))
                ht[sl[::-1]] = my_word[::-1]
                got = np.take(ht, sl, mode="clip")
                won = got == my_word
                winners = claimants[won]
                status[winners] = 1
                slot_of[winners] = sl[won]
                lost = ~won
                if lost.any():
                    lcl = claimants[lost]
                    gotl = got[lost]
                    same_h = (gotl >> np.uint64(32)) == (
                        my_h[lost] >> np.uint64(32)
                    )
                    if same_h.any():
                        si = np.flatnonzero(same_h)
                        status[lcl[si]] = 2
                        pair_cand.append(lcl[si])
                        pair_occ.append(
                            (gotl[si] & _LOW32)
                            .astype(np.uint32)
                            .view(np.int32)
                        )
                        keep = np.ones(lcl.size, dtype=bool)
                        keep[si] = False
                        survivors.append(lcl[keep])
                    else:
                        survivors.append(lcl)
            ids = (
                np.concatenate(survivors)
                if survivors
                else np.empty(0, dtype=np.int64)
            )
            rnd += _ONE

    @staticmethod
    def _occupant_packed(
        occupant: np.ndarray, candw: np.ndarray, permw: np.ndarray
    ) -> np.ndarray:
        """Packed rows behind occupant encodings (rows or batch claims)."""
        batch = occupant < 0
        if batch.any():
            packed = np.empty(
                (occupant.size, candw.shape[1]), dtype=np.uint64
            )
            packed[batch] = np.take(
                candw, -occupant[batch] - 1, axis=0, mode="clip"
            )
            glob = ~batch
            if glob.any():
                packed[glob] = np.take(
                    permw, occupant[glob] - 1, axis=0, mode="clip"
                )
            return packed
        return np.take(permw, occupant - 1, axis=0, mode="clip")

    def _exact_insert(
        self, cid, candw, ch, permw, status, slot_of
    ) -> None:
        """Exact single-candidate probe for hash-collision victims."""
        h = ch[cid]
        shard = (
            int(h >> np.uint64(64 - self.shard_bits)) if self.shard_bits else 0
        )
        ht = self._slab(shard) if self._backing is None else self._backing
        base = (shard << self._slab_bits) if self._backing is not None else 0
        msk = np.uint64((1 << self._slab_bits) - 1)
        step = (h >> np.uint64(42)) | _ONE
        probe = h & msk
        high = int(h >> np.uint64(32))
        key = candw[cid]
        for _ in range(1 << self._slab_bits):
            slot = base + int(probe)
            word = int(ht[slot])
            occupant = (word & 0xFFFFFFFF) - ((word & 0x80000000) << 1)
            if occupant == 0:
                ht[slot] = int(
                    _pack_word(
                        np.array([h], dtype=np.uint64),
                        np.array([-1 - cid], dtype=np.int32),
                    )[0]
                )
                status[cid] = 1
                slot_of[cid] = slot
                return
            if (word >> 32) == high:
                if occupant > 0:
                    stored = permw[occupant - 1]
                else:
                    stored = candw[-occupant - 1]
                if bool((stored == key).all()):
                    status[cid] = 2
                    return
            probe = (probe + step) & msk
        raise InvalidValueError("dedup shard slab full during exact insert")

    # -- lookup ------------------------------------------------------------------------

    def find(self, key: np.ndarray, h: np.uint64, permw: np.ndarray) -> int:
        """Committed global row of a packed-row key, or -1."""
        h = np.uint64(h)
        shard = (
            int(h >> np.uint64(64 - self.shard_bits)) if self.shard_bits else 0
        )
        ht = self._slab(shard)
        msk = np.uint64((1 << self._slab_bits) - 1)
        step = (h >> np.uint64(42)) | _ONE
        probe = h & msk
        high = int(h >> np.uint64(32))
        for _ in range(1 << self._slab_bits):
            slot = int(probe)
            word = int(ht[slot])
            occupant = (word & 0xFFFFFFFF) - ((word & 0x80000000) << 1)
            if occupant == 0:
                return -1
            if occupant > 0 and (word >> 32) == high:
                if bool((permw[occupant - 1] == key).all()):
                    return occupant - 1
            probe = (probe + step) & msk
        return -1

    # -- crash recovery / maintenance --------------------------------------------------

    def adopt_geometry(self, slab_bits: int) -> None:
        """Reopen persistent slabs at a checkpointed size, keeping contents.

        Only meaningful in ``persistent`` mode, before any insert; slab
        files whose size does not match are recreated empty (a
        subsequent :meth:`reinsert_shard` pass restores them).
        """
        if not self.persistent or self._slabs is None:
            raise InvalidValueError(
                "adopt_geometry is only valid on a persistent table"
            )
        self._slab_bits = int(slab_bits)
        self._slabs = [
            self._open_slab(s, adopt=True) for s in range(self.n_shards)
        ]

    def reinsert_shard(
        self, shard: int, hashes: np.ndarray, encodings: np.ndarray
    ) -> None:
        """Rebuild one shard's slab from its committed rows."""
        slab = self._slab(shard)
        slab[:] = 0
        self._rows[shard] = 0
        if hashes.size:
            self._insert_shard(shard, hashes, encodings)
            self._rows[shard] = int(hashes.size)

    def sweep_uncommitted(self, n_rows: int) -> int:
        """Erase claims and any commit past row ``n_rows - 1``.

        Returns how many slots were cleared.  Safe because slots are
        only ever filled (never moved): clearing later insertions
        leaves every earlier probe chain intact, restoring the exact
        table state at the ``n_rows`` checkpoint.
        """
        cleared = 0
        for s in range(self.n_shards):
            slab = self._slab(s)
            enc = (slab & _LOW32).astype(np.uint32).view(np.int32)
            bad = (enc < 0) | (enc > n_rows)
            n_bad = int(bad.sum())
            if n_bad:
                slab[bad] = 0
                cleared += n_bad
            self._rows[s] = int(np.count_nonzero((enc > 0) & (enc <= n_rows)))
        return cleared

    def flush(self) -> None:
        """Flush every spilled slab to its backing file."""
        if self._slabs is not None:
            for slab in self._slabs:
                slab.flush()

    def close(self) -> None:
        """Drop slab arrays; remove an owned temporary spill directory."""
        self._backing = None
        self._slabs = None
        if self._owns_spill_dir and self._spill_dir is not None:
            import shutil

            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._owns_spill_dir = False

    # -- introspection -----------------------------------------------------------------

    def layout(self) -> dict:
        """Shard layout summary (serialized into store headers)."""
        return {
            "shard_bits": self.shard_bits,
            "slab_slots": 1 << self._slab_bits,
            "rows_per_shard": [int(r) for r in self._rows],
            "spilled": self.spilled,
        }

    def stats(self) -> list[dict]:
        """Per-shard occupancy: rows, slots, load, bytes, backing."""
        slots = 1 << self._slab_bits
        return [
            {
                "shard": s,
                "rows": int(self._rows[s]),
                "slots": slots,
                "load": int(self._rows[s]) / slots,
                "bytes": slots * _WORD,
                "spilled": self.spilled,
            }
            for s in range(self.n_shards)
        ]


def parse_budget(text: str) -> int:
    """Parse a ``--dedup-budget`` value: bytes, or with a unit suffix.

    Accepted spellings, case-insensitive:

    * bare bytes: ``4096``;
    * binary suffixes ``K``/``M``/``G`` and ``KiB``/``MiB``/``GiB``
      (1024-based -- the bare letters keep their historical binary
      meaning);
    * decimal suffixes ``KB``/``MB``/``GB`` (1000-based);
    * fractional values with any suffix: ``1.5G``, ``0.5MiB``.

    Fractional byte totals round down.  Raises
    :class:`~repro.errors.InvalidValueError` on anything else, negative
    and non-finite values (``nan``, ``inf``, ``1e400``) included.
    """
    raw = text.strip()
    scale = 1
    suffixes = {
        "k": 1 << 10, "m": 1 << 20, "g": 1 << 30,
        "kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
        "kb": 10 ** 3, "mb": 10 ** 6, "gb": 10 ** 9,
    }
    lowered = raw.lower()
    for suffix in ("kib", "mib", "gib", "kb", "mb", "gb", "k", "m", "g"):
        if lowered.endswith(suffix):
            scale = suffixes[suffix]
            raw = raw[: -len(suffix)]
            break
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            raise InvalidValueError(
                f"cannot parse memory budget {text!r}; use bytes or a "
                "K/M/G, KiB/MiB/GiB or KB/MB/GB suffix (e.g. 512M, "
                "1.5G, 512MB)"
            ) from None
    total = value * scale
    if not math.isfinite(total):
        raise InvalidValueError(f"memory budget {text!r} is not finite")
    if total < 0:
        raise InvalidValueError("memory budget must be non-negative")
    return int(total)
