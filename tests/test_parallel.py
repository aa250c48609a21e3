"""The vector engine's option space vs the translate reference kernel.

The engine's worker pool, shard layout, memory budget, checkpointing and
relation filter are only allowed to make expansion *faster* or
*restartable*: for any library, cost model, shard count, worker count,
memory budget and spill state the engine must produce levels
byte-identical in content and discovery order -- with identical parent
pointers -- to the byte-level ``translate`` kernel.  These tests pin
that determinism contract, the relation filter's exactness, the sharded
dedup table's claim protocol under forced collisions and claim races,
spill-to-disk behaviour, and the crash-mid-level checkpoint/resume
path.
"""

import json

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.core.dedup import ShardedDedupTable, parse_budget, shard_of
from repro.core.kernel import (
    RelationFilter,
    VectorEngine,
    compute_masks,
    hash_rows,
    pack_rows,
)
from repro.core.search import CascadeSearch
from repro.errors import InvalidValueError
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary


def _trio(library, cost_model=None, bound=3, track_parents=True, options=None):
    """translate, default vector engine, and a vector-engine variant
    (single shard unless *options* say otherwise), all at *bound*."""
    kwargs = {"track_parents": track_parents}
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    searches = [
        CascadeSearch(library, kernel="translate", **kwargs),
        CascadeSearch(library, kernel="vector", **kwargs),
        CascadeSearch(
            library,
            kernel="vector",
            kernel_options=options or {"shard_bits": 0},
            **kwargs,
        ),
    ]
    for search in searches:
        search.extend_to(bound)
    return searches


def _assert_identical(reference, other, bound):
    assert reference.stats().level_sizes == other.stats().level_sizes
    for cost in range(bound + 1):
        assert reference.level(cost) == other.level(cost), (
            f"level {cost} differs"
        )
    if reference.tracks_parents:
        ours, theirs = reference.export_arrays(), other.export_arrays()
        np.testing.assert_array_equal(ours.parents, theirs.parents)
        np.testing.assert_array_equal(ours.gates, theirs.gates)


class _Events:
    """Duck-typed progress sink collecting ``(event, fields)`` pairs."""

    def __init__(self):
        self.records = []

    def emit(self, event, **fields):
        self.records.append((event, fields))

    def of(self, event):
        return [fields for name, fields in self.records if name == event]


class TestKernelTrioEquivalence:
    def test_three_qubit_unit_costs(self, library3):
        translate, vector, variant = _trio(library3, bound=4)
        _assert_identical(translate, vector, 4)
        _assert_identical(translate, variant, 4)

    def test_two_qubit(self, library2):
        translate, vector, variant = _trio(library2, bound=5)
        _assert_identical(translate, vector, 5)
        _assert_identical(translate, variant, 5)

    @pytest.mark.parametrize(
        "model",
        [
            CostModel(v_cost=1, vdag_cost=1, cnot_cost=2),
            CostModel(v_cost=2, vdag_cost=1, cnot_cost=1),
            CostModel(v_cost=2, vdag_cost=2, cnot_cost=3),
        ],
    )
    def test_non_unit_cost_models(self, library3, model):
        """Relation costs differ per gate; the filter must respect them."""
        translate, vector, _variant = _trio(
            library3, cost_model=model, bound=4
        )
        _assert_identical(translate, vector, 4)

    def test_partial_gate_alphabet(self):
        """V without V+: no inverse back-edges, fewer relations."""
        library = GateLibrary(3, kinds=(GateKind.V, GateKind.CNOT))
        translate, vector, _variant = _trio(library, bound=4)
        _assert_identical(translate, vector, 4)

    def test_counting_only(self, library3):
        translate, vector, _variant = _trio(
            library3, bound=4, track_parents=False
        )
        _assert_identical(translate, vector, 4)

    def test_four_qubit_multiword_masks(self):
        """176 labels -> 3 mask words: the filter's multiword path."""
        library = GateLibrary(4)
        translate, vector, _variant = _trio(library, bound=2)
        _assert_identical(translate, vector, 2)

    @pytest.mark.parametrize("shard_bits", [0, 1, 5, 9])
    def test_shard_count_is_invisible(self, library3, shard_bits):
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(4)
        sharded = CascadeSearch(
            library3,
            kernel="vector",
            kernel_options={"shard_bits": shard_bits},
        )
        sharded.extend_to(4)
        _assert_identical(reference, sharded, 4)

    def test_relation_filter_matches_translate(self, library3):
        """The always-on relation filter against the unfiltered
        reference: pruning provable duplicates changes no level, order
        or parent, one level deeper than the trio tests."""
        search = CascadeSearch(library3, kernel="vector")
        assert search._engine._filter is not None
        search.extend_to(5)
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(5)
        _assert_identical(reference, search, 5)

    def test_worker_pool_jobs(self, library3):
        """jobs=2 drives the mmap-scratch worker-pool compose path."""
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(5)
        pooled = CascadeSearch(
            library3, kernel="vector", kernel_options={"jobs": 2}
        )
        try:
            pooled.extend_to(5)
            assert pooled._engine._pool is not None
            _assert_identical(reference, pooled, 5)
        finally:
            pooled.close()

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", None])
    def test_jobs_below_one_refused(self, library3, jobs):
        with pytest.raises(InvalidValueError, match="jobs"):
            CascadeSearch(
                library3, kernel="vector", kernel_options={"jobs": jobs}
            )

    def test_kernel_handoff_translate_to_vector(self, library3):
        """use_kernel hands a byte-level closure to the engine
        mid-expansion and stays byte-identical."""
        handoff = CascadeSearch(library3, kernel="translate")
        handoff.extend_to(3)
        handoff.use_kernel("vector", {"shard_bits": 3})
        handoff.extend_to(5)
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(5)
        _assert_identical(reference, handoff, 5)
        assert handoff.shard_layout()["shard_bits"] == 3

    def test_new_engine_options_rebuild_the_engine(self, library3):
        """New options on a live engine take effect at the next
        expansion instead of being silently ignored."""
        search = CascadeSearch(library3, kernel="vector")
        search.extend_to(3)
        search.use_kernel("vector", {"shard_bits": 2})
        search.extend_to(5)
        assert search.shard_layout()["shard_bits"] == 2
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(5)
        _assert_identical(reference, search, 5)

    def test_restored_store_extends_with_parallel_kernel(self, library3):
        """A store-loaded closure deepens on the pooled engine."""
        from repro.core.store import dump_search, loads_search

        base = CascadeSearch(library3, kernel="vector")
        base.extend_to(3)
        restored = loads_search(dump_search(base), library3)
        restored.use_kernel("vector", {"jobs": 2})
        try:
            restored.extend_to(5)
            reference = CascadeSearch(library3, kernel="translate")
            reference.extend_to(5)
            _assert_identical(reference, restored, 5)
        finally:
            restored.close()


class TestForcedCollisions:
    def test_constant_hash_still_exact(self, library2, monkeypatch):
        """Every candidate hashes (and shards) identically; still exact."""
        import repro.core.kernel as kernel_module

        real_hash = kernel_module.hash_rows

        def degenerate(packed):
            return np.zeros(packed.shape[0], dtype=np.uint64)

        monkeypatch.setattr(kernel_module, "hash_rows", degenerate)
        colliding = CascadeSearch(
            library2, kernel="vector", kernel_options={"shard_bits": 4}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = CascadeSearch(library2, kernel="translate")
        reference.extend_to(4)
        assert colliding.stats().level_sizes == reference.stats().level_sizes
        for cost in range(5):
            assert sorted(p for p, _m in colliding.level(cost)) == sorted(
                p for p, _m in reference.level(cost)
            )

    def test_few_hash_buckets_preserve_order_and_parents(
        self, library2, monkeypatch
    ):
        """A 2-bit hash shards everything into shard 0 and collides
        constantly inside it, yet order and parents match the seed."""
        import repro.core.kernel as kernel_module

        real_hash = kernel_module.hash_rows

        def tiny(packed):
            return real_hash(packed) & np.uint64(3)

        monkeypatch.setattr(kernel_module, "hash_rows", tiny)
        colliding = CascadeSearch(
            library2, kernel="vector", kernel_options={"shard_bits": 6}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = CascadeSearch(library2, kernel="translate")
        reference.extend_to(4)
        _assert_identical(reference, colliding, 4)

    def test_top_bits_only_hash_exercises_cross_shard_spread(
        self, library2, monkeypatch
    ):
        """Hashes differing only in shard bits: every slab sees slot-0
        claim races among all of its candidates (cross-shard protocol)."""
        import repro.core.kernel as kernel_module

        real_hash = kernel_module.hash_rows

        def top_heavy(packed):
            return real_hash(packed) & ~np.uint64((1 << 58) - 1)

        monkeypatch.setattr(kernel_module, "hash_rows", top_heavy)
        colliding = CascadeSearch(
            library2, kernel="vector", kernel_options={"shard_bits": 6}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = CascadeSearch(library2, kernel="translate")
        reference.extend_to(4)
        _assert_identical(reference, colliding, 4)


class TestShardedDedupTable:
    def _rows(self, n, words=2, seed=0):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2**63, (n, words), dtype=np.uint64)
        return rows, hash_rows(rows.view(np.uint8))

    def test_insert_find_roundtrip(self):
        table = ShardedDedupTable(shard_bits=3)
        rows, hashes = self._rows(500)
        table.insert_distinct(
            hashes, np.arange(1, 501, dtype=np.int32), hashes, 500
        )
        assert table.n_rows == 500
        for i in (0, 123, 499):
            assert table.find(rows[i], hashes[i], rows) == i
        absent, ah = self._rows(1, seed=99)
        assert table.find(absent[0], ah[0], rows) == -1

    def test_dedup_commit_lowest_candidate_wins(self):
        table = ShardedDedupTable(shard_bits=2)
        rows, hashes = self._rows(8)
        # candidates: [A, B, A, C, B, D] -> first occurrence wins
        cand = rows[[0, 1, 0, 2, 1, 3]]
        ch = hashes[[0, 1, 0, 2, 1, 3]]
        new = table.dedup_commit(cand, ch, rows, 0)
        assert new.tolist() == [True, True, False, True, False, True]

    def test_spills_past_budget(self, tmp_path):
        table = ShardedDedupTable(
            shard_bits=2, memory_budget=1 << 12, spill_dir=tmp_path
        )
        rows, hashes = self._rows(4096)
        table.insert_distinct(
            hashes, np.arange(1, 4097, dtype=np.int32), hashes, 4096
        )
        assert table.spilled
        slabs = sorted(p.name for p in tmp_path.glob("shard-*.slab"))
        assert slabs == [f"shard-{s:04d}.slab" for s in range(4)]
        for i in (0, 4095):
            assert table.find(rows[i], hashes[i], rows) == i
        layout = table.layout()
        assert layout["spilled"] and sum(layout["rows_per_shard"]) == 4096

    def test_sweep_uncommitted_restores_checkpoint(self):
        table = ShardedDedupTable(shard_bits=2)
        rows, hashes = self._rows(600)
        table.insert_distinct(
            hashes[:400], np.arange(1, 401, dtype=np.int32), hashes, 400
        )
        # a "crashed" batch: claims + commits past the checkpoint
        new = table.dedup_commit(rows[400:], hashes[400:], rows, 400)
        assert new.all()
        assert table.n_rows == 600
        cleared = table.sweep_uncommitted(400)
        assert cleared == 200
        assert table.n_rows == 400
        assert table.find(rows[0], hashes[0], rows) == 0
        assert table.find(rows[599], hashes[599], rows) == -1
        # the swept batch re-runs to the same result
        again = table.dedup_commit(rows[400:], hashes[400:], rows, 400)
        assert again.all()

    def test_stats_shape(self):
        table = ShardedDedupTable(shard_bits=1)
        stats = table.stats()
        assert [s["shard"] for s in stats] == [0, 1]
        assert all(s["rows"] == 0 and not s["spilled"] for s in stats)

    def test_shard_bits_bounds(self):
        with pytest.raises(InvalidValueError):
            ShardedDedupTable(shard_bits=13)
        with pytest.raises(InvalidValueError):
            ShardedDedupTable(memory_budget=-1)

    def test_parse_budget(self):
        assert parse_budget("4096") == 4096
        assert parse_budget("512M") == 512 << 20
        assert parse_budget("2g") == 2 << 30
        assert parse_budget("1K") == 1024
        with pytest.raises(InvalidValueError):
            parse_budget("lots")
        with pytest.raises(InvalidValueError):
            parse_budget("-1M")
        for text in ("nan", "inf", "-inf", "1e400", "1e308G"):
            with pytest.raises(InvalidValueError, match="not finite"):
                parse_budget(text)

    def test_parse_budget_explicit_binary_suffixes(self):
        assert parse_budget("1KiB") == 1 << 10
        assert parse_budget("3MiB") == 3 << 20
        assert parse_budget("2GiB") == 2 << 30
        assert parse_budget("2gib") == 2 << 30  # case-insensitive

    def test_parse_budget_decimal_suffixes(self):
        # KB/MB/GB are decimal (SI), distinct from bare K/M/G (binary).
        assert parse_budget("512KB") == 512_000
        assert parse_budget("512MB") == 512_000_000
        assert parse_budget("2GB") == 2_000_000_000
        assert parse_budget("512mb") == 512_000_000

    def test_parse_budget_fractional_values(self):
        assert parse_budget("1.5G") == int(1.5 * (1 << 30))
        assert parse_budget("0.5M") == 1 << 19
        assert parse_budget("1.5GB") == 1_500_000_000
        with pytest.raises(InvalidValueError):
            parse_budget("-0.5G")
        with pytest.raises(InvalidValueError):
            parse_budget("1.5.5M")

    def test_shard_of_prefix(self):
        hashes = np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        assert shard_of(hashes, 0).tolist() == [0, 0, 0]
        assert shard_of(hashes, 1).tolist() == [0, 1, 1]
        assert shard_of(hashes, 4).tolist() == [0, 8, 15]


class TestSpilledExpansion:
    def test_tiny_budget_spills_and_stays_exact(self, library3):
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(4)
        budgeted = CascadeSearch(
            library3,
            kernel="vector",
            kernel_options={"shard_bits": 4, "memory_budget": 1 << 14},
        )
        budgeted.extend_to(4)
        _assert_identical(reference, budgeted, 4)
        assert budgeted.shard_layout()["spilled"]
        budgeted.close()

    def test_shard_layout_reported(self, library3):
        search = CascadeSearch(library3, kernel="vector")
        search.extend_to(3)
        layout = search.shard_layout()
        assert layout["shard_bits"] == 6
        assert sum(layout["rows_per_shard"]) == search.total_seen()
        assert CascadeSearch(library3, kernel="translate").shard_layout() is None


def _crash_after_dedup(monkeypatch):
    """Make the next dedup batch mutate the slabs, then die."""
    real_commit = ShardedDedupTable.dedup_commit

    def crash(self, *args, **kwargs):
        real_commit(self, *args, **kwargs)  # slabs now hold claims/commits
        raise RuntimeError("simulated crash mid-level")

    monkeypatch.setattr(ShardedDedupTable, "dedup_commit", crash)
    return lambda: monkeypatch.setattr(
        ShardedDedupTable, "dedup_commit", real_commit
    )


class TestCheckpointResume:
    def _options(self, directory, **extra):
        options = {"checkpoint_dir": str(directory), "shard_bits": 3}
        options.update(extra)
        return options

    def _reference(self, library, bound):
        reference = CascadeSearch(library, kernel="translate")
        reference.extend_to(bound)
        return reference

    def test_clean_resume_continues_identically(self, library3, tmp_path):
        first = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        first.extend_to(3)
        first.close()
        resumed = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        assert resumed.was_restored and resumed.expanded_to == 3
        resumed.extend_to(5)
        _assert_identical(self._reference(library3, 5), resumed, 5)
        resumed.close()

    def test_crash_mid_level_resumes_cleanly(
        self, library3, tmp_path, monkeypatch
    ):
        """Kill the expansion after dedup mutated the slabs but before
        the level checkpoint: resume must sweep the in-flight claims and
        uncommitted rows and land on the reference closure."""
        first = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        first.extend_to(3)
        restore = _crash_after_dedup(monkeypatch)
        with pytest.raises(RuntimeError, match="simulated crash"):
            first.extend_to(4)
        restore()
        del first  # no close(): a crashed process would not clean up

        resumed = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        assert resumed.was_restored and resumed.expanded_to == 3
        resumed.extend_to(5)
        _assert_identical(self._reference(library3, 5), resumed, 5)
        resumed.close()

    def test_corrupted_slab_file_is_rebuilt(self, library3, tmp_path):
        first = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        first.extend_to(3)
        first.close()
        # Scribble over one slab: resume must detect the row-count
        # mismatch and re-derive the shard from the committed rows.
        slab = tmp_path / "slabs" / "shard-0002.slab"
        data = np.memmap(slab, dtype=np.uint64, mode="r+")
        data[:] = np.uint64(0x1234567800000001)
        del data
        resumed = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        assert resumed.expanded_to == 3
        resumed.extend_to(4)
        _assert_identical(self._reference(library3, 4), resumed, 4)
        resumed.close()

    def test_incompatible_checkpoint_is_refused(self, library3, tmp_path):
        first = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        first.extend_to(3)
        first.close()
        other_model = CostModel(v_cost=2, vdag_cost=1, cnot_cost=1)
        fresh = CascadeSearch(
            library3, other_model,
            kernel_options=self._options(tmp_path),
        )
        assert not fresh.was_restored and fresh.expanded_to == 0
        fresh.extend_to(3)
        reference = CascadeSearch(
            library3, other_model, kernel="translate"
        )
        reference.extend_to(3)
        _assert_identical(reference, fresh, 3)
        fresh.close()

    def test_extend_over_crashed_checkpoint_is_exact(
        self, library3, tmp_path, monkeypatch
    ):
        """A store-loaded search extended with a crashed run's
        checkpoint dir must not trust the stale slabs: the replayed
        closure discards them, or in-flight claims would swallow
        genuine first producers (regression: silently empty levels)."""
        from repro.core.store import dump_search, loads_search

        first = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        first.extend_to(3)
        blob = dump_search(first)
        restore = _crash_after_dedup(monkeypatch)
        with pytest.raises(RuntimeError):
            first.extend_to(4)
        restore()
        del first

        # the precompute --extend path: load the store, point the
        # engine at the crashed checkpoint dir, deepen
        restored = loads_search(blob, library3)
        restored.use_kernel("vector", self._options(tmp_path))
        restored.extend_to(4)
        _assert_identical(self._reference(library3, 4), restored, 4)
        restored.close()

    def test_manifest_records_identity(self, library3, tmp_path):
        search = CascadeSearch(
            library3, kernel_options=self._options(tmp_path),
        )
        search.extend_to(2)
        search.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == 1
        assert manifest["degree"] == 38
        assert manifest["shard_bits"] == 3
        assert manifest["level_offsets"] == [0, 1, 19, 181]
        assert len(manifest["library_fingerprint"]) == 64


class TestRelationFilter:
    def test_permuted_masks_match_composition(self, library3):
        """perm_g(mask(a)) must equal the mask of t_g . a exactly."""
        search = CascadeSearch(library3, kernel="vector")
        search.extend_to(3)
        engine = search._engine
        rf = engine._filter
        perms = engine.level_perms_raw(3)
        masks = engine.level_masks[3]
        tables = engine.gate_rows.tables
        for gi in (0, 7, 17):
            table = np.frombuffer(tables[gi], dtype=np.uint8)
            composed = pack_rows(table[perms], engine.degree)
            expected = compute_masks(composed, engine.n_binary, 1)
            gates = np.full(perms.shape[0], gi, dtype=np.int64)
            got = rf.permuted_masks(masks, gates)
            assert (got == expected).all()

    def test_filter_prunes_only_duplicates(self, library3):
        """The engine composes fewer candidates than the reasonable-
        product test admits, yet commits the translate kernel's rows --
        the pruned mass was pure duplicates."""
        events = _Events()
        search = CascadeSearch(library3, kernel="vector")
        search.set_progress(events)
        search.extend_to(4)
        plans = {fields["level"]: fields for fields in events.of("plan")}
        assert all(
            plans[c]["kept"] < plans[c]["planned"] for c in range(2, 5)
        ), plans
        reference = CascadeSearch(library3, kernel="translate")
        reference.extend_to(4)
        _assert_identical(reference, search, 4)

    def test_relations_found_for_paper_library(self, library3):
        search = CascadeSearch(library3, kernel="vector")
        rf = search._engine._filter
        assert rf is not None and rf.active
        # The paper's library commutes across disjoint wire pairs, and
        # every gate has its adjoint in the alphabet (identity pairs).
        # Note V^2 = CNOT holds only on the binary sublabels, not on
        # the full 38-label space, so no single-gate relations exist.
        assert rf._pair_q2 and rf._uncond.any()
        assert not rf._singles


class TestSyntheticSingleRelations:
    """A toy alphabet where a two-gate product equals a cheaper gate.

    The paper's library has no such relation on the full label space,
    so this pins the filter's 'single' rule directly: shift1 . shift1 =
    shift2 with cost(shift2) = 1 < 2, and the engine must match a plain
    first-discovery closure with the rule firing.
    """

    def _gate_rows(self):
        from repro.core.kernel import GateRows

        degree = 8

        def shift_table(k):
            table = bytearray(range(256))
            for i in range(degree):
                table[i] = (i + k) % degree
            return bytes(table)

        # gates: shift1, shift2, shift6 (inverse of shift2), shift7
        # (inverse of shift1)
        tables = [shift_table(1), shift_table(2), shift_table(6),
                  shift_table(7)]
        return GateRows(
            tables,
            banned_masks=[0, 0, 0, 0],
            costs=[1, 1, 1, 1],
            inverse=[3, 2, 1, 0],
            mask_words=1,
        ), degree

    @staticmethod
    def _reference(gate_rows, degree, bound):
        """First-discovery closure in the translate kernel's loop order:
        ``(rows, offsets, parents, gates)`` in global row order."""
        rows = [bytes(range(degree))]
        seen = {rows[0]: 0}
        offsets, parents, gates = [0, 1], [-1], [-1]
        for cost in range(1, bound + 1):
            for gi, table in enumerate(gate_rows.tables):
                src = cost - gate_rows.costs[gi]
                if src < 0:
                    continue
                for row in range(offsets[src], offsets[src + 1]):
                    product = rows[row].translate(table)
                    if product not in seen:
                        seen[product] = len(rows)
                        rows.append(product)
                        parents.append(row)
                        gates.append(gi)
            offsets.append(len(rows))
        return rows, offsets, parents, gates

    def test_single_rule_is_detected_and_exact(self):
        gate_rows, degree = self._gate_rows()
        rf = RelationFilter(gate_rows, degree, 1)
        assert rf._singles, "shift1.shift1 = shift2 should register"
        engine = VectorEngine(degree, 2, gate_rows, shard_bits=2)
        engine.seed_identity()
        events = _Events()
        engine.progress = events
        for cost in range(1, 6):
            engine.expand_level(cost)
        assert any(f["kept"] < f["planned"] for f in events.of("plan"))
        rows, offsets, parents, gates = self._reference(gate_rows, degree, 5)
        # the cyclic group C8: closure saturates at 8 rows
        assert engine.n_rows == len(rows) == 8
        assert engine.offsets == offsets
        assert [bytes(r) for r in engine.all_perms_raw()] == rows
        assert np.concatenate(engine.level_parents).tolist() == parents
        assert np.concatenate(engine.level_gates).tolist() == gates


class TestServingIntegration:
    def test_freeze_releases_workers(self, library3):
        search = CascadeSearch(
            library3, kernel="vector", kernel_options={"jobs": 2}
        )
        search.extend_to(5)
        assert search._engine._pool is not None
        search.freeze()
        assert search._engine._pool is None
        # row lookups still work after the pool is gone
        perm, _mask = search.level(3)[5]
        assert search.cost_of(perm) == 3
        search.close()

    def test_batch_synthesizer_over_parallel_closure(self, library3):
        """Serving a closure the pooled engine built."""
        from repro.core.batch import BatchSynthesizer
        from repro.gates import named

        search = CascadeSearch(
            library3, kernel="vector", kernel_options={"jobs": 2}
        )
        batch = BatchSynthesizer(search, cost_bound=5).warm()
        result = batch.synthesize(named.TARGETS["toffoli"])
        assert result.cost == 5
        reference = BatchSynthesizer(
            CascadeSearch(library3, kernel="translate"), cost_bound=5
        ).synthesize(named.TARGETS["toffoli"])
        assert str(result.circuit) == str(reference.circuit)
        search.close()
