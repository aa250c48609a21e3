"""The vector engine's option space vs the translate-loop oracle.

The engine's shard layout, memory budget, checkpointing and relation
filter are only allowed to make expansion *faster* or *restartable*:
for any library, cost model, shard count, memory budget and spill
state the engine must produce levels
byte-identical in content and discovery order -- with identical parent
pointers -- to the byte-level reference loop
(``tests/reference_closure.py``).  These tests pin
that determinism contract, the relation filter's exactness, the sharded
dedup table's claim protocol under forced collisions and claim races,
spill-to-disk behaviour, and the crash-mid-level checkpoint/resume
path.
"""

import json
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.core.kernel as kernel_module
from repro.core.cost import CostModel
from repro.core.dedup import ShardedDedupTable, parse_budget, shard_of
from repro.core.kernel import (
    RelationFilter,
    VectorEngine,
    compute_masks,
    hash_rows,
    mask_int_to_words,
    mask_words_to_int,
    pack_rows,
    preimage_mask,
)
from repro.core.search import CascadeSearch
from repro.errors import InvalidValueError
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary, library_for
from repro.io import save_search
from reference_closure import reference_search


def _trio(library, cost_model=None, bound=3, track_parents=True, options=None):
    """The oracle, default vector engine, and a vector-engine variant
    (single shard unless *options* say otherwise), all at *bound*."""
    kwargs = {"track_parents": track_parents}
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    engines = [
        CascadeSearch(library, **kwargs),
        CascadeSearch(
            library, kernel_options=options or {"shard_bits": 0}, **kwargs
        ),
    ]
    for search in engines:
        search.extend_to(bound)
    return [reference_search(library, bound, **kwargs), *engines]


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
        reference = reference_search(library3, 4)
        sharded = CascadeSearch(
            library3, kernel_options={"shard_bits": shard_bits}
        )
        sharded.extend_to(4)
        _assert_identical(reference, sharded, 4)

    def test_relation_filter_matches_translate(self, library3):
        """The always-on relation filter against the unfiltered
        reference: pruning provable duplicates changes no level, order
        or parent, one level deeper than the trio tests."""
        search = CascadeSearch(library3)
        assert search._engine._filter is not None
        search.extend_to(5)
        reference = reference_search(library3, 5)
        _assert_identical(reference, search, 5)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", None])
    def test_jobs_below_one_refused(self, library3, jobs):
        """The worker pool is gone: ``jobs`` is an unknown engine
        option whatever its value, refused by name."""
        with pytest.raises(InvalidValueError, match="jobs"):
            CascadeSearch(library3, kernel_options={"jobs": jobs})

    def test_unknown_engine_option_refused(self, library3):
        """A misspelt option is named, with the accepted ones listed --
        not a bare TypeError from the engine constructor."""
        with pytest.raises(InvalidValueError, match="'bogus'") as excinfo:
            CascadeSearch(library3, kernel_options={"bogus": 1})
        for name in ("shard_bits", "memory_budget", "checkpoint_dir"):
            assert name in str(excinfo.value)

    def test_use_kernel_refuses_unknown_option(self, library3):
        """set_kernel_options (once ``use_kernel``; the id is kept for
        stability) checks names up front instead of failing at the next
        extend_to, and leaves the search usable."""
        search = CascadeSearch(library3)
        search.extend_to(2)
        with pytest.raises(InvalidValueError, match="'jobs'"):
            search.set_kernel_options({"jobs": 2})
        search.extend_to(3)
        assert search.stats().level_sizes == (1, 18, 162, 1017)
        search.close()

    @pytest.mark.parametrize("bits", [True, 1.0, "3", None])
    def test_non_integer_shard_bits_refused(self, library3, bits):
        with pytest.raises(InvalidValueError, match="shard_bits"):
            CascadeSearch(library3, kernel_options={"shard_bits": bits})

    def test_kernel_handoff_translate_to_vector(self, library3):
        """The engine, built with its own options, continues the
        oracle's snapshot mid-expansion and stays byte-identical."""
        handoff = reference_search(library3, 3)
        handoff.set_kernel_options({"shard_bits": 3})
        handoff.extend_to(5)
        reference = reference_search(library3, 5)
        _assert_identical(reference, handoff, 5)
        assert handoff.shard_layout()["shard_bits"] == 3

    def test_new_engine_options_rebuild_the_engine(self, library3):
        """New options on a live engine take effect at the next
        expansion instead of being silently ignored."""
        search = CascadeSearch(library3)
        search.extend_to(3)
        search.set_kernel_options({"shard_bits": 2})
        search.extend_to(5)
        assert search.shard_layout()["shard_bits"] == 2
        reference = reference_search(library3, 5)
        _assert_identical(reference, search, 5)

    def test_restored_store_extends_with_parallel_kernel(self, library3):
        """A store-loaded closure deepens on the spilled engine."""
        from repro.core.store import dump_search, loads_search

        base = CascadeSearch(library3)
        base.extend_to(3)
        restored = loads_search(dump_search(base), library3)
        restored.set_kernel_options({"shard_bits": 3, "memory_budget": 0})
        try:
            restored.extend_to(5)
            reference = reference_search(library3, 5)
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
            library2, kernel_options={"shard_bits": 4}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = reference_search(library2, 4)
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
            library2, kernel_options={"shard_bits": 6}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = reference_search(library2, 4)
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
            library2, kernel_options={"shard_bits": 6}
        )
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = reference_search(library2, 4)
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
        reference = reference_search(library3, 4)
        budgeted = CascadeSearch(
            library3,
            kernel_options={"shard_bits": 4, "memory_budget": 1 << 14},
        )
        budgeted.extend_to(4)
        _assert_identical(reference, budgeted, 4)
        assert budgeted.shard_layout()["spilled"]
        budgeted.close()

    def test_shard_layout_reported(self, library3):
        search = CascadeSearch(library3)
        search.extend_to(3)
        layout = search.shard_layout()
        assert layout["shard_bits"] == 6
        assert sum(layout["rows_per_shard"]) == search.total_seen()
        # A snapshot restored without a recorded layout reports none.
        assert reference_search(library3, 0).shard_layout() is None


def _crash_after_dedup(monkeypatch, batches=1):
    """Let the next *batches* dedup batches mutate the slabs, then die."""
    real_commit = ShardedDedupTable.dedup_commit
    calls = []

    def crash(self, *args, **kwargs):
        result = real_commit(self, *args, **kwargs)  # slabs hold claims/commits
        calls.append(1)
        if len(calls) == batches:
            raise RuntimeError("simulated crash mid-level")
        return result

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
        reference = reference_search(library, bound)
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

    def test_crash_after_second_batch_resumes_byte_identical(
        self, library3, tmp_path, monkeypatch
    ):
        """A crash between two committed batches of one level leaves
        earlier batches' rows in the slabs: resume must sweep them and
        write the same store bytes as an uninterrupted run."""
        checkpoint = tmp_path / "ckpt"
        first = CascadeSearch(
            library3, kernel_options=self._options(checkpoint),
        )
        first.extend_to(3)
        with monkeypatch.context() as patch:
            _batch_rows(patch, first, 7)
            _crash_after_dedup(patch, batches=2)
            with pytest.raises(RuntimeError, match="simulated crash"):
                first.extend_to(4)
        del first

        resumed = CascadeSearch(
            library3, kernel_options=self._options(checkpoint),
        )
        assert resumed.was_restored and resumed.expanded_to == 3
        resumed.extend_to(5)
        _assert_identical(self._reference(library3, 5), resumed, 5)
        clean = CascadeSearch(library3)
        clean.extend_to(5)
        assert (
            save_search(resumed, tmp_path / "resumed.rpro").payload_sha256
            == save_search(clean, tmp_path / "clean.rpro").payload_sha256
        )
        resumed.close()
        clean.close()

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
        reference = reference_search(library3, 3, other_model)
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
        restored.set_kernel_options(self._options(tmp_path))
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


def _batch_rows(monkeypatch, search, rows):
    """Make *search*'s engine compose and commit *rows* candidates a batch."""
    monkeypatch.setattr(
        kernel_module, "_BATCH_BYTES", rows * search._engine.width
    )


class TestStreamedBatches:
    """A level streamed through tiny batches is the level one whole-level
    batch finds: same rows, order, parents and store bytes."""

    @pytest.mark.parametrize(
        "n_qubits, radix, cost_model, bound, options",
        [
            (3, 2, None, 5, None),
            (3, 2, CostModel(v_cost=2, vdag_cost=1, cnot_cost=1), 5, None),
            (2, 3, None, 4, None),
            (3, 2, None, 5, {"shard_bits": 3, "memory_budget": 0}),
        ],
        ids=["n3-cost5", "v-cost-2", "ternary-n2", "spilled"],
    )
    def test_seven_row_batches_match_translate(
        self, n_qubits, radix, cost_model, bound, options, monkeypatch,
        tmp_path,
    ):
        library = library_for(n_qubits, radix)
        kwargs = {"track_parents": True}
        if cost_model is not None:
            kwargs["cost_model"] = cost_model
        batched = CascadeSearch(
            library, kernel_options=options, **kwargs
        )
        with monkeypatch.context() as patch:
            _batch_rows(patch, batched, 7)
            batched.extend_to(bound)
        reference = reference_search(library, bound, **kwargs)
        _assert_identical(reference, batched, bound)
        default = CascadeSearch(library, **kwargs)
        default.extend_to(bound)
        assert (
            save_search(batched, tmp_path / "batched.rpro").payload_sha256
            == save_search(default, tmp_path / "default.rpro").payload_sha256
        )
        batched.close()
        default.close()


def _assert_same_arrays(reference, other):
    """Row-for-row equality of perms, masks, parents and gates."""
    ours, theirs = reference.export_arrays(), other.export_arrays()
    np.testing.assert_array_equal(ours.level_offsets, theirs.level_offsets)
    for name in ("perms", "masks", "parents", "gates"):
        np.testing.assert_array_equal(
            np.asarray(getattr(ours, name)), np.asarray(getattr(theirs, name)),
            err_msg=name,
        )


class TestPipeline:
    """The two-stage expansion: a worker composes batch k+1 while the
    caller commits batch k.  Small batch budgets make every level cycle
    the two scratch sets many times; the closure must still be the
    oracle's, and a failure in either stage must surface from
    ``extend_to`` with the worker thread gone."""

    @pytest.mark.parametrize(
        "n_qubits, radix, bound, rows",
        [(3, 2, 7, 1024), (3, 3, 4, 7), (2, 3, 4, 7)],
        ids=["n3-cost7", "ternary-n3", "ternary-n2"],
    )
    def test_small_batches_match_reference(
        self, n_qubits, radix, bound, rows, monkeypatch
    ):
        library = library_for(n_qubits, radix)
        search = CascadeSearch(library, track_parents=True)
        with monkeypatch.context() as patch:
            _batch_rows(patch, search, rows)
            search.extend_to(bound)
        assert sum(s.rows for s in search._engine._scratch) <= rows
        _assert_same_arrays(reference_search(library, bound), search)
        search.close()

    def test_spilled_small_batches_match_reference(
        self, library3, monkeypatch
    ):
        search = CascadeSearch(
            library3, kernel_options={"shard_bits": 3, "memory_budget": 0}
        )
        with monkeypatch.context() as patch:
            _batch_rows(patch, search, 1024)
            search.extend_to(6)
        assert search._engine.dedup_table.spilled
        _assert_same_arrays(reference_search(library3, 6), search)
        search.close()

    def test_resumed_small_batches_match_reference(
        self, library3, tmp_path, monkeypatch
    ):
        """Crash a checkpointed, pipelined level after a few batches,
        then resume (pipelined again) to the oracle's closure."""
        options = {"checkpoint_dir": str(tmp_path), "shard_bits": 3}
        first = CascadeSearch(library3, kernel_options=options)
        first.extend_to(5)
        with monkeypatch.context() as patch:
            _batch_rows(patch, first, 1024)
            _crash_after_dedup(patch, batches=5)
            with pytest.raises(RuntimeError, match="simulated crash"):
                first.extend_to(6)
        del first
        resumed = CascadeSearch(library3, kernel_options=options)
        assert resumed.was_restored and resumed.expanded_to == 5
        with monkeypatch.context() as patch:
            _batch_rows(patch, resumed, 1024)
            resumed.extend_to(6)
        _assert_same_arrays(reference_search(library3, 6), resumed)
        resumed.close()

    def _fail_on_call(self, monkeypatch, owner, name, call):
        """Make ``owner.name`` raise on its *call*-th invocation."""
        real = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == call:
                raise RuntimeError(f"injected {name} failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)

    @pytest.mark.parametrize(
        "owner, name",
        [(kernel_module, "hash_rows"), (ShardedDedupTable, "dedup_commit")],
        ids=["worker-stage", "commit-stage"],
    )
    def test_stage_failure_surfaces_and_joins_worker(
        self, library3, monkeypatch, owner, name
    ):
        search = CascadeSearch(library3)
        search.extend_to(3)
        threads = threading.active_count()
        with monkeypatch.context() as patch:
            _batch_rows(patch, search, 64)
            self._fail_on_call(patch, owner, name, 4)
            with pytest.raises(RuntimeError, match=f"injected {name}"):
                search.extend_to(4)
        assert threading.active_count() == threads
        assert not any(
            t.name.startswith("repro-compose") for t in threading.enumerate()
        )
        search.close()

    def test_exact_under_rapid_thread_switching(
        self, library3, monkeypatch, tmp_path
    ):
        """Switching threads every microsecond interleaves the two
        stages (and the store writer with its hasher) as finely as the
        interpreter allows: the closure and the digest must hold."""
        from repro.core.store import verify_store

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            search = CascadeSearch(library3)
            with monkeypatch.context() as patch:
                _batch_rows(patch, search, 256)
                search.extend_to(5)
            path = tmp_path / "closure.rpro"
            save_search(search, path)
            verify_store(path)
        finally:
            sys.setswitchinterval(interval)
        _assert_same_arrays(reference_search(library3, 5), search)
        search.close()

    def test_no_thread_outlives_an_expansion_or_save(
        self, library3, tmp_path
    ):
        threads = threading.active_count()
        search = CascadeSearch(library3)
        search.extend_to(5)
        assert threading.active_count() == threads
        save_search(search, tmp_path / "closure.rpro")
        save_search(search, tmp_path / "closure3.rpro", format_version=3)
        assert threading.active_count() == threads
        search.close()


class TestRelationFilter:
    @pytest.mark.parametrize("n_qubits, level", [(3, 3), (4, 3)])
    def test_preimage_folds_the_permuted_mask(self, n_qubits, level):
        """mask(t_q2 . a) & B == 0 exactly when mask(a) & t_q2^-1(B) ==
        0, for every row, gate and library banned mask B (one mask
        word at 3 qubits, three at 4)."""
        search = CascadeSearch(library_for(n_qubits))
        search.extend_to(level)
        engine = search._engine
        arrays = engine.arrays()
        start, stop = arrays.level_rows(level)
        perms, masks = arrays.perms[start:stop], arrays.masks[start:stop]
        words = engine.mask_words
        banned_sets = {mask_words_to_int(b) for b in engine.gate_rows.banned}
        for table in engine.gate_rows.tables:
            composed = compute_masks(
                pack_rows(np.frombuffer(table, dtype=np.uint8)[perms],
                          engine.degree),
                engine.n_binary,
                words,
            )
            for banned in banned_sets:
                preimage = preimage_mask(table, banned, engine.degree)
                expected = ~(
                    composed & mask_int_to_words(banned, words)
                ).any(axis=1)
                got = ~(masks & mask_int_to_words(preimage, words)).any(axis=1)
                np.testing.assert_array_equal(got, expected)

    def test_filter_prunes_only_duplicates(self, library3):
        """The engine composes fewer candidates than the reasonable-
        product test admits, yet commits the oracle's rows --
        the pruned mass was pure duplicates."""
        events = _Events()
        search = CascadeSearch(library3)
        search.set_progress(events)
        search.extend_to(4)
        plans = {fields["level"]: fields for fields in events.of("plan")}
        assert all(
            plans[c]["kept"] < plans[c]["planned"] for c in range(2, 5)
        ), plans
        reference = reference_search(library3, 4)
        _assert_identical(reference, search, 4)

    def test_relations_found_for_paper_library(self, library3):
        search = CascadeSearch(library3)
        rf = search._engine._filter
        assert rf is not None and rf.active
        # The paper's library commutes across disjoint wire pairs, and
        # every gate has its adjoint in the alphabet (identity pairs).
        # Note V^2 = CNOT holds only on the binary sublabels, not on
        # the full 38-label space, so no single-gate relations exist.
        assert rf.found["identity"] and rf.found["pair"]
        assert not rf.found["single"]

    @pytest.mark.parametrize(
        "library, cost_model, bound, kept",
        [
            ((3,), None, 7, [18, 162, 1058, 5810, 29058, 138181, 637981]),
            ((3,), CostModel(1, 1, 3), 7, [12, 54, 140, 432, 1246, 3462, 10129]),
            ((4,), None, 4, [36, 684, 9748, 111811]),
            ((2, 3), None, 5, [10, 35, 140, 791, 1674]),
            ((2, 4), None, 4, [18, 127, 708, 5525]),
        ],
        ids=["3q-unit", "3q-weighted", "4q", "ternary-2", "quaternary-2"],
    )
    def test_pruned_counts_per_level(self, library, cost_model, bound, kept):
        """A filter that prunes less still commits the same rows, so the
        store digests cannot catch a lost relation: pin what it keeps."""
        kwargs = {} if cost_model is None else {"cost_model": cost_model}
        search = CascadeSearch(library_for(*library), **kwargs)
        events = _Events()
        search.set_progress(events)
        search.extend_to(bound)
        assert [fields["kept"] for fields in events.of("plan")] == kept


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
        """First-discovery closure in the oracle's loop order:
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
        assert rf.found["single"], "shift1.shift1 = shift2 should register"
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
        arrays = engine.arrays()
        assert [bytes(r) for r in arrays.perms] == rows
        assert arrays.parents.tolist() == parents
        assert arrays.gates.tolist() == gates


class TestSyntheticIdentityRelation:
    """A toy alphabet where a gate's inverse exists under two names.

    Gates: shift1, swap(0 1), shift7 (banned on label 2) and shift7
    again with no banned labels.  The declared inverse of shift1 is the
    first shift7, so the kernel's back-edge filter drops shift1 after
    the first shift7 but not after the second.  Rows the second name
    creates (where the first is banned) therefore reach the relation
    filter with a shift1 candidate that only the identity rule drops.
    On every library in the repo the back-edge filter removes each
    identity candidate first, so this alphabet is the rule's only pin.
    """

    DEGREE = 8
    BOUND = 7

    def _gate_rows(self):
        from repro.core.kernel import GateRows

        def table(images):
            full = bytearray(range(256))
            full[:self.DEGREE] = bytes(images)
            return bytes(full)

        shift1 = [(i + 1) % self.DEGREE for i in range(self.DEGREE)]
        shift7 = [(i - 1) % self.DEGREE for i in range(self.DEGREE)]
        swap = [1, 0, *range(2, self.DEGREE)]
        tables = [table(shift1), table(swap), table(shift7), table(shift7)]
        banned = [0, 0, 1 << 2, 0]
        return GateRows(
            tables,
            banned_masks=banned,
            costs=[1, 1, 1, 1],
            inverse=[2, 1, 0, 0],
            mask_words=1,
        )

    def _library(self, gate_rows):
        """The alphabet as the duck-typed library the oracle reads."""
        from types import SimpleNamespace

        return SimpleNamespace(
            space=SimpleNamespace(size=self.DEGREE, n_binary=2),
            gates=[
                SimpleNamespace(
                    table=gate_table,
                    banned_mask=mask_words_to_int(banned),
                    gate=SimpleNamespace(kind=GateKind.CNOT),
                    index=index,
                )
                for index, (gate_table, banned) in enumerate(
                    zip(gate_rows.tables, gate_rows.banned)
                )
            ],
        )

    def test_identity_rule_alone_drops_the_second_name(self):
        from reference_closure import reference_arrays

        gate_rows = self._gate_rows()
        rf = RelationFilter(gate_rows, self.DEGREE, 1)
        assert rf.found["identity"] == 5
        assert not rf.found["single"]
        engine = VectorEngine(self.DEGREE, 2, gate_rows, shard_bits=2)
        engine.seed_identity()
        events = _Events()
        engine.progress = events
        for cost in range(1, self.BOUND + 1):
            engine.expand_level(cost)
        plans = events.of("plan")
        assert [f["planned"] for f in plans] == [4, 8, 15, 31, 60, 114, 204]
        # Measured with the identity alternative's mask at 0; with mask
        # 1 it keeps 25, 47 and 161 at levels 4, 5 and 7.
        assert [f["kept"] for f in plans] == [4, 6, 12, 24, 46, 88, 160]
        reference = reference_arrays(
            self._library(gate_rows), self.BOUND
        )
        arrays = engine.arrays()
        assert engine.offsets == reference.level_offsets.tolist()
        np.testing.assert_array_equal(arrays.perms, reference.perms)
        assert arrays.parents.tolist() == reference.parents.tolist()
        assert arrays.gates.tolist() == reference.gates.tolist()
        # The second shift7 creates rows, so its shift1 candidates exist.
        assert (arrays.gates == 3).sum() == 20


class TestServingIntegration:
    def test_freeze_releases_workers(self, library3):
        """freeze() drops the expansion scratch buffers; row lookups
        (which need the dedup table) still work."""
        search = CascadeSearch(library3)
        search.extend_to(5)
        sets = search._engine._scratch
        assert sets is not None and len(sets) == 2
        held = [
            weakref.ref(getattr(scratch, name))
            for scratch in sets
            for name in ("cand", "hashes", "masks", "parents", "gates")
        ]
        del sets
        search.freeze()
        assert search._engine._scratch is None
        assert all(ref() is None for ref in held)
        perm, _mask = search.level(3)[5]
        assert search.cost_of(perm) == 3
        search.close()

    def test_batch_synthesizer_over_parallel_closure(self, library3):
        """Serving a closure the spilled engine built."""
        from repro.core.batch import BatchSynthesizer
        from repro.gates import named

        search = CascadeSearch(
            library3,
            kernel_options={"shard_bits": 3, "memory_budget": 0},
        )
        batch = BatchSynthesizer(search, cost_bound=5).warm()
        result = batch.synthesize(named.TARGETS["toffoli"])
        assert result.cost == 5
        reference = BatchSynthesizer(
            reference_search(library3, 5), cost_bound=5
        ).synthesize(named.TARGETS["toffoli"])
        assert str(result.circuit) == str(reference.circuit)
        search.close()
