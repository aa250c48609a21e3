"""Engine equivalence: the vector engine vs the translate-loop oracle.

The NumPy kernel is only a performance change -- for any library and
cost model it must discover the same levels, in the same discovery
order, with the same parent pointers as the byte-level reference loop
(``tests/reference_closure.py``).  These tests pin that equivalence
(the full cost-7 golden run lives in tests/test_golden_tables.py), plus
the kernel-internal machinery: the dedup hash table's exactness under
forced collisions and the bulk pack/unpack adapters.
"""

import numpy as np
import pytest

import repro.core.kernel as kernel_module
from repro.core.cost import CostModel
from repro.core.kernel import (
    compute_masks,
    hash_rows,
    mask_int_to_words,
    mask_words_to_int,
    pack_rows,
)
from repro.core.search import CascadeSearch
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary
from repro.perm.permutation import pack_images, unpack_images
from reference_closure import reference_search


def _pair(library, cost_model=None, bound=3, track_parents=True):
    kwargs = {"track_parents": track_parents}
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    vector = CascadeSearch(library, **kwargs)
    vector.extend_to(bound)
    return vector, reference_search(library, bound, **kwargs)


def _assert_identical(vector, translate, bound):
    assert vector.stats().level_sizes == translate.stats().level_sizes
    for cost in range(bound + 1):
        assert vector.level(cost) == translate.level(cost), (
            f"level {cost} differs between kernels"
        )
    if vector.tracks_parents:
        ours, theirs = vector.export_arrays(), translate.export_arrays()
        np.testing.assert_array_equal(ours.parents, theirs.parents)
        np.testing.assert_array_equal(ours.gates, theirs.gates)


class TestKernelEquivalence:
    def test_three_qubit_unit_costs(self, library3):
        vector, translate = _pair(library3, bound=4)
        _assert_identical(vector, translate, 4)

    def test_two_qubit(self, library2):
        vector, translate = _pair(library2, bound=5)
        _assert_identical(vector, translate, 5)

    @pytest.mark.parametrize(
        "model",
        [
            CostModel(v_cost=1, vdag_cost=1, cnot_cost=2),
            CostModel(v_cost=2, vdag_cost=1, cnot_cost=1),
            CostModel(v_cost=2, vdag_cost=2, cnot_cost=3),
        ],
    )
    def test_non_unit_cost_models(self, library3, model):
        """Empty levels and staggered source levels, engine and oracle."""
        vector, translate = _pair(library3, cost_model=model, bound=4)
        _assert_identical(vector, translate, 4)

    def test_partial_gate_alphabet(self):
        """V without V+ disables the inverse back-edge filter for V."""
        library = GateLibrary(3, kinds=(GateKind.V, GateKind.CNOT))
        vector, translate = _pair(library, bound=4)
        _assert_identical(vector, translate, 4)

    def test_counting_only(self, library3):
        vector, translate = _pair(library3, bound=4, track_parents=False)
        _assert_identical(vector, translate, 4)

    def test_four_qubit_multiword_masks(self):
        """176 labels -> 3 mask words per row; engine and oracle agree."""
        library = GateLibrary(4)
        vector, translate = _pair(library, bound=2)
        _assert_identical(vector, translate, 2)

    @pytest.mark.parametrize("kernel", ["translate", "parallel"])
    def test_only_the_vector_kernel_exists(self, library3, kernel):
        """The byte-level loop lives in tests/ now; the parameter keeps
        one value and names it when refusing any other."""
        from repro.errors import InvalidValueError

        with pytest.raises(InvalidValueError, match="'vector'"):
            CascadeSearch(library3, kernel=kernel)

    def test_candidate_scratch_is_one_batch(self, library3, monkeypatch):
        """Levels stream through one batch budget, split into the two
        pipeline scratch sets: after cost 5 (tens of thousands of
        candidates a level) they hold 64 rows between them."""
        search = CascadeSearch(library3)
        engine = search._engine
        monkeypatch.setattr(kernel_module, "_BATCH_BYTES", 64 * engine.width)
        search.extend_to(5)
        assert search.stats().level_sizes == (1, 18, 162, 1017, 5364, 25761)
        sets = engine._scratch
        assert len(sets) == 2
        for name in ("cand", "hashes", "masks", "parents", "gates"):
            assert sum(getattr(s, name).shape[0] for s in sets) <= 64
        search.close()

    def test_incremental_extension_matches_one_shot(self, library3):
        stepwise = CascadeSearch(library3)
        for bound in range(5):
            stepwise.extend_to(bound)
        oneshot = CascadeSearch(library3)
        oneshot.extend_to(4)
        _assert_identical(stepwise, oneshot, 4)

    def test_vector_continues_a_translate_closure(self, library3):
        """Handoff: the engine extends the oracle's snapshot and ends
        where the oracle does at the higher bound."""
        handoff = reference_search(library3, 3)
        handoff.extend_to(5)
        _assert_identical(handoff, reference_search(library3, 5), 5)

    def test_queries_and_export_after_restored_vector_extension(
        self, library3
    ):
        """A restored snapshot must not survive a vector extension.

        A from_arrays restore adopts the snapshot; extending with the
        vector kernel replays it into an engine, so cost_of, witness
        extraction and a re-export all cover the new levels.
        """
        base = CascadeSearch(library3, track_parents=True)
        base.extend_to(3)
        restored = CascadeSearch.from_arrays(library3, base.export_arrays())
        restored.extend_to(4)
        perm, _mask = restored.level(4)[7]
        assert restored.cost_of(perm) == 4
        assert len(restored.witness_indices(perm)) == 4
        arrays = restored.export_arrays()
        assert arrays.expanded_to == 4
        row = arrays.level_rows(4)[0] + 7
        assert arrays.perms[row].tobytes() == perm
        assert restored.cost_of_row(int(arrays.parents[row])) == 3
        rebuilt = CascadeSearch.from_arrays(library3, arrays)
        assert rebuilt.stats().level_sizes == restored.stats().level_sizes


class TestForcedCollisions:
    def test_constant_hash_still_exact(self, library2, monkeypatch):
        """With every hash colliding, the scalar fallback keeps dedup exact.

        This drives the deferred-verification resurrection path that a
        real 64-bit hash would exercise once per ~2^64 candidates.
        """
        import repro.core.kernel as kernel_module

        real_hash = kernel_module.hash_rows

        def degenerate(packed):
            return np.zeros(packed.shape[0], dtype=np.uint64)

        monkeypatch.setattr(kernel_module, "hash_rows", degenerate)
        colliding = CascadeSearch(library2)
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
        """A 2-bit hash forces heavy collisions yet exact seed parity."""
        import repro.core.kernel as kernel_module

        real_hash = kernel_module.hash_rows

        def tiny(packed):
            return real_hash(packed) & np.uint64(3)

        monkeypatch.setattr(kernel_module, "hash_rows", tiny)
        colliding = CascadeSearch(library2)
        colliding.extend_to(4)
        monkeypatch.setattr(kernel_module, "hash_rows", real_hash)
        reference = reference_search(library2, 4)
        # Even the discovery order and parent pointers survive, because
        # collision resolution is by candidate id.
        _assert_identical(colliding, reference, 4)


class TestKernelPrimitives:
    def test_pack_rows_pads_with_fixed_points(self):
        rows = np.arange(38, dtype=np.uint8)[None, :]
        padded = pack_rows(rows, 38)
        assert padded.shape == (1, 40)
        assert padded[0, 38] == 38 and padded[0, 39] == 39

    def test_mask_word_roundtrip(self):
        for value in (0, 1, 0xFF, (1 << 100) | 5, (1 << 175) - 1):
            words = max(1, -(-value.bit_length() // 64))
            assert mask_words_to_int(mask_int_to_words(value, words)) == value

    def test_compute_masks_matches_scalar(self, library3, search3):
        perms = pack_images([p for p, _m in search3.level(2)], 38)
        masks = compute_masks(perms, 8, 1)
        for (perm, mask), row in zip(search3.level(2), masks):
            assert int(row[0]) == mask

    def test_multiword_masks_match_scalar(self):
        library = GateLibrary(4)
        search = reference_search(library, 1)
        perms = pack_images([p for p, _m in search.level(1)], 176)
        masks = compute_masks(perms, 16, 3)
        for (perm, mask), row in zip(search.level(1), masks):
            assert mask_words_to_int(row) == mask

    def test_multiword_masks_across_row_blocks(self, monkeypatch):
        """The blocked presence matrix sets every image bit, block
        boundaries included."""
        monkeypatch.setattr(kernel_module, "_MASK_CHUNK", 64)
        rng = np.random.default_rng(7)
        perms = rng.permuted(
            np.tile(np.arange(176, dtype=np.uint8), (300, 1)), axis=1
        )
        masks = compute_masks(perms, 16, 3)
        for row, words in zip(perms, masks):
            expected = 0
            for image in row[:16].tolist():
                expected |= 1 << image
            assert mask_words_to_int(words) == expected

    def test_hash_is_deterministic_and_spread(self):
        rng = np.random.default_rng(42)
        rows = rng.permuted(
            np.tile(np.arange(40, dtype=np.uint8), (1000, 1)), axis=1
        )
        h1, h2 = hash_rows(rows), hash_rows(rows)
        assert (h1 == h2).all()
        assert len(np.unique(h1)) == len(np.unique(rows.view("V40")))

    def test_pack_unpack_roundtrip(self, search3):
        level = [p for p, _m in search3.level(3)]
        arr = pack_images(level, 38)
        assert arr.shape == (len(level), 38)
        assert unpack_images(arr) == level

    def test_pack_images_empty(self):
        assert pack_images([], 38).shape == (0, 38)


class TestRowAccessors:
    def test_find_matching_rows_equals_scan(self, search3, library3):
        search3.extend_to(4)
        from repro.gates import named
        from repro.core.mce import normalize_target

        _mask, remainder, _gates = normalize_target(
            named.TARGETS["peres"], library3
        )
        rows = search3.find_matching_rows(4, remainder.images)
        expected = [
            i + sum(search3.level_size(c) for c in range(4))
            for i, (perm, mask) in enumerate(search3.level(4))
            if mask == search3.s_mask
            and perm[:8] == remainder.images
        ]
        assert rows == expected
        for row in rows:
            assert search3.perm_bytes_at(row)[:8] == remainder.images

    def test_s_fixing_rows_mask_semantics(self, search3):
        rows, remainders = search3.s_fixing_rows(3)
        level3 = search3.level(3)
        offset = sum(search3.level_size(c) for c in range(3))
        expected = [
            offset + i
            for i, (_p, mask) in enumerate(level3)
            if mask == search3.s_mask
        ]
        assert rows == expected

    @pytest.mark.parametrize("form", ["engine", "store", "translate"])
    def test_out_of_range_rows_refused(self, library3, form):
        """Rows outside 0..n-1 raise instead of reading numpy's negative
        indexing (a bogus witness) or answering a cost past the bound."""
        from repro.core.store import dump_search, loads_search
        from repro.errors import InvalidValueError

        if form == "translate":
            search = reference_search(library3, 4)
        else:
            search = CascadeSearch(library3)
            search.extend_to(4)
        if form == "store":
            search = loads_search(dump_search(search), library3)
        n = search.n_rows()
        assert n == 6562
        for row in (-1, -n, n, n + 5):
            for accessor in (
                search.perm_bytes_at,
                search.cost_of_row,
                search.witness_indices_for_row,
            ):
                with pytest.raises(InvalidValueError, match="outside"):
                    accessor(row)
        assert search.cost_of_row(n - 1) == 4
        assert len(search.witness_indices_for_row(n - 1)) == 4
