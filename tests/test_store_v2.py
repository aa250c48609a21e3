"""Unit tests for store format v2: memmap layout, index, migration.

Complements tests/test_store.py (which exercises the format-agnostic
API against the current default format): this module pins the
v2-specific guarantees -- lazy memory-mapped opens, the serialized
remainder index, v1 -> v2 migration equivalence, and rejection of
truncated/corrupted/unknown-version files.  Legacy v1 inputs come from
the test-side encoder in ``tests/legacy_v1.py`` (the library only reads
v1).
"""

import dataclasses
import errno
import hashlib

import numpy as np
import pytest

from legacy_v1 import encode_v1, encode_v1_payload, write_v1
from repro.errors import StoreError, StoreVersionError
from repro.core.batch import BatchSynthesizer, build_remainder_index
from repro.core.search import CascadeSearch
from repro.core.store import (
    MAGIC_V1,
    MAGIC_V2,
    dump_search,
    load_search,
    loads_search,
    migrate_store,
    open_store,
    read_header,
    save_search,
    verify_store,
)
from repro.gates import named


@pytest.fixture(scope="module")
def search5(library3):
    search = CascadeSearch(library3, track_parents=True)
    search.extend_to(5)
    return search


@pytest.fixture(scope="module")
def v2_path(search5, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "closure.rpro"
    save_search(search5, path)
    return path


@pytest.fixture(scope="module")
def v1_path(search5, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "closure_v1.rpro"
    return write_v1(search5, path)


def _payload(data: bytes) -> bytes:
    hlen = int.from_bytes(data[8:12], "little")
    return data[12 + hlen :]


class TestFormatFraming:
    def test_default_format_is_v2(self, search5):
        assert dump_search(search5)[:8] == MAGIC_V2

    def test_v1_is_read_only(self, search5, tmp_path):
        with pytest.raises(StoreVersionError, match="read and migrate only"):
            dump_search(search5, format_version=1)
        path = tmp_path / "legacy.rpro"
        with pytest.raises(StoreVersionError):
            save_search(search5, path, format_version=1)
        assert list(tmp_path.iterdir()) == []

    def test_v2_payload_sha256_is_pinned(self, search5):
        """The cost-5 closure's v2 payload bytes never change."""
        payload = _payload(dump_search(search5))
        assert hashlib.sha256(payload).hexdigest() == (
            "b067f70f25477bc88b0d823d7e6b682bd93c0a1d40f178e7673a6b1f81aba298"
        )

    def test_unknown_write_version_refused(self, search5):
        with pytest.raises(StoreVersionError):
            dump_search(search5, format_version=99)

    def test_header_describes_v2_layout(self, v2_path, search5):
        header = read_header(v2_path)
        assert header.format_version == 2
        assert header.mask_words == 1
        assert header.level_row_offsets == (0, 1, 19, 181, 1198, 6562, 32323)
        for name in ("perms", "masks", "parents", "gates",
                     "rkeys", "rcosts", "rindptr", "rmatches"):
            assert name in header.sections
        # Sections are 8-byte aligned for safe memmap views.
        for offset, _length in header.sections.values():
            assert offset % 8 == 0
        assert header.index_entries > 0
        assert header.index_matches >= header.index_entries

    def test_payload_starts_aligned(self, search5):
        data = dump_search(search5)
        hlen = int.from_bytes(data[8:12], "little")
        assert (12 + hlen) % 8 == 0

    def test_atomic_save_leaves_no_temp_file(self, search5, tmp_path):
        path = tmp_path / "closure.rpro"
        save_search(search5, path)
        assert path.exists()
        assert not (tmp_path / "closure.rpro.tmp").exists()


class TestLazyOpen:
    def test_open_attaches_serialized_index(self, v2_path):
        _header, _library, search = open_store(v2_path)
        attached = search.attached_remainder_index
        assert attached is not None
        bound, index = attached
        assert bound == 5
        assert len(index) > 0

    def test_batch_does_no_closure_scan(self, v2_path, monkeypatch):
        """BatchSynthesizer must serve purely from the attached index."""
        import repro.core.batch as batch_module

        _header, _library, search = open_store(v2_path)

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("closure scan on a v2-attached search")

        monkeypatch.setattr(batch_module, "build_remainder_index", boom)
        batch = BatchSynthesizer(search)
        assert batch.cost_bound == 5
        assert batch.synthesize(named.TARGETS["peres"]).cost == 4

    def test_attached_index_matches_scan(self, v2_path, search5):
        _header, _library, loaded = open_store(v2_path)
        _bound, attached = loaded.attached_remainder_index
        scanned = build_remainder_index(search5, 5)
        assert list(attached.keys()) == list(scanned.keys())
        for remainder, (cost, rows) in scanned.items():
            a_cost, a_rows = attached[remainder]
            assert a_cost == cost
            assert [int(r) for r in a_rows] == rows

    def test_lower_bound_filters_attached_index(self, v2_path, search5):
        _header, _library, loaded = open_store(v2_path)
        batch = BatchSynthesizer(loaded, cost_bound=3)
        reference = BatchSynthesizer(search5, cost_bound=3)
        assert len(batch) == len(reference)
        assert batch.cost_table().g_sizes == reference.cost_table().g_sizes
        with pytest.raises(Exception):
            batch.synthesize(named.TARGETS["toffoli"])  # cost 5 > 3

    def test_query_results_equal_live_search(self, v2_path, search5):
        _header, _library, loaded = open_store(v2_path)
        batch = BatchSynthesizer(loaded)
        live = BatchSynthesizer(search5, cost_bound=5)
        for name in ("cnot_ba", "swap_ab", "peres", "toffoli"):
            ours = batch.synthesize_all(named.TARGETS[name])
            theirs = live.synthesize_all(named.TARGETS[name])
            assert [r.circuit.names() for r in ours] == [
                r.circuit.names() for r in theirs
            ]

    def test_levels_readable_without_engine(self, v2_path, search5):
        """level() on a lazy search touches only that level's rows."""
        _header, _library, loaded = open_store(v2_path)
        assert loaded.level(2) == search5.level(2)
        assert loaded.level_size(5) == search5.level_size(5)

    def test_extend_after_lazy_load_matches_fresh(self, v2_path, library3):
        _header, _library, loaded = open_store(v2_path)
        loaded.extend_to(6)
        fresh = CascadeSearch(library3, track_parents=True)
        fresh.extend_to(6)
        assert loaded.stats().level_sizes == fresh.stats().level_sizes
        assert sorted(p for p, _m in loaded.level(6)) == sorted(
            p for p, _m in fresh.level(6)
        )

    def test_was_restored_controls_default_bound(self, library3):
        zero = CascadeSearch(library3, track_parents=True)
        restored = CascadeSearch.from_arrays(library3, zero.export_arrays())
        assert restored.was_restored
        # A deliberately level-0 restored closure must not silently
        # re-expand to the paper's default bound.
        assert BatchSynthesizer(restored).cost_bound == 0
        assert restored.expanded_to == 0


class TestMigration:
    def test_migrate_v1_to_v2(self, v1_path, tmp_path, library3):
        dst = tmp_path / "migrated.rpro"
        old, new = migrate_store(v1_path, dst)
        assert (old.format_version, new.format_version) == (1, 2)
        assert old.library_fingerprint == new.library_fingerprint
        assert old.cost_fingerprint == new.cost_fingerprint
        assert old.level_sizes == new.level_sizes
        assert dst.read_bytes()[:8] == MAGIC_V2

    def test_migrated_store_serves_identical_results(
        self, v1_path, tmp_path, library3
    ):
        dst = tmp_path / "migrated.rpro"
        migrate_store(v1_path, dst)
        from_v1 = BatchSynthesizer(load_search(v1_path, library3))
        from_v2 = BatchSynthesizer(load_search(dst, library3))
        assert from_v1.cost_table().g_sizes == from_v2.cost_table().g_sizes
        for name in ("peres", "toffoli", "swap_bc"):
            a = from_v1.synthesize_all(named.TARGETS[name])
            b = from_v2.synthesize_all(named.TARGETS[name])
            assert [r.circuit.names() for r in a] == [
                r.circuit.names() for r in b
            ]

    def test_migrate_is_idempotent_on_v2(self, v2_path, tmp_path):
        dst = tmp_path / "again.rpro"
        old, new = migrate_store(v2_path, dst)
        assert old.format_version == new.format_version == 2
        assert old.level_sizes == new.level_sizes


class TestCorruption:
    def test_truncated_file_rejected_on_open(self, v2_path, tmp_path):
        clipped = tmp_path / "short.rpro"
        clipped.write_bytes(v2_path.read_bytes()[:-64])
        with pytest.raises(StoreError, match="truncated|bytes"):
            load_search(clipped, open_store(v2_path)[1])

    def test_truncated_bytes_rejected(self, search5, library3):
        data = dump_search(search5)
        with pytest.raises(StoreError):
            loads_search(data[:-10], library3)

    def test_flipped_byte_fails_eager_checksum(self, search5, library3):
        data = bytearray(dump_search(search5))
        data[-3] ^= 0xFF
        with pytest.raises(StoreError, match="sha256"):
            loads_search(bytes(data), library3)

    def test_flipped_byte_fails_verify_store(self, v2_path, tmp_path):
        data = bytearray(v2_path.read_bytes())
        data[-3] ^= 0xFF
        bad = tmp_path / "bad.rpro"
        bad.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="sha256"):
            verify_store(bad)

    def test_verify_store_accepts_both_formats(self, v1_path, v2_path):
        assert verify_store(v1_path).format_version == 1
        assert verify_store(v2_path).format_version == 2

    def test_verify_store_rejects_non_decreasing_parents(
        self, search5, tmp_path
    ):
        """Doctored parents with a recomputed checksum still fail verify."""
        import hashlib
        import json

        data = bytearray(dump_search(search5))
        hlen = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12 : 12 + hlen])
        off, length = header["sections"]["parents"]
        start = 12 + hlen
        parents = np.frombuffer(
            bytes(data[start + off : start + off + length]), dtype="<i4"
        ).copy()
        parents[50] = 40  # rows 19..180 are level 2: same-level parent
        data[start + off : start + off + length] = parents.tobytes()
        header["payload_sha256"] = hashlib.sha256(
            bytes(data[start:])
        ).hexdigest()
        blob = json.dumps(header, separators=(",", ":")).encode()
        blob += b" " * ((-(12 + len(blob))) % 8)
        bad = tmp_path / "bad-parents.rpro"
        bad.write_bytes(
            bytes(data[:8])
            + len(blob).to_bytes(4, "little")
            + blob
            + bytes(data[start:])
        )
        with pytest.raises(StoreError, match="decrease cost"):
            verify_store(bad)

    def test_unknown_magic_version_rejected(self, v2_path, tmp_path):
        data = bytearray(v2_path.read_bytes())
        data[7] = 9
        bad = tmp_path / "future.rpro"
        bad.write_bytes(bytes(data))
        with pytest.raises(StoreVersionError):
            read_header(bad)

    def test_magic_header_version_mismatch_rejected(self, search5, library3):
        data = dump_search(search5)
        doctored = MAGIC_V1 + data[8:]
        with pytest.raises(StoreError):
            loads_search(doctored, library3)

    def test_doctored_section_size_rejected(self, search5, library3):
        import json

        data = dump_search(search5)
        hlen = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12 : 12 + hlen])
        header["sections"]["perms"][1] -= 38
        blob = json.dumps(header, separators=(",", ":")).encode()
        pad = (-(12 + len(blob))) % 8
        blob += b" " * pad
        doctored = (
            MAGIC_V2 + len(blob).to_bytes(4, "little") + blob + data[12 + hlen :]
        )
        with pytest.raises(StoreError, match="section|payload"):
            loads_search(doctored, library3)


class TestParentlessV2:
    def test_counting_only_roundtrip(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(3)
        loaded = loads_search(dump_search(search), library3)
        assert not loaded.tracks_parents
        assert loaded.stats().level_sizes == search.stats().level_sizes
        batch = BatchSynthesizer(loaded)
        assert batch.minimal_cost(named.TARGETS["cnot_ba"]) == 1
        header = read_header_bytes(dump_search(search))
        assert "parents" not in header.sections


def read_header_bytes(data: bytes):
    """Parse a header from in-memory store bytes (test helper)."""
    import json

    from repro.core.store import _header_from_dict

    hlen = int.from_bytes(data[8:12], "little")
    return _header_from_dict(json.loads(data[12 : 12 + hlen]))


class TestMemmapViews:
    def test_arrays_are_views_not_copies(self, v2_path):
        """The loaded arrays must be memmap-backed, not eager copies."""
        import mmap

        _header, _library, search = open_store(v2_path)
        arrays = search.export_arrays()
        base = arrays.perms
        while isinstance(base, np.ndarray) and base.base is not None:
            if isinstance(base, np.memmap):
                break
            base = base.base
        assert isinstance(base, (np.memmap, mmap.mmap))

    def test_row_accessors_against_live(self, v2_path, search5):
        _header, _library, loaded = open_store(v2_path)
        for row in (0, 1, 100, 6561):
            assert loaded.perm_bytes_at(row) == search5.perm_bytes_at(row)
            assert loaded.cost_of_row(row) == search5.cost_of_row(row)
        for row in (5, 500, 20000):
            assert loaded.witness_indices_for_row(
                row
            ) == search5.witness_indices_for_row(row)


class TestStreamedWriter:
    """save_search streams v2 sections; output must be byte-identical
    to the in-memory dump_search serialization."""

    def test_streamed_bytes_equal_dump(self, search5, tmp_path):
        path = tmp_path / "streamed.rpro"
        header = save_search(search5, path)
        assert path.read_bytes() == dump_search(search5)
        assert header.payload_sha256 != "0" * 64
        verify_store(path)

    def test_streamed_counting_only(self, library3, tmp_path):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(3)
        path = tmp_path / "counting.rpro"
        save_search(search, path)
        assert path.read_bytes() == dump_search(search)
        verify_store(path)

    def test_streamed_parallel_kernel_roundtrip(self, library3, tmp_path):
        """A closure built by the pooled engine (jobs=2) streams out with
        its shard layout and serves the same closure."""
        search = CascadeSearch(
            library3, kernel="vector", kernel_options={"jobs": 2}
        )
        search.extend_to(4)
        path = tmp_path / "parallel.rpro"
        written = save_search(search, path)
        assert written.shards["shard_bits"] == 6
        assert sum(written.shards["rows_per_shard"]) == search.total_seen()
        header = read_header(path)
        assert header.shards == written.shards
        verify_store(path)
        _h, _l, loaded = open_store(path)
        assert loaded.stats().level_sizes == search.stats().level_sizes
        search.close()

    def test_vector_store_records_shard_layout(self, v2_path):
        """Every engine-built store records the dedup layout it was
        built with (header provenance only; the payload is unchanged)."""
        shards = read_header(v2_path).shards
        assert shards["shard_bits"] == 6
        assert not shards["spilled"]
        assert sum(shards["rows_per_shard"]) == read_header(v2_path).total_seen

    def test_parallel_kernel_provenance_still_opens(self, v2_path, tmp_path):
        """Stores written when the pooled engine was a separate
        ``parallel`` kernel say so in their header; the field is only
        provenance, so they open, verify and serve as before."""
        import dataclasses

        from repro.core.store import _frame_header, _split

        header, payload = _split(v2_path.read_bytes())
        old = dataclasses.replace(header, kernel="parallel")
        path = tmp_path / "parallel-era.rpro"
        path.write_bytes(_frame_header(old) + bytes(payload))
        assert verify_store(path).kernel == "parallel"
        _h, _l, loaded = open_store(path)
        assert loaded.kernel == "vector"
        assert loaded.stats().level_sizes == read_header(v2_path).level_sizes

    def test_translate_store_has_no_shard_metadata(self, library3, tmp_path):
        search = CascadeSearch(library3, kernel="translate")
        search.extend_to(3)
        path = tmp_path / "translate.rpro"
        save_search(search, path)
        assert read_header(path).shards == {}


class TestIndexVerificationCache:
    """Repeated opens of one unchanged file skip re-hashing the index
    sections; any rewrite (new identity) re-verifies."""

    def test_second_open_skips_index_hashing(
        self, search5, tmp_path, monkeypatch
    ):
        import hashlib as real_hashlib

        import repro.core.store as store_module

        path = tmp_path / "cached.rpro"
        save_search(search5, path)
        store_module._INDEX_VERIFIED.clear()
        calls = []
        real = real_hashlib.sha256

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(store_module.hashlib, "sha256", counting)
        open_store(path)
        first = len(calls)
        open_store(path)
        second = len(calls) - first
        # the four r* section digests are skipped on the second open
        assert first - second == 4

    def test_rewrite_invalidates_cache(self, search5, tmp_path, monkeypatch):
        import repro.core.store as store_module

        path = tmp_path / "rewrite.rpro"
        save_search(search5, path)
        store_module._INDEX_VERIFIED.clear()
        open_store(path)
        assert len(store_module._INDEX_VERIFIED) == 1
        key = next(iter(store_module._INDEX_VERIFIED))
        save_search(search5, path)  # same bytes, new inode/mtime
        open_store(path)
        new_keys = set(store_module._INDEX_VERIFIED) - {key}
        assert new_keys, (
            "rewriting the file must change its identity: the old cache "
            "entry cannot cover the new inode/mtime"
        )
        # a corrupted index section still fails loudly after caching
        data = bytearray(path.read_bytes())
        header = read_header(path)
        rkeys_offset, rkeys_len = header.sections["rkeys"]
        start = len(data) - header.payload_size + rkeys_offset
        data[start] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="sha256"):
            open_store(path)

    def test_cache_is_bounded(self, search5, tmp_path):
        import repro.core.store as store_module

        path = tmp_path / "bound.rpro"
        save_search(search5, path)
        store_module._INDEX_VERIFIED.clear()
        for i in range(store_module._INDEX_VERIFIED_MAX + 8):
            store_module._INDEX_VERIFIED[("fake", i)] = {}
        open_store(path)
        assert (
            len(store_module._INDEX_VERIFIED)
            <= store_module._INDEX_VERIFIED_MAX
        )


def _reframe(data: bytes, payload: bytes, **fields) -> bytes:
    """Re-frame *payload* under *data*'s header with a fresh checksum."""
    import json

    hlen = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + hlen])
    header.update(
        payload_size=len(payload),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        **fields,
    )
    blob = json.dumps(header, separators=(",", ":")).encode()
    return data[:8] + len(blob).to_bytes(4, "little") + blob + payload


class TestLegacyV1:
    """v1 is read-to-migrate only: decoded straight into arrays, with
    every structural check the byte-level restore used to make."""

    def test_legacy_encoder_matches_the_last_v1_writer(self, search5):
        """The test encoder reproduces the bytes the library's own v1
        writer produced for the cost-5 closure before it was removed."""
        payload = _payload(encode_v1(search5))
        assert len(payload) == 1_583_821
        assert hashlib.sha256(payload).hexdigest() == (
            "25478df67ec99c044594eb76a37d534fca766f9bfb34eb1a5efd8fe7838bde81"
        )

    def test_decodes_to_the_live_arrays(self, search5, library3):
        loaded = loads_search(encode_v1(search5), library3)
        ours, live = loaded.export_arrays(), search5.export_arrays()
        for name in ("level_offsets", "perms", "masks", "parents", "gates"):
            np.testing.assert_array_equal(
                getattr(ours, name), getattr(live, name)
            )

    def test_counting_only_store_decodes(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(3)
        loaded = loads_search(encode_v1(search), library3)
        assert not loaded.tracks_parents
        assert loaded.stats().level_sizes == search.stats().level_sizes

    #: Corruption -> the error each one must raise.
    CORRUPTIONS = {
        "identity": "identity singleton",
        "duplicate": "duplicate",
        "parent-order": "does not precede",
        "gate-range": "gate index outside",
        "parent-cost": "decrease cost",
    }

    @pytest.mark.parametrize("edit", sorted(CORRUPTIONS))
    def test_decoder_rejects(self, search5, library3, tmp_path, edit):
        message = self.CORRUPTIONS[edit]
        arrays = search5.export_arrays()
        perms = np.array(arrays.perms)
        parents = np.array(arrays.parents)
        gates = np.array(arrays.gates)
        if edit == "identity":
            perms[0, [0, 1]] = perms[0, [1, 0]]
        elif edit == "duplicate":
            perms[2] = perms[1]
        elif edit == "parent-order":
            parents[5] = 7
        elif edit == "gate-range":
            gates[5] = 99
        else:  # rows 19..180 are level 2: an earlier row, same level
            parents[50] = 40
        data = encode_v1(
            search5,
            dataclasses.replace(
                arrays, perms=perms, parents=parents, gates=gates
            ),
        )
        with pytest.raises(StoreError, match=message):
            loads_search(data, library3)
        path = tmp_path / "bad.rpro"
        path.write_bytes(data)
        with pytest.raises(StoreError, match=message):
            verify_store(path)

    def test_identity_mask_is_checked(self, search5, library3):
        arrays = search5.export_arrays()
        payload = bytearray(encode_v1_payload(arrays))
        payload[arrays.degree] ^= 0x01  # first mask byte of row 0
        data = _reframe(encode_v1(search5), bytes(payload))
        with pytest.raises(StoreError, match="identity singleton"):
            loads_search(data, library3)

    def test_missing_parent_record_rejected(self, search5, library3):
        data = encode_v1(search5)
        data = _reframe(data, _payload(data)[:-6])
        with pytest.raises(StoreError, match="inconsistent"):
            loads_search(data, library3)


class TestFailedSave:
    """A save that fails mid-write removes its temp files and leaves
    the existing store untouched."""

    @pytest.mark.parametrize(
        "version, hook",
        [(2, "rows"), (3, "rows"), (3, "framing")],
    )
    def test_full_disk_leaves_old_store(
        self, search5, library3, tmp_path, monkeypatch, version, hook
    ):
        import repro.core.store as store_module

        path = tmp_path / "closure.rpro"
        save_search(search5, path, format_version=version)
        before = path.read_bytes()

        def full_disk():
            return OSError(errno.ENOSPC, "No space left on device")

        if hook == "rows":
            real = store_module._row_bytes
            calls = []

            def failing(*args):
                calls.append(args)
                if len(calls) == 2:  # after the first section's bytes
                    raise full_disk()
                return real(*args)

            monkeypatch.setattr(store_module, "_row_bytes", failing)
        else:
            def failing(src, dst, length=0):
                dst.write(src.read(4096))
                raise full_disk()

            monkeypatch.setattr(store_module.shutil, "copyfileobj", failing)
        bigger = CascadeSearch(library3, track_parents=True)
        bigger.extend_to(6)
        with pytest.raises(OSError, match="No space"):
            save_search(bigger, path, format_version=version)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["closure.rpro"]
        assert path.read_bytes() == before
        _header, _library, loaded = open_store(path)
        assert loaded.stats().level_sizes == search5.stats().level_sizes
