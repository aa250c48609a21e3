"""Unit tests for store format v3: compressed chunked sections.

Complements tests/test_store_v2.py: this module pins the v3-specific
guarantees -- byte transparency against the v2 layout (decompressed
chunk concatenation is exactly the v2 section bytes, so every golden
table holds on both formats), decompress-on-touch through the
process-wide section cache, codec gating (zstd when available, zlib
fallback, forced by REPRO_NO_ZSTD=1), migration equivalence in both
directions, and rejection of corrupted chunks.  The concurrent-replace
regression test for ``_map_store`` lives here too: v2 and v3 share the
single-handle open path it pins.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import StoreError
from repro.core.batch import BatchSynthesizer
from repro.core.search import CascadeSearch
from repro.core.store import (
    MAGIC_V2,
    MAGIC_V3,
    dump_search,
    load_search,
    loads_search,
    migrate_store,
    open_store,
    read_header,
    resolve_codec,
    save_search,
    section_cache_stats,
    verify_store,
)
from repro.gates import named


@pytest.fixture(scope="module")
def search5(library3):
    search = CascadeSearch(library3, track_parents=True)
    search.extend_to(5)
    return search


@pytest.fixture(scope="module")
def v2_bytes(search5):
    return dump_search(search5, format_version=2)


@pytest.fixture(scope="module")
def v3_bytes(search5):
    return dump_search(search5, format_version=3)


@pytest.fixture(scope="module")
def v3_path(search5, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "closure_v3.rpro"
    save_search(search5, path, format_version=3)
    return path


def parse_header(data: bytes) -> dict:
    hlen = int.from_bytes(data[8:12], "little")
    return json.loads(data[12 : 12 + hlen])


class TestFormatFraming:
    def test_v3_magic_and_header(self, v3_bytes):
        assert v3_bytes[:8] == MAGIC_V3
        header = parse_header(v3_bytes)
        assert header["format"] == 3
        assert header["codec"] in ("zstd", "zlib", "raw")
        assert "sections" not in header
        for name in ("perms", "masks", "parents", "gates",
                     "rkeys", "rcosts", "rindptr", "rmatches"):
            assert name in header["chunks"]

    def test_row_sections_chunk_per_level(self, v3_bytes, search5):
        header = parse_header(v3_bytes)
        levels = search5.expanded_to + 1
        for name in ("perms", "masks", "parents", "gates"):
            assert len(header["chunks"][name]) == levels
        for name in ("rkeys", "rcosts", "rindptr", "rmatches"):
            assert len(header["chunks"][name]) == 1

    def test_chunks_are_aligned(self, v3_bytes):
        for spans in parse_header(v3_bytes)["chunks"].values():
            for offset, _stored, _raw in spans:
                assert offset % 8 == 0

    def test_compresses_below_half_of_v2(self, v2_bytes, v3_bytes):
        # The ISSUE's acceptance bar: v3 <= 0.5x the v2 file size.
        assert len(v3_bytes) <= len(v2_bytes) / 2

    def test_byte_transparency_against_v2(self, v2_bytes, v3_bytes):
        """Decompressed chunk concatenation == the v2 section bytes."""
        from repro.core.store import _codec_fns

        v2_header = parse_header(v2_bytes)
        v3_header = parse_header(v3_bytes)
        _, decompress = _codec_fns(v3_header["codec"])
        v2_start = 12 + int.from_bytes(v2_bytes[8:12], "little")
        v3_start = 12 + int.from_bytes(v3_bytes[8:12], "little")
        for name, (offset, length) in v2_header["sections"].items():
            v2_section = v2_bytes[v2_start + offset : v2_start + offset + length]
            raw = b"".join(
                decompress(v3_bytes[v3_start + off : v3_start + off + stored])
                if stored else b""
                for off, stored, _rlen in v3_header["chunks"][name]
            )
            assert raw == v2_section, f"section {name!r} not transparent"

    def test_index_digests_match_v2(self, v2_bytes, v3_bytes):
        """index_sha256 covers RAW bytes: same digests as the v2 store."""
        assert (
            parse_header(v3_bytes)["index_sha256"]
            == parse_header(v2_bytes)["index_sha256"]
        )

    def test_atomic_save_leaves_no_temp_files(self, search5, tmp_path):
        path = tmp_path / "closure.rpro"
        save_search(search5, path, format_version=3)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_streamed_bytes_equal_dump(self, search5, v3_bytes, tmp_path):
        path = tmp_path / "streamed.rpro"
        header = save_search(search5, path, format_version=3)
        assert path.read_bytes() == v3_bytes
        assert header.payload_sha256 != "0" * 64
        verify_store(path)


class TestCodecs:
    def test_resolve_codec_auto_prefers_zstd(self):
        from repro.core.store import _zstd_module

        expected = "zstd" if _zstd_module() is not None else "zlib"
        assert resolve_codec(None) == expected
        assert resolve_codec("auto") == expected

    def test_no_zstd_env_forces_zlib(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_ZSTD", "1")
        assert resolve_codec(None) == "zlib"
        with pytest.raises(StoreError, match="zlib"):
            resolve_codec("zstd")

    def test_unknown_codec_rejected(self):
        with pytest.raises(StoreError):
            resolve_codec("lzma")

    def test_raw_codec_roundtrip(self, search5, library3):
        data = dump_search(search5, format_version=3, codec="raw")
        assert parse_header(data)["codec"] == "raw"
        loaded = loads_search(data, library3)
        assert loaded.stats().level_sizes == search5.stats().level_sizes

    def test_zlib_store_opens_regardless_of_zstd(
        self, search5, library3, monkeypatch
    ):
        """A zlib-written store must open even where zstd exists."""
        monkeypatch.setenv("REPRO_NO_ZSTD", "1")
        data = dump_search(search5, format_version=3)
        monkeypatch.delenv("REPRO_NO_ZSTD")
        assert parse_header(data)["codec"] == "zlib"
        batch = BatchSynthesizer(loads_search(data, library3))
        assert batch.synthesize(named.TARGETS["peres"]).cost == 4


class TestLazyOpen:
    def test_open_attaches_serialized_index(self, v3_path):
        header, _library, search = open_store(v3_path)
        assert header.format_version == 3
        attached = search.attached_remainder_index
        assert attached is not None and attached[0] == 5

    def test_query_results_equal_live_search(self, v3_path, search5):
        _header, _library, loaded = open_store(v3_path)
        batch = BatchSynthesizer(loaded)
        live = BatchSynthesizer(search5, cost_bound=5)
        for name in ("cnot_ba", "swap_ab", "peres", "toffoli"):
            ours = batch.synthesize_all(named.TARGETS[name])
            theirs = live.synthesize_all(named.TARGETS[name])
            assert [r.circuit.names() for r in ours] == [
                r.circuit.names() for r in theirs
            ]

    def test_results_identical_across_v2_and_v3(self, search5, library3):
        """The byte-transparency pin, observed end to end."""
        from_v2 = BatchSynthesizer(
            loads_search(dump_search(search5, format_version=2), library3)
        )
        from_v3 = BatchSynthesizer(
            loads_search(dump_search(search5, format_version=3), library3)
        )
        assert from_v2.cost_table().g_sizes == from_v3.cost_table().g_sizes
        for name in ("peres", "toffoli", "cnot_ba", "swap_bc"):
            a = from_v2.synthesize_all(named.TARGETS[name])
            b = from_v3.synthesize_all(named.TARGETS[name])
            assert [r.circuit.names() for r in a] == [
                r.circuit.names() for r in b
            ]

    def test_row_accessors_against_live(self, v3_path, search5):
        _header, _library, loaded = open_store(v3_path)
        for row in (0, 1, 100, 6561):
            assert loaded.perm_bytes_at(row) == search5.perm_bytes_at(row)
            assert loaded.cost_of_row(row) == search5.cost_of_row(row)
        for row in (5, 500, 20000):
            assert loaded.witness_indices_for_row(
                row
            ) == search5.witness_indices_for_row(row)

    def test_levels_readable(self, v3_path, search5):
        _header, _library, loaded = open_store(v3_path)
        assert loaded.level(2) == search5.level(2)
        assert loaded.level_size(5) == search5.level_size(5)

    def test_lazy_arrays_duck_type(self, v3_path, search5):
        _header, _library, loaded = open_store(v3_path)
        arrays = loaded.export_arrays()
        live = search5.export_arrays()
        assert arrays.perms.shape == live.perms.shape
        assert arrays.perms.dtype == live.perms.dtype
        assert len(arrays.parents) == len(live.parents)
        assert arrays.perms[0].tobytes() == live.perms[0].tobytes()
        assert arrays.perms[-1].tobytes() == live.perms[-1].tobytes()
        assert np.array_equal(
            np.asarray(arrays.perms[19:181]), np.asarray(live.perms[19:181])
        )
        # cross-level slice (levels 1+2) concatenates chunks
        assert np.array_equal(
            np.asarray(arrays.masks[1:181]), np.asarray(live.masks[1:181])
        )
        assert np.array_equal(np.asarray(arrays.gates), np.asarray(live.gates))

    def test_extend_after_lazy_load_matches_fresh(self, v3_path, library3):
        _header, _library, loaded = open_store(v3_path)
        loaded.extend_to(6)
        fresh = CascadeSearch(library3, track_parents=True)
        fresh.extend_to(6)
        assert loaded.stats().level_sizes == fresh.stats().level_sizes

    def test_counting_only_roundtrip(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(3)
        data = dump_search(search, format_version=3)
        assert "parents" not in parse_header(data)["chunks"]
        loaded = loads_search(data, library3)
        assert not loaded.tracks_parents
        batch = BatchSynthesizer(loaded)
        assert batch.minimal_cost(named.TARGETS["cnot_ba"]) == 1


class TestSectionCache:
    def test_touch_populates_cache_and_rereads_hit(self, v3_path):
        import repro.core.store as store_module

        store_module._SECTION_CACHE.clear()
        _header, _library, loaded = open_store(v3_path)
        before = section_cache_stats()
        loaded.perm_bytes_at(100)
        mid = section_cache_stats()
        assert mid["misses"] > before["misses"]
        assert mid["entries"] > before["entries"]
        loaded.perm_bytes_at(101)  # same level, same chunk
        after = section_cache_stats()
        assert after["hits"] > mid["hits"]
        assert after["bytes"] <= after["max_bytes"]

    def test_cache_is_keyed_by_file_identity(self, search5, tmp_path):
        """A replaced file's chunks never alias the old file's."""
        import repro.core.store as store_module

        path = tmp_path / "swap.rpro"
        save_search(search5, path, format_version=3)
        store_module._SECTION_CACHE.clear()
        _h, _l, first = open_store(path)
        assert first.perm_bytes_at(100) == search5.perm_bytes_at(100)
        entries_first = section_cache_stats()["entries"]
        save_search(search5, path, format_version=3)  # new inode
        _h, _l, second = open_store(path)
        assert second.perm_bytes_at(100) == search5.perm_bytes_at(100)
        assert section_cache_stats()["entries"] > entries_first


class TestMigration:
    def test_migrate_v2_to_v3_matches_direct_write(
        self, search5, v3_bytes, tmp_path
    ):
        src = tmp_path / "src.rpro"
        dst = tmp_path / "dst.rpro"
        save_search(search5, src, format_version=2)
        old, new = migrate_store(src, dst, format_version=3)
        assert (old.format_version, new.format_version) == (2, 3)
        assert dst.read_bytes() == v3_bytes

    def test_migrate_v3_to_v2_matches_direct_write(
        self, search5, v3_path, v2_bytes, tmp_path
    ):
        dst = tmp_path / "back.rpro"
        old, new = migrate_store(v3_path, dst, format_version=2)
        assert (old.format_version, new.format_version) == (3, 2)
        assert dst.read_bytes() == v2_bytes

    def test_migrated_store_serves_identical_results(
        self, v3_path, tmp_path, library3
    ):
        dst = tmp_path / "migrated.rpro"
        migrate_store(v3_path, dst, format_version=2)
        from_v3 = BatchSynthesizer(load_search(v3_path, library3))
        from_v2 = BatchSynthesizer(load_search(dst, library3))
        assert from_v3.cost_table().g_sizes == from_v2.cost_table().g_sizes
        for name in ("peres", "toffoli", "swap_bc"):
            a = from_v3.synthesize_all(named.TARGETS[name])
            b = from_v2.synthesize_all(named.TARGETS[name])
            assert [r.circuit.names() for r in a] == [
                r.circuit.names() for r in b
            ]

    def test_verify_store_accepts_v3(self, v3_path):
        assert verify_store(v3_path).format_version == 3


class TestCorruption:
    @staticmethod
    def _doctor(v3_bytes, mutate):
        """Re-frame *v3_bytes* after *mutate*(header_dict, payload)."""
        import hashlib

        hlen = int.from_bytes(v3_bytes[8:12], "little")
        header = json.loads(v3_bytes[12 : 12 + hlen])
        payload = bytearray(v3_bytes[12 + hlen :])
        mutate(header, payload)
        header["payload_sha256"] = hashlib.sha256(bytes(payload)).hexdigest()
        blob = json.dumps(header, separators=(",", ":")).encode()
        blob += b" " * ((-(12 + len(blob))) % 8)
        return (
            MAGIC_V3 + len(blob).to_bytes(4, "little") + blob + bytes(payload)
        )

    def test_truncated_rejected(self, v3_bytes, library3):
        with pytest.raises(StoreError):
            loads_search(v3_bytes[:-10], library3)

    def test_flipped_byte_fails_checksum(self, v3_bytes, library3):
        data = bytearray(v3_bytes)
        data[-3] ^= 0xFF
        with pytest.raises(StoreError, match="sha256"):
            loads_search(bytes(data), library3)

    def test_flipped_chunk_byte_fails_verify(self, v3_path, tmp_path):
        data = bytearray(v3_path.read_bytes())
        data[-3] ^= 0xFF
        bad = tmp_path / "bad.rpro"
        bad.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="sha256"):
            verify_store(bad)

    def test_unknown_codec_in_header_rejected(self, v3_bytes, library3):
        def mutate(header, payload):
            header["codec"] = "lzma"

        with pytest.raises(StoreError, match="codec"):
            loads_search(self._doctor(v3_bytes, mutate), library3)

    def test_doctored_raw_length_rejected(self, v3_bytes, library3):
        def mutate(header, payload):
            spans = header["chunks"]["perms"]
            spans[0][2] += 38  # claim a different decompressed size

        with pytest.raises(StoreError):
            loads_search(self._doctor(v3_bytes, mutate), library3)

    def test_garbage_chunk_bytes_fail_on_touch(self, v3_bytes, library3):
        """Undecompressable chunk bytes raise a StoreError, not a
        bare codec exception, when the lazy array is first touched."""

        def mutate(header, payload):
            off, stored, _rlen = header["chunks"]["perms"][2]
            payload[off : off + stored] = bytes(stored)  # zeros

        doctored = self._doctor(v3_bytes, mutate)
        loaded = loads_search(doctored, library3)
        with pytest.raises(StoreError):
            loaded.perm_bytes_at(100)  # row 100 is level 2

    def test_chunk_span_outside_payload_rejected(self, v3_bytes, library3):
        def mutate(header, payload):
            header["chunks"]["rkeys"][0][0] = len(payload) + 8

        with pytest.raises(StoreError):
            loads_search(self._doctor(v3_bytes, mutate), library3)


class TestReplaceRace:
    """The _map_store bugfix: a store swapped between header read and
    payload map must be detected, not served half-old half-new."""

    def test_replace_between_header_and_map_detected(
        self, search5, tmp_path
    ):
        from repro.core.store import _map_store, _read_header

        path = tmp_path / "racy.rpro"
        save_search(search5, path, format_version=2)
        header, identity = _read_header(path)
        # A concurrent save (SIGHUP reload) atomically replaces the file
        # in the window between the header read and the payload map.
        other = tmp_path / "other.rpro"
        save_search(search5, other, format_version=2)
        os.replace(other, path)
        with pytest.raises(StoreError, match="replaced"):
            _map_store(path, header, expected_identity=identity)

    def test_replace_race_detected_for_v3(self, search5, tmp_path):
        from repro.core.store import _map_store, _read_header

        path = tmp_path / "racy3.rpro"
        save_search(search5, path, format_version=3)
        header, identity = _read_header(path)
        other = tmp_path / "other3.rpro"
        save_search(search5, other, format_version=3)
        os.replace(other, path)
        with pytest.raises(StoreError, match="replaced"):
            _map_store(path, header, expected_identity=identity)

    def test_unreplaced_open_is_unaffected(self, search5, tmp_path):
        from repro.core.store import _map_store, _read_header

        path = tmp_path / "calm.rpro"
        save_search(search5, path, format_version=2)
        header, identity = _read_header(path)
        payload = _map_store(path, header, expected_identity=identity)
        assert len(payload) == header.payload_size
