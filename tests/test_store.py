"""Unit tests for the persistent closure store (repro.core.store)."""

import json

import pytest

from repro.errors import SpecificationError, StoreError, StoreMismatchError
from repro.core.batch import BatchSynthesizer
from repro.core.cost import CostModel
from repro.core.search import CascadeSearch
from repro.core.store import (
    FORMAT_VERSION,
    MAGIC,
    cost_model_fingerprint,
    dump_search,
    library_fingerprint,
    load_search,
    loads_search,
    open_store,
    read_header,
    save_search,
)
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary


@pytest.fixture(scope="module")
def small_search(library3):
    search = CascadeSearch(library3, track_parents=True)
    search.extend_to(3)
    return search


@pytest.fixture(scope="module")
def store_bytes(small_search):
    return dump_search(small_search)


class TestFingerprints:
    def test_equal_libraries_fingerprint_equal(self, library3):
        assert library_fingerprint(library3) == library_fingerprint(
            GateLibrary(3)
        )

    def test_different_width_differs(self, library3):
        assert library_fingerprint(library3) != library_fingerprint(
            GateLibrary(2)
        )

    def test_different_kinds_differ(self, library3):
        trimmed = GateLibrary(3, kinds=(GateKind.V, GateKind.VDAG))
        assert library_fingerprint(library3) != library_fingerprint(trimmed)

    def test_cost_models_fingerprint_by_value(self):
        assert cost_model_fingerprint(CostModel()) == cost_model_fingerprint(
            CostModel.unit()
        )
        assert cost_model_fingerprint(CostModel()) != cost_model_fingerprint(
            CostModel(cnot_cost=2)
        )


class TestRoundtrip:
    def test_levels_and_seen_survive(self, small_search, store_bytes, library3):
        loaded = loads_search(store_bytes, library3)
        assert loaded.expanded_to == small_search.expanded_to
        assert loaded.stats().level_sizes == small_search.stats().level_sizes
        assert loaded.total_seen() == small_search.total_seen()
        for cost in range(4):
            assert loaded.level(cost) == small_search.level(cost)

    def test_witnesses_survive(self, small_search, store_bytes, library3):
        loaded = loads_search(store_bytes, library3)
        for perm, _mask in small_search.level(3):
            assert loaded.witness_indices(perm) == small_search.witness_indices(
                perm
            )

    def test_loaded_search_extends_identically(self, store_bytes, library3):
        loaded = loads_search(store_bytes, library3)
        fresh = CascadeSearch(library3, track_parents=True)
        loaded.extend_to(4)
        fresh.extend_to(4)
        assert loaded.stats().level_sizes == fresh.stats().level_sizes
        assert sorted(p for p, _m in loaded.level(4)) == sorted(
            p for p, _m in fresh.level(4)
        )

    def test_file_roundtrip(self, small_search, library3, tmp_path):
        path = tmp_path / "closure.rpro"
        header = save_search(small_search, path)
        assert header.expanded_to == 3
        assert header.total_seen == small_search.total_seen()
        loaded = load_search(path, library3)
        assert loaded.stats().level_sizes == small_search.stats().level_sizes

    def test_parentless_roundtrip(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(2)
        loaded = loads_search(dump_search(search), library3)
        assert not loaded.tracks_parents
        assert loaded.stats().level_sizes == search.stats().level_sizes

    def test_nonunit_cost_model_roundtrip(self, library3):
        model = CostModel(v_cost=1, vdag_cost=1, cnot_cost=2)
        search = CascadeSearch(library3, model, track_parents=True)
        search.extend_to(3)
        loaded = loads_search(dump_search(search), library3, model)
        assert loaded.stats().level_sizes == search.stats().level_sizes
        # Level 1 holds only the cost-1 V/V+ gates under cnot_cost=2.
        assert loaded.level_size(1) == 12


class TestHeader:
    def test_read_header_fields(self, small_search, tmp_path, library3):
        path = tmp_path / "closure.rpro"
        save_search(small_search, path)
        header = read_header(path)
        assert header.format_version == FORMAT_VERSION
        assert header.n_qubits == 3
        assert header.degree == 38
        assert header.level_sizes == (1, 18, 162, 1017)
        assert header.track_parents
        assert header.library_fingerprint == library_fingerprint(library3)

    def test_open_store_is_self_describing(self, small_search, tmp_path):
        path = tmp_path / "closure.rpro"
        save_search(small_search, path)
        header, library, search = open_store(path)
        assert library.n_qubits == 3 and len(library) == 18
        assert search.expanded_to == 3
        assert header.total_seen == search.total_seen()


class TestRefusals:
    def test_wrong_library_is_refused(self, store_bytes):
        with pytest.raises(StoreMismatchError):
            loads_search(store_bytes, GateLibrary(2))

    def test_trimmed_library_is_refused(self, store_bytes):
        trimmed = GateLibrary(3, kinds=(GateKind.V, GateKind.VDAG))
        with pytest.raises(StoreMismatchError):
            loads_search(store_bytes, trimmed)

    def test_wrong_cost_model_is_refused(self, store_bytes, library3):
        with pytest.raises(StoreMismatchError):
            loads_search(store_bytes, library3, CostModel(v_cost=3))

    def test_parentless_store_refuses_witness_queries(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        search.extend_to(2)
        loaded = loads_search(dump_search(search), library3)
        batch = BatchSynthesizer(loaded, cost_bound=2)
        from repro.gates import named

        assert batch.minimal_cost(named.TARGETS["cnot_ba"]) == 1
        with pytest.raises(SpecificationError):
            batch.synthesize(named.TARGETS["cnot_ba"])


class TestCorruption:
    def test_bad_magic(self, store_bytes, library3):
        with pytest.raises(StoreError):
            loads_search(b"NOTASTORE" + store_bytes, library3)

    def test_truncated_payload(self, store_bytes, library3):
        with pytest.raises(StoreError):
            loads_search(store_bytes[:-10], library3)

    def test_flipped_payload_byte_fails_checksum(self, store_bytes, library3):
        corrupt = bytearray(store_bytes)
        corrupt[-1] ^= 0xFF
        with pytest.raises(StoreError, match="sha256"):
            loads_search(bytes(corrupt), library3)

    def test_unsupported_format_version(self, store_bytes, library3):
        header_len = int.from_bytes(
            store_bytes[len(MAGIC) : len(MAGIC) + 4], "little"
        )
        start = len(MAGIC) + 4
        header = json.loads(store_bytes[start : start + header_len])
        header["format"] = FORMAT_VERSION + 1
        blob = json.dumps(header, separators=(",", ":")).encode()
        doctored = (
            MAGIC
            + len(blob).to_bytes(4, "little")
            + blob
            + store_bytes[start + header_len :]
        )
        with pytest.raises(StoreError, match="format"):
            loads_search(doctored, library3)

    def test_header_not_json(self, library3):
        data = MAGIC + (4).to_bytes(4, "little") + b"\xff\xff\xff\xff"
        with pytest.raises(StoreError):
            loads_search(data, library3)

    def test_read_header_on_non_store_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world, definitely not a store")
        with pytest.raises(StoreError):
            read_header(path)

    @pytest.mark.parametrize("opener", ["loads_search", "open_store"])
    @pytest.mark.parametrize("format_version, fault, message", [
        (2, "missing", "missing its 'masks' section"),
        (2, "raw-length", r"section 'perms' is \d+ bytes, expected \d+"),
        (2, "outside", "section 'rkeys' lies outside the payload"),
        (3, "missing", "missing its 'masks' section"),
        (3, "raw-length", r"chunk 'perms'\[0\] decodes to \d+ bytes"),
        (3, "outside", r"chunk 'rkeys'\[0\] lies outside the payload"),
        (3, "chunk-count", r"section 'perms' has \d+ chunks, expected \d+"),
    ])
    def test_layout_check(
        self, small_search, library3, tmp_path, opener, format_version,
        fault, message,
    ):
        """Both formats and both open paths refuse a doctored span table
        with the layout check's message."""
        data = dump_search(small_search, format_version)
        start = 12 + int.from_bytes(data[8:12], "little")
        header = json.loads(data[12:start])
        payload = data[start:]
        table = header.get("sections") or header["chunks"]

        def first(name):  # v2 [offset, length]; v3 [offset, stored, raw]
            return table[name] if format_version == 2 else table[name][0]

        if fault == "missing":
            del table["masks"]
        elif fault == "raw-length":
            first("perms")[-1] += header["degree"]
        elif fault == "outside":
            first("rkeys")[0] = len(payload) + 8
        else:
            table["perms"].pop()
        blob = json.dumps(header, separators=(",", ":")).encode()
        blob += b" " * ((-(12 + len(blob))) % 8)
        doctored = data[:8] + len(blob).to_bytes(4, "little") + blob + payload
        with pytest.raises(StoreError, match=message):
            if opener == "loads_search":
                loads_search(doctored, library3)
            else:
                path = tmp_path / "doctored.rpro"
                path.write_bytes(doctored)
                open_store(path)

    def test_digest_of_unknown_index_section_is_refused(
        self, store_bytes, library3
    ):
        import dataclasses

        from repro.core.store import _frame_header, _split

        header, payload = _split(store_bytes)
        digests = dict(header.index_sha256, extra="0" * 64)
        doctored = dataclasses.replace(header, index_sha256=digests)
        with pytest.raises(StoreError, match="'extra' fails its sha256"):
            loads_search(_frame_header(doctored) + bytes(payload), library3)
