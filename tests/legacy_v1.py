"""Test-side encoder for the legacy v1 closure-store format.

The library reads v1 stores (to migrate them) but no longer writes
them.  This module rebuilds v1 bytes from a search's arrays
(:meth:`~repro.core.search.CascadeSearch.export_arrays`) so tests, CI
and benchmarks can still produce legacy inputs.  It is deliberately
independent of the library's v1 decoder, which makes it a cross-check
of that decoder.

v1 layout: the shared framing (``b"RPROCLS\\x01"``, u32 header length,
compact JSON header) followed by one record per row in level-major
discovery order -- ``degree`` image bytes plus ``ceil(degree / 8)``
little-endian S-image mask bytes -- then, when parents are tracked,
one ``(u32 parent row, u16 gate index)`` record per non-identity row.

Run as a script to write a legacy store for the paper's library::

    PYTHONPATH=src python tests/legacy_v1.py legacy.rpro --cost-bound 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.search import CascadeSearch
from repro.core.store import (
    MAGIC_V1,
    StoreHeader,
    _header_dict,
    _library_kinds,
    _writer_tag,
    cost_model_fingerprint,
    library_fingerprint,
)
from repro.gates.library import GateLibrary

_PARENT_RECORD = np.dtype([("parent", "<u4"), ("gate", "<u2")])


def encode_v1_payload(arrays) -> bytes:
    """The v1 payload bytes of a :class:`SearchArrays` snapshot."""
    n, degree = arrays.n_rows, arrays.degree
    mask_bytes = (degree + 7) // 8
    records = np.empty((n, degree + mask_bytes), dtype=np.uint8)
    records[:, :degree] = arrays.perms
    mask_words = np.ascontiguousarray(arrays.masks, dtype="<u8")
    records[:, degree:] = mask_words.view(np.uint8).reshape(n, -1)[
        :, :mask_bytes
    ]
    payload = records.tobytes()
    if arrays.parents is not None:
        links = np.empty(n - 1, dtype=_PARENT_RECORD)
        links["parent"] = arrays.parents[1:]
        links["gate"] = arrays.gates[1:]
        payload += links.tobytes()
    return payload


def encode_v1(search: CascadeSearch, arrays=None) -> bytes:
    """A complete v1 store (framing, header, payload) for *search*.

    *arrays* overrides the rows written (default: the search's own
    :meth:`export_arrays`) -- tests use it to craft corrupt stores
    whose header and checksum are still consistent.
    """
    if arrays is None:
        arrays = search.export_arrays()
    payload = encode_v1_payload(arrays)
    library = search.library
    header = StoreHeader(
        format_version=1,
        library_fingerprint=library_fingerprint(library),
        cost_fingerprint=cost_model_fingerprint(search.cost_model),
        n_qubits=library.n_qubits,
        degree=arrays.degree,
        n_binary=arrays.n_binary,
        mask_bytes=(arrays.degree + 7) // 8,
        space_reduced=library.space.reduced,
        space_ordering=library.space.ordering,
        gate_kinds=_library_kinds(library),
        cost_model=search.cost_model,
        expanded_to=arrays.expanded_to,
        level_sizes=arrays.level_sizes,
        track_parents=arrays.parents is not None,
        elapsed_seconds=arrays.elapsed_seconds,
        payload_size=len(payload),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        kernel="vector",
        writer=_writer_tag(),
        radix=library.space.radix,
        library_family=library.family,
    )
    blob = json.dumps(_header_dict(header), separators=(",", ":")).encode()
    return MAGIC_V1 + len(blob).to_bytes(4, "little") + blob + payload


def write_v1(search: CascadeSearch, path: str | Path) -> Path:
    """Write *search* as a v1 store file; returns the path."""
    path = Path(path)
    path.write_bytes(encode_v1(search))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="write a legacy v1 closure store for the paper's "
        "gate library (migration test input)"
    )
    parser.add_argument("path", help="store file to write")
    parser.add_argument("--cost-bound", type=int, default=5)
    parser.add_argument("--qubits", type=int, default=3)
    args = parser.parse_args(argv)
    search = CascadeSearch(GateLibrary(args.qubits))
    search.extend_to(args.cost_bound)
    path = write_v1(search, args.path)
    print(f"wrote {path} (format 1, cost bound {args.cost_bound})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
