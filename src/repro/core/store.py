"""Persistent closure store: save an expanded search once, query forever.

The cost-bounded cascade closure for a fixed (library, cost model) pair
is a pure artifact: it never changes, and every MCE/FMCF query is a
lookup against it.  This module serializes a :class:`CascadeSearch`
snapshot to a versioned binary format so the closure is computed once
(``repro precompute``) and any number of synthesis queries are answered
against the stored artifact (``repro synth --store``) without re-running
the BFS.

Framing shared by all formats::

    magic   8 bytes   b"RPROCLS" + format byte (\\x01, \\x02 or \\x03)
    hlen    4 bytes   little-endian header length
    header  hlen      JSON metadata (see :class:`StoreHeader`)
    payload           format-specific binary sections

**Format v2 (current)** is laid out for ``np.memmap``: the header is
space-padded so the payload starts 8-byte aligned, and the payload is a
sequence of 8-aligned sections whose offsets are recorded in the header
(``sections``)::

    perms     n_rows * degree        uint8   image arrays, level-major
                                             discovery order (a row
                                             index is the permutation's
                                             global index; level k spans
                                             rows level_row_offsets[k]
                                             .. level_row_offsets[k+1])
    masks     n_rows * mask_words    uint64  S-image bitmasks
    parents   n_rows                 int32   parent global row (row 0 =
                                             -1); only when parents are
                                             tracked
    gates     n_rows                 int32   appended library gate index
                                             (row 0 = -1); with parents
    rkeys     entries * n_binary     uint8   remainder index keys
    rcosts    entries                int32   minimal cost per remainder
    rindptr   entries + 1            int64   CSR row pointers into
                                             rmatches
    rmatches  total matches          int32   global rows of the minimal-
                                             cost cascades per remainder

Opening a v2 file maps it read-only and touches **only the bytes a
query needs** -- O(levels touched) instead of O(closure).  The embedded
remainder index means :class:`~repro.core.batch.BatchSynthesizer`
construction does no closure scan at all: store open plus first query is
milliseconds against a full decode plus index scan for a v1 eager load
(``benchmarks/bench_store.py`` tracks this).

v2 section/offset format (normative)
------------------------------------

This is the reference specification of the on-disk layout; readers in
other languages (or future sharded writers) must honour every rule, and
``tests/test_store_v2.py`` pins them.

* **Framing.**  Byte 0..6 are ``b"RPROCLS"``, byte 7 is the format
  number (``0x02``).  Bytes 8..11 are the header length ``hlen``
  (little-endian uint32).  Bytes 12..12+hlen are the UTF-8 JSON header,
  right-padded with ASCII spaces so that ``12 + hlen`` -- the payload
  start -- is a multiple of 8.  Everything after is the payload.
* **Alignment.**  Every section starts at a payload offset that is a
  multiple of 8 (zero-padding between sections), so memory-mapped
  uint64/int64 views are always aligned.
* **Section table.**  ``header["sections"]`` maps section name to
  ``[offset, length]`` *within the payload*.  Order on disk is
  ``perms, masks, parents, gates, rkeys, rcosts, rindptr, rmatches``
  (``parents``/``gates`` present iff ``track_parents``); lengths are
  fully determined by the row/entry counts (validated on open).  All
  multi-byte values in every section are little-endian.
* **Row addressing.**  A *global row* is a permutation's index in
  level-major discovery order.  ``header["level_row_offsets"]`` has
  ``expanded_to + 2`` entries, starts at 0, and level ``k`` spans rows
  ``offsets[k] .. offsets[k+1]``; row 0 is the identity.  ``parents``
  holds each row's parent global row (int32, row 0 = -1), ``gates``
  the appended library gate index (int32, row 0 = -1); parents point
  strictly to earlier levels.
* **Remainder index (CSR).**  ``rkeys`` holds ``index_entries`` keys of
  ``n_binary`` uint8 image bytes each (the NOT-free reversible
  functions, i.e. cascade restrictions to S); ``rcosts[e]`` is entry
  *e*'s minimal cost; its minimal-cost witness rows are
  ``rmatches[rindptr[e] : rindptr[e+1]]`` (int32 global rows, in
  discovery order).  ``rindptr`` has ``index_entries + 1`` int64
  entries starting at 0.
* **Integrity.**  ``payload_sha256`` covers the whole payload (checked
  by eager loads and ``verify_store``; not by the lazy mapped open).
  ``index_sha256`` holds per-section digests of the four ``r*``
  sections, which are read eagerly and therefore verified even on the
  lazy path.
* **Replacement, not mutation.**  Files are written atomically (temp
  file + ``os.replace``) and must only ever be *replaced* the same
  way: live readers hold memory maps of the old inode, and truncating
  or rewriting a store in place would turn their page faults into
  ``SIGBUS``.  The ``repro serve`` SIGHUP reload relies on this: the
  old map stays valid until the last in-flight query drops it.

**Format v3 (compressed, opt-in)** keeps the v2 header and data model
but stores the payload as per-level, per-array *chunks*, each
independently compressed (``zstd`` when available, stdlib ``zlib``
otherwise, or ``raw``):

* ``header["chunks"]`` maps each section name to a list of ``(offset,
  stored_length, raw_length)`` spans within the payload -- one span per
  level for ``perms``/``masks``/``parents``/``gates`` (level ``k``'s
  chunk holds exactly rows ``level_row_offsets[k] ..
  level_row_offsets[k+1]``), a single span for each ``r*`` index
  section; ``header["codec"]`` names the codec.  Chunk starts are
  8-aligned; ``sections`` is absent.
* **Byte transparency.**  The decompressed bytes of every chunk are
  pinned identical to the corresponding v2 section span -- concatenating
  a section's inflated chunks reproduces the v2 section byte for byte,
  and ``index_sha256`` digests those *raw* bytes (the same values the
  v2 writer records).  A v3 store therefore serves byte-identical
  query results, and the golden tables hold on both formats.
* **Decompress on touch.**  Opening maps the compressed payload
  (pinning the inode exactly like v2) and inflates single chunks as
  queries touch them, through a small process-wide LRU
  (:func:`section_cache_stats`; ``REPRO_SECTION_CACHE_MB`` sizes it).
  Open plus first query stays O(chunks touched) at any closure size,
  which is what lets a served store exceed RAM.
* ``payload_sha256`` covers the stored (compressed) payload bytes.

**Format v1 (legacy; read and migrate only)** packs per-row records
(image bytes + S-image mask bytes) level by level, then one ``(u32
parent row, u16 gate)`` record per non-identity row.  A v1 payload is
decoded eagerly, with vectorized ``np.frombuffer`` views, into the same
:class:`~repro.core.search.SearchArrays` the other formats map, and is
validated as strictly as they are (identity row, duplicate rows,
parents preceding children, gate range, cost-decreasing parents).  v1
files remain readable (auto-detected by the magic byte); this build no
longer writes them, and ``repro store migrate`` rewrites them as v2.

Integrity is layered: the payload is checksummed (sha256 -- verified on
eager loads and by :func:`verify_store`; lazy memory-mapped opens check
framing and sizes only, deferring byte verification to the checksum
tool), the header pins fingerprints of the gate library and cost model
(mismatches are refused with :class:`StoreMismatchError` -- a closure
loaded against the wrong library would silently return wrong costs),
and the structural invariants (identity level, monotonic offsets,
cost-decreasing parents) are re-validated on restore.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.errors import StoreError, StoreMismatchError, StoreVersionError
from repro.core.cost import CostModel, UNIT_COST
from repro.core.kernel import compute_masks, mask_word_count
from repro.core.search import CascadeSearch, SearchArrays
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary, library_for
from repro.mvl.labels import label_space

MAGIC_PREFIX = b"RPROCLS"
MAGIC_V1 = MAGIC_PREFIX + b"\x01"
MAGIC_V2 = MAGIC_PREFIX + b"\x02"
MAGIC_V3 = MAGIC_PREFIX + b"\x03"
#: Compatibility alias: the magic of the current default format.
MAGIC = MAGIC_V2
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2, 3)

#: Codecs a v3 store may name.  ``zstd`` needs the optional
#: ``zstandard`` package (or the ``compression.zstd`` stdlib module of
#: Python >= 3.14); ``zlib`` is always available; ``raw`` stores the
#: section bytes uncompressed (still chunked/lazy).
V3_CODECS = ("zstd", "zlib", "raw")

#: v1 parent record: u32 parent row + u16 gate index.
_V1_PARENT = np.dtype([("parent", "<u4"), ("gate", "<u2")])
_ALIGN = 8
#: v2 section names in payload order (parents/gates optional).
_SECTIONS = (
    "perms", "masks", "parents", "gates",
    "rkeys", "rcosts", "rindptr", "rmatches",
)


def _writer_tag() -> str:
    """Provenance string naming the build that wrote a store."""
    from repro._version import __version__

    return f"repro {__version__}"


def _int_bytes(value: int) -> bytes:
    """Minimal little-endian encoding of a non-negative int (>= 1 byte)."""
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "little")


# -- v3 chunk codecs -------------------------------------------------------------------


def _zstd_module():
    """The available zstd implementation, or None.

    Prefers the third-party ``zstandard`` package, falls back to the
    ``compression.zstd`` stdlib module (Python >= 3.14).  Setting
    ``REPRO_NO_ZSTD`` in the environment reports zstd as unavailable --
    CI uses this to exercise the zlib fallback on hosts that do have
    zstd installed.
    """
    if os.environ.get("REPRO_NO_ZSTD"):
        return None
    try:
        import zstandard

        return zstandard
    except ImportError:
        pass
    try:
        from compression import zstd

        return zstd
    except ImportError:
        return None


def resolve_codec(name: str | None) -> str:
    """Resolve a requested v3 codec name (``None`` = best available).

    Raises:
        StoreError: an unknown codec, or ``zstd`` requested while no
            zstd implementation is importable.
    """
    if name is None or name == "auto":
        return "zstd" if _zstd_module() is not None else "zlib"
    if name not in V3_CODECS:
        raise StoreError(
            f"unknown store codec {name!r}; choose from {V3_CODECS}"
        )
    if name == "zstd" and _zstd_module() is None:
        raise StoreError(
            "codec 'zstd' needs the zstandard package (or Python >= "
            "3.14's compression.zstd); use codec 'zlib' instead"
        )
    return name


def _codec_fns(name: str):
    """``(compress, decompress)`` callables for a codec name.

    Raises:
        StoreError: unknown codec, or a zstd store opened on a host
            without any zstd implementation (the remedy -- re-encode
            with ``repro store migrate``'s zlib codec -- is named).
    """
    import zlib

    if name == "zlib":
        return (lambda raw: zlib.compress(raw, 6)), zlib.decompress
    if name == "raw":
        return (lambda raw: raw), (lambda blob: blob)
    if name == "zstd":
        module = _zstd_module()
        if module is None:
            raise StoreError(
                "store uses the 'zstd' codec but no zstd implementation "
                "is available (install zstandard, or re-encode with "
                "`repro store migrate --codec zlib`)"
            )
        if hasattr(module, "ZstdCompressor"):  # the zstandard package
            compressor = module.ZstdCompressor()
            decompressor = module.ZstdDecompressor()
            return compressor.compress, decompressor.decompress
        return module.compress, module.decompress  # stdlib compression.zstd
    raise StoreError(f"unknown store codec {name!r}; choose from {V3_CODECS}")


def library_fingerprint(library: GateLibrary) -> str:
    """Content hash of everything the search reads from a library.

    Covers the label-space geometry and, per gate in index order, the
    name, permutation and banned mask -- so two libraries fingerprint
    equal exactly when a closure expanded under one is valid for the
    other.
    """
    space = library.space
    digest = hashlib.sha256()
    digest.update(
        f"space:{space.n_qubits}:{space.size}:{space.n_binary}:"
        f"{space.reduced}:{space.ordering}:{space.s_mask}".encode()
    )
    mv = space.radix != 2 or library.family != "paper"
    if mv:
        # Radix and family distinguish MV spaces whose geometry numbers
        # could collide with a binary space; per-entry costs join the
        # hash because MV costs live on the entries (Di & Wei's 1/2
        # convention), not in the four binary cost-model weights.  Both
        # are folded in only for MV libraries so every existing binary
        # fingerprint stays byte-identical.
        digest.update(f":radix:{space.radix}:family:{library.family}".encode())
    for entry in library.gates:
        digest.update(b"\x00" + entry.name.encode())
        digest.update(entry.permutation.images)
        digest.update(_int_bytes(entry.banned_mask))
        if mv:
            digest.update(_int_bytes(entry.cost))
    return digest.hexdigest()


def cost_model_fingerprint(cost_model: CostModel) -> str:
    """Content hash of a cost model's four integer weights."""
    text = (
        f"cost:{cost_model.v_cost}:{cost_model.vdag_cost}:"
        f"{cost_model.cnot_cost}:{cost_model.not_cost}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class StoreHeader:
    """Parsed metadata block of a closure store.

    Carries everything needed to rebuild the matching library and cost
    model (the store is self-describing for the default gate alphabet)
    plus the size/checksum data that frames the payload.  The v2-only
    fields (``mask_words``, ``sections``, ``level_row_offsets``, index
    sizes) are zero/None on v1 headers.
    """

    format_version: int
    library_fingerprint: str
    cost_fingerprint: str
    n_qubits: int
    degree: int
    n_binary: int
    mask_bytes: int
    space_reduced: bool
    space_ordering: str
    gate_kinds: tuple[str, ...]
    cost_model: CostModel
    expanded_to: int
    level_sizes: tuple[int, ...]
    track_parents: bool
    elapsed_seconds: float
    payload_size: int
    payload_sha256: str
    #: Provenance: the expansion kernel that produced the closure
    #: (``"vector"``/``"translate"``) and the writing build
    #: (``"repro <version>"``).  Empty strings on stores written before
    #: these fields existed; purely informational -- compatibility is
    #: governed by the fingerprints, never by provenance.
    kernel: str = ""
    writer: str = ""
    mask_words: int = 0
    level_row_offsets: tuple[int, ...] = ()
    sections: dict = field(default_factory=dict)
    index_entries: int = 0
    index_matches: int = 0
    #: Per-section sha256 of the (small) remainder-index sections; these
    #: are read eagerly on open, so they are verified even on the lazy
    #: memory-mapped path.
    index_sha256: dict = field(default_factory=dict)
    #: Dedup-shard layout of the expansion that built this store
    #: (``shard_bits``, ``rows_per_shard``, ``slab_slots``, ``spilled``)
    #: -- written by the vector engine, empty otherwise.  Purely
    #: informational: `repro store shards` uses it to help operators
    #: size ``--dedup-budget``; readers must not depend on it.
    shards: dict = field(default_factory=dict)
    #: v3 only: the chunk codec (``"zstd"``/``"zlib"``/``"raw"``) and the
    #: chunk table -- section name -> list of ``(offset, stored_length,
    #: raw_length)`` spans within the payload, one span per level for
    #: the row arrays, a single span for the ``r*`` index sections.
    codec: str = ""
    chunks: dict = field(default_factory=dict)
    #: Wire radix (2 = the paper's qubits) and builder family of the
    #: library this store was expanded under.  Defaults keep binary
    #: headers byte-identical: both keys are only serialized when the
    #: store holds an MV closure.
    radix: int = 2
    library_family: str = "paper"

    @property
    def total_seen(self) -> int:
        return sum(self.level_sizes)

    def rebuild_library(self) -> GateLibrary:
        """The library this store was expanded under, by family.

        The digit families come from the shared
        :func:`~repro.gates.library.library_for` cache; the paper
        family is built from the header's gate kinds and label space.
        """
        radix = _FAMILY_RADIX.get(self.library_family)
        if radix is None:
            raise StoreError(
                f"store was built by unknown library family "
                f"{self.library_family!r}; this build knows 'paper', "
                "'ternary-diwei' and 'quaternary-ms'"
            )
        if radix != 2:
            return library_for(self.n_qubits, radix)
        try:
            kinds = tuple(GateKind[name] for name in self.gate_kinds)
        except KeyError as exc:
            raise StoreError(f"store names unknown gate kind {exc}") from None
        space = label_space(
            self.n_qubits, reduced=self.space_reduced, ordering=self.space_ordering
        )
        return GateLibrary(self.n_qubits, space=space, kinds=kinds)


#: Library family -> wire radix of its default library.
_FAMILY_RADIX = {"paper": 2, "ternary-diwei": 3, "quaternary-ms": 4}


def _header_dict(header: StoreHeader) -> dict:
    cm = header.cost_model
    data = {
        "format": header.format_version,
        "library_fingerprint": header.library_fingerprint,
        "cost_fingerprint": header.cost_fingerprint,
        "n_qubits": header.n_qubits,
        "degree": header.degree,
        "n_binary": header.n_binary,
        "mask_bytes": header.mask_bytes,
        "space_reduced": header.space_reduced,
        "space_ordering": header.space_ordering,
        "gate_kinds": list(header.gate_kinds),
        "cost_model": {
            "v_cost": cm.v_cost,
            "vdag_cost": cm.vdag_cost,
            "cnot_cost": cm.cnot_cost,
            "not_cost": cm.not_cost,
        },
        "expanded_to": header.expanded_to,
        "level_sizes": list(header.level_sizes),
        "track_parents": header.track_parents,
        "elapsed_seconds": header.elapsed_seconds,
        "payload_size": header.payload_size,
        "payload_sha256": header.payload_sha256,
        "kernel": header.kernel,
        "writer": header.writer,
    }
    if header.format_version >= 2:
        data["mask_words"] = header.mask_words
        data["level_row_offsets"] = list(header.level_row_offsets)
        data["sections"] = {
            name: list(span) for name, span in header.sections.items()
        }
        data["index_entries"] = header.index_entries
        data["index_matches"] = header.index_matches
        data["index_sha256"] = dict(header.index_sha256)
        if header.shards:
            data["shards"] = dict(header.shards)
    if header.format_version >= 3:
        data["codec"] = header.codec
        data["chunks"] = {
            name: [list(span) for span in spans]
            for name, spans in header.chunks.items()
        }
        del data["sections"]
    if header.radix != 2 or header.library_family != "paper":
        # MV provenance; omitted at the binary defaults so every
        # pre-existing binary header (and store digest) stays
        # byte-identical.
        data["radix"] = header.radix
        data["library_family"] = header.library_family
    return data


def _header_from_dict(data: dict) -> StoreHeader:
    try:
        cm = data["cost_model"]
        return StoreHeader(
            format_version=int(data["format"]),
            library_fingerprint=str(data["library_fingerprint"]),
            cost_fingerprint=str(data["cost_fingerprint"]),
            n_qubits=int(data["n_qubits"]),
            degree=int(data["degree"]),
            n_binary=int(data["n_binary"]),
            mask_bytes=int(data["mask_bytes"]),
            space_reduced=bool(data["space_reduced"]),
            space_ordering=str(data["space_ordering"]),
            gate_kinds=tuple(str(k) for k in data["gate_kinds"]),
            cost_model=CostModel(
                v_cost=int(cm["v_cost"]),
                vdag_cost=int(cm["vdag_cost"]),
                cnot_cost=int(cm["cnot_cost"]),
                not_cost=int(cm["not_cost"]),
            ),
            expanded_to=int(data["expanded_to"]),
            level_sizes=tuple(int(s) for s in data["level_sizes"]),
            track_parents=bool(data["track_parents"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            payload_size=int(data["payload_size"]),
            payload_sha256=str(data["payload_sha256"]),
            kernel=str(data.get("kernel", "")),
            writer=str(data.get("writer", "")),
            mask_words=int(data.get("mask_words", 0)),
            level_row_offsets=tuple(
                int(o) for o in data.get("level_row_offsets", ())
            ),
            sections={
                str(name): (int(span[0]), int(span[1]))
                for name, span in data.get("sections", {}).items()
            },
            index_entries=int(data.get("index_entries", 0)),
            index_matches=int(data.get("index_matches", 0)),
            index_sha256={
                str(name): str(digest)
                for name, digest in data.get("index_sha256", {}).items()
            },
            shards=dict(data.get("shards", {})),
            codec=str(data.get("codec", "")),
            chunks={
                str(name): tuple(
                    (int(span[0]), int(span[1]), int(span[2]))
                    for span in spans
                )
                for name, spans in data.get("chunks", {}).items()
            },
            radix=int(data.get("radix", 2)),
            library_family=str(data.get("library_family", "paper")),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise StoreError(f"malformed store header: {exc}") from None


# -- encoding --------------------------------------------------------------------------


def _library_kinds(library: GateLibrary) -> tuple[str, ...]:
    """Gate kinds in construction order (gate indices depend on it).

    For the paper family the kinds cycle per wire pair, so the list stops
    at the first repeat (V, V+, F).  MV families interleave cost blocks
    instead, so every distinct kind name is collected; the list is
    informational there -- ``rebuild_library`` dispatches on the family,
    and the fingerprint check catches any drift.
    """
    kinds: list[str] = []
    if library.family != "paper":
        for entry in library.gates:
            name = entry.gate.kind.name
            if name not in kinds:
                kinds.append(name)
        return tuple(kinds)
    for entry in library.gates:
        name = entry.gate.kind.name
        if name in kinds:
            break
        kinds.append(name)
    return tuple(kinds)


def _index_blobs(search: CascadeSearch, cost_bound: int):
    """The remainder index as the raw bytes of the four ``r*`` sections.

    Returns ``(blobs, digests, entries, matches)``.  The digests cover
    the raw bytes, so v2 and v3 record the same ``index_sha256``.
    """
    from repro.core.batch import build_remainder_index

    attached = search.attached_remainder_index
    if attached is not None and attached[0] == cost_bound:
        index = attached[1]
    else:
        index = build_remainder_index(search, cost_bound)
    costs = np.array(
        [hit[0] for hit in index.values()], dtype="<i4"
    )
    counts = [len(hit[1]) for hit in index.values()]
    indptr = np.zeros(len(index) + 1, dtype="<i8")
    np.cumsum(counts, out=indptr[1:])
    matches = np.array(
        [int(row) for hit in index.values() for row in hit[1]], dtype="<i4"
    )
    blobs = {
        "rkeys": b"".join(index.keys()),
        "rcosts": costs.tobytes(),
        "rindptr": indptr.tobytes(),
        "rmatches": matches.tobytes(),
    }
    digests = {
        name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()
    }
    return blobs, digests, len(costs), len(matches)


#: On-disk dtype of each row section (all little-endian).
_ROW_DTYPES = {
    "perms": np.uint8, "masks": "<u8", "parents": "<i4", "gates": "<i4",
}


def _row_bytes(arrays: SearchArrays, name: str, start: int, stop: int) -> bytes:
    """Rows ``start:stop`` of one row section, as stored on disk."""
    return np.ascontiguousarray(
        getattr(arrays, name)[start:stop], dtype=_ROW_DTYPES[name]
    ).tobytes()


def _v2_section_plan(
    n: int,
    degree: int,
    mask_words: int,
    n_binary: int,
    track_parents: bool,
    index_entries: int,
    index_matches: int,
) -> tuple[dict[str, tuple[int, int]], int]:
    """Section offsets/lengths (8-aligned) from the row/entry counts."""
    lengths = {
        "perms": n * degree,
        "masks": n * mask_words * 8,
        "rkeys": index_entries * n_binary,
        "rcosts": index_entries * 4,
        "rindptr": (index_entries + 1) * 8,
        "rmatches": index_matches * 4,
    }
    if track_parents:
        lengths["parents"] = n * 4
        lengths["gates"] = n * 4
    sections: dict[str, tuple[int, int]] = {}
    offset = 0
    for name in _SECTIONS:
        length = lengths.get(name)
        if length is None:
            continue
        offset += (-offset) % _ALIGN
        sections[name] = (offset, length)
        offset += length
    return sections, offset


def _v2_header(
    search: CascadeSearch,
    arrays,
    sections: dict[str, tuple[int, int]],
    payload_size: int,
    payload_sha256: str,
    index_sha: dict,
    index_entries: int,
    index_matches: int,
) -> StoreHeader:
    """The v2 header (the v3 writer swaps in its chunk table)."""
    library = search.library
    return StoreHeader(
        format_version=2,
        library_fingerprint=library_fingerprint(library),
        cost_fingerprint=cost_model_fingerprint(search.cost_model),
        n_qubits=library.n_qubits,
        degree=arrays.degree,
        n_binary=arrays.n_binary,
        mask_bytes=8 * arrays.mask_words,
        space_reduced=library.space.reduced,
        space_ordering=library.space.ordering,
        gate_kinds=_library_kinds(library),
        cost_model=search.cost_model,
        expanded_to=arrays.expanded_to,
        level_sizes=arrays.level_sizes,
        track_parents=arrays.parents is not None,
        elapsed_seconds=arrays.elapsed_seconds,
        payload_size=payload_size,
        payload_sha256=payload_sha256,
        kernel=search.kernel,
        writer=_writer_tag(),
        mask_words=arrays.mask_words,
        level_row_offsets=tuple(int(o) for o in arrays.level_offsets),
        sections=sections,
        index_entries=index_entries,
        index_matches=index_matches,
        index_sha256=index_sha,
        shards=search.shard_layout() or {},
        radix=library.space.radix,
        library_family=library.family,
    )


def _frame_header(header: StoreHeader) -> bytes:
    """Magic + length + space-padded JSON header (payload 8-aligned)."""
    header_blob = json.dumps(
        _header_dict(header), separators=(",", ":")
    ).encode()
    magic = MAGIC_PREFIX + bytes([header.format_version])
    frame = len(magic) + 4
    pad = (-(frame + len(header_blob))) % _ALIGN
    header_blob += b" " * pad
    return magic + len(header_blob).to_bytes(4, "little") + header_blob


#: Placeholder digest patched in place by the streaming writer (same
#: length as a real sha256 hex digest, so the header size is stable).
_SHA_PLACEHOLDER = "0" * 64

#: Rows per write in the streaming writer (bounds its extra RSS).
_STREAM_ROWS = 1 << 16


def _write_v2(
    search: CascadeSearch, out, codec: str | None = None, spool_dir=None
) -> StoreHeader:
    """Write a v2 store to the seekable binary handle *out*.

    The section plan is computed from the row counts up front, the
    payload streams through an incremental sha256 in
    :data:`_STREAM_ROWS`-row chunks, and the header's placeholder
    digest is patched in place at the end.  Peak extra memory is one
    chunk instead of a whole second copy of the closure -- the property
    that lets a budgeted expansion write stores bigger than RAM
    headroom.  *codec* and *spool_dir* only matter to v3.
    """
    arrays = search.export_arrays()
    index_blobs, index_sha, entries, matches = _index_blobs(
        search, arrays.expanded_to
    )
    n = arrays.n_rows
    sections, payload_size = _v2_section_plan(
        n,
        arrays.degree,
        arrays.mask_words,
        arrays.n_binary,
        arrays.parents is not None,
        entries,
        matches,
    )
    header = _v2_header(
        search, arrays, sections, payload_size, _SHA_PLACEHOLDER,
        index_sha, entries, matches,
    )
    frame = _frame_header(header)
    sha_at = out.tell() + frame.index(_SHA_PLACEHOLDER.encode())
    out.write(frame)
    digest = hashlib.sha256()
    written = 0
    for name, (offset, length) in sections.items():
        pad = b"\x00" * (offset - written)
        out.write(pad)
        digest.update(pad)
        written += len(pad)
        if name in index_blobs:
            chunks = (index_blobs[name],)
        else:
            chunks = (
                _row_bytes(arrays, name, start, start + _STREAM_ROWS)
                for start in range(0, n, _STREAM_ROWS)
            )
        for chunk in chunks:
            out.write(chunk)
            digest.update(chunk)
            written += len(chunk)
        if written - offset != length:
            raise StoreError(
                f"streamed section {name!r} wrote {written - offset} "
                f"bytes, planned {length}"
            )
    # Patch the placeholder digest in place; same length, so every
    # other byte is untouched.
    end = out.tell()
    out.seek(sha_at)
    out.write(digest.hexdigest().encode())
    out.seek(end)
    return replace(header, payload_sha256=digest.hexdigest())


def _v3_chunk_stream(arrays, index_blobs: dict, compress):
    """Yield ``(name, compressed_chunk, raw_length)`` in on-disk order.

    One chunk per level for each row array (level ``k`` of ``perms`` is
    exactly the v2 ``perms`` section bytes of rows ``offsets[k] ..
    offsets[k+1]``), then one chunk per ``r*`` index section.  The raw
    bytes are pinned byte-identical to the corresponding v2 section
    span, which is what lets a v3 store serve byte-identical results.
    Peak extra memory is one level's raw + compressed chunk.
    """
    for name in _SECTIONS:
        if name in index_blobs:
            raw = index_blobs[name]
            yield name, compress(raw) if raw else b"", len(raw)
            continue
        if getattr(arrays, name) is None:
            continue
        for cost in range(arrays.expanded_to + 1):
            raw = _row_bytes(arrays, name, *arrays.level_rows(cost))
            yield name, compress(raw) if raw else b"", len(raw)


def _v3_write_payload(search: CascadeSearch, out, codec: str | None):
    """Stream the v3 payload chunks to *out*; returns the header.

    The returned header carries the finished chunk table, payload size
    and sha256 (over the stored/compressed payload bytes).
    """
    arrays = search.export_arrays()
    index_blobs, index_sha, entries, matches = _index_blobs(
        search, arrays.expanded_to
    )
    codec_name = resolve_codec(codec)
    compress, _decompress = _codec_fns(codec_name)
    chunks: dict[str, list[tuple[int, int, int]]] = {}
    digest = hashlib.sha256()
    offset = 0
    for name, blob, raw_len in _v3_chunk_stream(arrays, index_blobs, compress):
        pad = (-offset) % _ALIGN
        if pad:
            out.write(b"\x00" * pad)
            digest.update(b"\x00" * pad)
            offset += pad
        chunks.setdefault(name, []).append((offset, len(blob), raw_len))
        out.write(blob)
        digest.update(blob)
        offset += len(blob)
    # The v2 header with a chunk table instead of sections.
    base = _v2_header(
        search, arrays, {}, offset, digest.hexdigest(),
        index_sha, entries, matches,
    )
    return replace(
        base,
        format_version=3,
        codec=codec_name,
        chunks={name: tuple(spans) for name, spans in chunks.items()},
    )


def _write_v3(
    search: CascadeSearch, out, codec: str | None = None, spool_dir=None
) -> StoreHeader:
    """Write a v3 store to the binary handle *out*, chunk by chunk.

    Chunk sizes are only known after compression, so the payload first
    streams to an anonymous spool file in *spool_dir* (the system temp
    directory when None); the framed header and the spooled payload
    are then copied to *out*.  Peak extra memory is one level's chunk.
    """
    with tempfile.TemporaryFile(dir=spool_dir) as spool:
        header = _v3_write_payload(search, spool, codec)
        out.write(_frame_header(header))
        spool.seek(0)
        shutil.copyfileobj(spool, out, 1 << 20)
    return header


#: The one writer per writable format.  Format 1 is read-only: v1
#: stores are decoded for migration, never written.
_WRITERS = {2: _write_v2, 3: _write_v3}


def _writer(format_version: int):
    writer = _WRITERS.get(format_version)
    if writer is None:
        raise StoreVersionError(
            f"cannot write store format {format_version}; this build "
            f"writes formats {tuple(_WRITERS)} (format 1 is read and "
            "migrate only)"
        )
    return writer


def dump_search(
    search: CascadeSearch,
    format_version: int = FORMAT_VERSION,
    codec: str | None = None,
) -> bytes:
    """Serialize a search's accumulated closure to store bytes.

    The same writer as :func:`save_search`, over an in-memory buffer,
    so the bytes are identical.  *codec* selects the v3 chunk codec
    (``None`` = best available) and is ignored by v2.
    """
    writer = _writer(format_version)
    buffer = io.BytesIO()
    writer(search, buffer, codec)
    return buffer.getvalue()


def save_search(
    search: CascadeSearch,
    path: str | Path,
    format_version: int = FORMAT_VERSION,
    codec: str | None = None,
) -> StoreHeader:
    """Write a search's closure to *path*; returns the store header.

    The write is atomic (temp file + rename): an interrupted or failed
    save removes its temp file and leaves any existing store at *path*
    untouched -- and re-saving over a store that is currently
    memory-mapped (``precompute --extend``) is safe: the mapping keeps
    the old inode alive.  Both formats stream section by section, level
    by level, so peak RSS stays bounded by one chunk instead of a full
    second copy of the payload.  *codec* selects the v3 chunk codec
    (``None`` = best available).
    """
    writer = _writer(format_version)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            header = writer(search, handle, codec, target.parent)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return header


# -- decoding --------------------------------------------------------------------------


def _parse_frame(data: bytes) -> tuple[StoreHeader, int]:
    """Parse magic + header; return (header, payload start offset)."""
    if len(data) < len(MAGIC_PREFIX) + 5 or data[: len(MAGIC_PREFIX)] != (
        MAGIC_PREFIX
    ):
        raise StoreError("not a closure store (bad magic)")
    magic_version = data[len(MAGIC_PREFIX)]
    if magic_version not in SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"store format {magic_version} is not supported (this build "
            f"reads formats {SUPPORTED_VERSIONS})"
        )
    frame = len(MAGIC_PREFIX) + 1
    hlen = int.from_bytes(data[frame : frame + 4], "little")
    header_start = frame + 4
    if len(data) < header_start + hlen:
        raise StoreError("truncated store header")
    try:
        raw = json.loads(data[header_start : header_start + hlen])
    except ValueError:
        raise StoreError("store header is not valid JSON") from None
    header = _header_from_dict(raw)
    if header.format_version not in SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"store format {header.format_version} is not supported "
            f"(this build reads formats {SUPPORTED_VERSIONS})"
        )
    if header.format_version != magic_version:
        raise StoreError(
            f"store magic says format {magic_version} but the header "
            f"says {header.format_version}"
        )
    return header, header_start + hlen


def _check_v1_payload(header: StoreHeader, payload: memoryview) -> None:
    if len(payload) != header.payload_size:
        raise StoreError(
            f"store payload is {len(payload)} bytes, header says "
            f"{header.payload_size} (truncated or padded file)"
        )
    if hashlib.sha256(payload).hexdigest() != header.payload_sha256:
        raise StoreError("store payload fails its sha256 checksum")
    record = header.degree + header.mask_bytes
    expected = header.total_seen * record
    if header.track_parents:
        expected += (header.total_seen - 1) * _V1_PARENT.itemsize
    if header.payload_size != expected:
        raise StoreError(
            f"payload size {header.payload_size} inconsistent with "
            f"{header.total_seen} records of {record} bytes"
        )
    if len(header.level_sizes) != header.expanded_to + 1:
        raise StoreError(
            f"store claims bound {header.expanded_to} but lists "
            f"{len(header.level_sizes)} level sizes"
        )


def _check_array_geometry(
    header: StoreHeader, payload_size: int
) -> tuple[int, dict[str, int]]:
    """Level/offset sanity shared by the v2 and v3 checkers.

    Returns ``(row count, expected raw section sizes)``.
    """
    if payload_size != header.payload_size:
        raise StoreError(
            f"store payload is {payload_size} bytes, header says "
            f"{header.payload_size} (truncated or padded file)"
        )
    if len(header.level_sizes) != header.expanded_to + 1:
        raise StoreError(
            f"store claims bound {header.expanded_to} but lists "
            f"{len(header.level_sizes)} level sizes"
        )
    offsets = header.level_row_offsets
    if len(offsets) != header.expanded_to + 2 or offsets[0] != 0:
        raise StoreError("store level offset table is malformed")
    n = offsets[-1]
    for k, size in enumerate(header.level_sizes):
        if offsets[k + 1] - offsets[k] != size:
            raise StoreError(
                f"level {k} offsets disagree with its recorded size"
            )
    if header.mask_words < 1:
        raise StoreError("store mask_words must be positive")
    expected = {
        "perms": n * header.degree,
        "masks": n * header.mask_words * 8,
        "rkeys": header.index_entries * header.n_binary,
        "rcosts": header.index_entries * 4,
        "rindptr": (header.index_entries + 1) * 8,
        "rmatches": header.index_matches * 4,
    }
    if header.track_parents:
        expected["parents"] = n * 4
        expected["gates"] = n * 4
    return n, expected


def _check_v2_header(header: StoreHeader, payload_size: int) -> None:
    """Structural sanity of a v2 header against the payload size."""
    _n, expected = _check_array_geometry(header, payload_size)
    for name, size in expected.items():
        span = header.sections.get(name)
        if span is None:
            raise StoreError(f"store is missing its {name!r} section")
        offset, length = span
        if length != size:
            raise StoreError(
                f"store section {name!r} is {length} bytes, expected {size}"
            )
        if offset < 0 or offset + length > header.payload_size:
            raise StoreError(
                f"store section {name!r} lies outside the payload"
            )


#: Per-array bytes per row in the v3 chunk layout.
_V3_ROW_BYTES = {"parents": 4, "gates": 4}


def _check_v3_header(header: StoreHeader, payload_size: int) -> None:
    """Structural sanity of a v3 header against the payload size.

    The raw (decompressed) chunk lengths are fully determined by the
    row/entry counts, exactly like v2 section lengths; stored lengths
    are only bounded (the codec decides them), and every span must lie
    inside the payload.
    """
    _n, expected = _check_array_geometry(header, payload_size)
    if header.codec not in V3_CODECS:
        raise StoreError(
            f"store names unknown codec {header.codec!r}"
        )
    sizes = header.level_sizes
    for name, total in expected.items():
        spans = header.chunks.get(name)
        if spans is None:
            raise StoreError(f"store is missing its {name!r} section")
        if name in ("rkeys", "rcosts", "rindptr", "rmatches"):
            per_chunk = [total]
        else:
            row_bytes = _V3_ROW_BYTES.get(name) or (
                header.degree if name == "perms" else header.mask_words * 8
            )
            per_chunk = [size * row_bytes for size in sizes]
        if len(spans) != len(per_chunk):
            raise StoreError(
                f"store section {name!r} has {len(spans)} chunks, "
                f"expected {len(per_chunk)}"
            )
        for idx, (span, raw_expected) in enumerate(zip(spans, per_chunk)):
            offset, stored, raw = span
            if raw != raw_expected:
                raise StoreError(
                    f"store chunk {name!r}[{idx}] decodes to {raw} "
                    f"bytes, expected {raw_expected}"
                )
            if offset < 0 or stored < 0 or (
                offset + stored > header.payload_size
            ):
                raise StoreError(
                    f"store chunk {name!r}[{idx}] lies outside the payload"
                )


def _section(header: StoreHeader, payload, name: str, dtype, shape=None):
    """A zero-copy ndarray view of one v2 payload section.

    ``dtype`` must be an explicit little-endian spec (``"<u8"`` etc.) --
    sections are written little-endian, so native-order views would be
    byte-swapped on big-endian hosts.
    """
    offset, length = header.sections[name]
    view = np.frombuffer(payload, dtype=np.uint8, count=length, offset=offset)
    arr = view.view(np.dtype(dtype))
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def _v2_arrays(header: StoreHeader, payload) -> SearchArrays:
    """SearchArrays over a v2 payload (a memmap, bytes or memoryview)."""
    n = header.level_row_offsets[-1]
    parents = gates = None
    if header.track_parents:
        parents = _section(header, payload, "parents", "<i4", (n,))
        gates = _section(header, payload, "gates", "<i4", (n,))
    return SearchArrays(
        expanded_to=header.expanded_to,
        degree=header.degree,
        n_binary=header.n_binary,
        mask_words=header.mask_words,
        level_offsets=np.asarray(header.level_row_offsets, dtype=np.int64),
        perms=_section(
            header, payload, "perms", np.uint8, (n, header.degree)
        ),
        masks=_section(
            header, payload, "masks", "<u8", (n, header.mask_words)
        ),
        parents=parents,
        gates=gates,
        elapsed_seconds=header.elapsed_seconds,
    )


#: File identities whose index sections already passed verification
#: this process: ``identity -> index_sha256`` (the digests verified).
#: Keyed by (resolved path, dev, inode, size, mtime_ns), so a re-saved
#: store (new inode/mtime) re-verifies while repeated opens of the same
#: bytes -- e.g. back-to-back ``repro precompute --extend`` calls in
#: one process -- skip the rescan.
_INDEX_VERIFIED: dict[tuple, dict] = {}
_INDEX_VERIFIED_MAX = 64


def _identity_from_stat(path: Path, stat: os.stat_result) -> tuple:
    """The identity tuple of an already-statted store file."""
    return (
        str(path.resolve()),
        stat.st_dev,
        stat.st_ino,
        stat.st_size,
        stat.st_mtime_ns,
    )


def _file_identity(path: Path) -> tuple | None:
    """Stable identity of a store file's current bytes, or None."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return _identity_from_stat(path, stat)


def _v2_remainder_index(
    header: StoreHeader, payload, cache_key: tuple | None = None
) -> dict:
    """Deserialize the remainder index; verifies its per-section hashes.

    These sections are small and read eagerly, so the checksum pass is
    cheap -- corruption of the index fails loudly even on the lazy
    memory-mapped open (closure sections are only covered by the full
    :func:`verify_store` pass).  With a *cache_key* (the opened file's
    identity), a successful verification is remembered per process, so
    repeated opens of the same unchanged file -- e.g. consecutive
    ``precompute --extend`` rounds -- skip re-hashing the sections.
    """
    verified = (
        cache_key is not None
        and _INDEX_VERIFIED.get(cache_key) == header.index_sha256
    )
    if not verified:
        for name, expected in header.index_sha256.items():
            section = _section(header, payload, name, np.uint8)
            if hashlib.sha256(section.tobytes()).hexdigest() != expected:
                raise StoreError(
                    f"store section {name!r} fails its sha256 checksum"
                )
        if cache_key is not None:
            while len(_INDEX_VERIFIED) >= _INDEX_VERIFIED_MAX:
                _INDEX_VERIFIED.pop(next(iter(_INDEX_VERIFIED)))
            _INDEX_VERIFIED[cache_key] = dict(header.index_sha256)
    entries = header.index_entries
    width = header.n_binary
    keys = _section(header, payload, "rkeys", np.uint8).tobytes()
    costs = _section(header, payload, "rcosts", "<i4")
    indptr = _section(header, payload, "rindptr", "<i8")
    matches = _section(header, payload, "rmatches", "<i4")
    index: dict[bytes, tuple[int, np.ndarray]] = {}
    for e in range(entries):
        remainder = keys[e * width : (e + 1) * width]
        index[remainder] = (
            int(costs[e]),
            matches[int(indptr[e]) : int(indptr[e + 1])],
        )
    return index


# -- v3 lazy reading -------------------------------------------------------------------


class _SectionCache:
    """Process-wide LRU of decompressed v3 chunks, bounded by bytes.

    Keys are ``(file identity, section name, chunk index)``: a replaced
    store gets a new inode/mtime and therefore fresh entries, while the
    old entries age out by LRU -- no invalidation hooks needed, which is
    what keeps the serve reload race-free (in-flight queries on the old
    :class:`StoreState` keep their already-decompressed chunks alive by
    reference regardless of what the cache evicts).
    """

    def __init__(self, max_bytes: int):
        import threading
        from collections import OrderedDict

        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> bytes | None:
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return blob

    def put(self, key: tuple, blob: bytes) -> None:
        if len(blob) > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = blob
            self._bytes += len(blob)
            while self._bytes > self.max_bytes and self._entries:
                _key, dropped = self._entries.popitem(last=False)
                self._bytes -= len(dropped)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }


#: The per-process chunk cache; sized by ``REPRO_SECTION_CACHE_MB``
#: (default 64).  Small by design: it bounds decompression rework, it
#: does not try to hold the closure.
_SECTION_CACHE = _SectionCache(
    max(1, int(os.environ.get("REPRO_SECTION_CACHE_MB", "64"))) << 20
)


def section_cache_stats() -> dict:
    """Hit/size counters of the process-wide v3 chunk cache."""
    return _SECTION_CACHE.stats()


class _ChunkStore:
    """Decompress-on-touch access to one v3 store's payload chunks.

    Holds the (compressed) payload -- a memmap for file opens, so the
    inode stays pinned across atomic replaces exactly like a v2 map --
    and inflates single chunks on demand through the process-wide
    :data:`_SECTION_CACHE` (when a *cache_key* identity is given).
    """

    def __init__(
        self, header: StoreHeader, payload, cache_key: tuple | None = None
    ):
        self._header = header
        self._payload = payload
        self._cache_key = cache_key
        _compress, self._decompress = _codec_fns(header.codec)

    def chunk(self, name: str, idx: int) -> bytes:
        """The decompressed bytes of one chunk (cached per process)."""
        offset, stored, raw_len = self._header.chunks[name][idx]
        key = None
        if self._cache_key is not None:
            key = (self._cache_key, name, idx)
            cached = _SECTION_CACHE.get(key)
            if cached is not None:
                return cached
        if stored == 0 and raw_len == 0:
            return b""
        view = self._payload[offset : offset + stored]
        blob = view.tobytes() if hasattr(view, "tobytes") else bytes(view)
        try:
            raw = self._decompress(blob)
        except Exception as exc:
            raise StoreError(
                f"store chunk {name!r}[{idx}] fails to decompress "
                f"({self._header.codec}): {exc}"
            ) from None
        if len(raw) != raw_len:
            raise StoreError(
                f"store chunk {name!r}[{idx}] decompressed to "
                f"{len(raw)} bytes, header says {raw_len}"
            )
        if key is not None:
            _SECTION_CACHE.put(key, raw)
        return raw

    def level_array(self, name: str, idx: int, dtype, width: int | None):
        """One chunk as a read-only ndarray (``(rows, width)`` or flat)."""
        arr = np.frombuffer(self.chunk(name, idx), dtype=np.dtype(dtype))
        if width is not None:
            arr = arr.reshape(-1, width)
        return arr


class _LazyChunkedArray:
    """Read-only, ndarray-like view over a v3 array's per-level chunks.

    Implements exactly the access surface the query paths use on raw
    :class:`SearchArrays` members -- ``shape``/``dtype``, integer row
    indexing, contiguous row slices, and whole-array materialization
    via ``__array__`` (used by eager consumers such as migration and
    ``verify_store``).  Rows decompress level by level on first touch,
    so open + first query stays O(chunks touched) at any closure size.
    """

    def __init__(
        self,
        chunks: _ChunkStore,
        name: str,
        dtype,
        width: int | None,
        level_offsets,
    ):
        self._chunks = chunks
        self._name = name
        self.dtype = np.dtype(dtype)
        self._width = width
        self._offsets = np.asarray(level_offsets, dtype=np.int64)
        n = int(self._offsets[-1])
        self.shape = (n,) if width is None else (n, width)
        self.ndim = len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def _level_of(self, row: int) -> int:
        return int(
            np.searchsorted(self._offsets, row, side="right") - 1
        )

    def _level(self, k: int):
        return self._chunks.level_array(
            self._name, k, self.dtype, self._width
        )

    def __getitem__(self, key):
        n = self.shape[0]
        if isinstance(key, (int, np.integer)):
            row = int(key)
            if row < 0:
                row += n
            if not 0 <= row < n:
                raise IndexError(
                    f"row {key} outside the {n}-row closure"
                )
            k = self._level_of(row)
            return self._level(k)[row - int(self._offsets[k])]
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step != 1:
                raise IndexError(
                    "chunked store arrays support contiguous slices only"
                )
            if start >= stop:
                return np.empty(
                    (0,) if self._width is None else (0, self._width),
                    dtype=self.dtype,
                )
            first = self._level_of(start)
            last = self._level_of(stop - 1)
            if first == last:
                base = int(self._offsets[first])
                return self._level(first)[start - base : stop - base]
            parts = []
            for k in range(first, last + 1):
                lo = max(start, int(self._offsets[k]))
                hi = min(stop, int(self._offsets[k + 1]))
                if lo < hi:
                    base = int(self._offsets[k])
                    parts.append(self._level(k)[lo - base : hi - base])
            return np.concatenate(parts)
        raise TypeError(
            f"chunked store arrays take int or slice indices, not "
            f"{type(key).__name__}"
        )

    def __array__(self, dtype=None, copy=None):
        full = self[0 : self.shape[0]]
        if dtype is not None and np.dtype(dtype) != full.dtype:
            return full.astype(dtype)
        return np.asarray(full)


def _v3_arrays(header: StoreHeader, chunks: _ChunkStore) -> SearchArrays:
    """Lazy SearchArrays over a v3 chunk store (decompress on touch)."""
    offsets = np.asarray(header.level_row_offsets, dtype=np.int64)
    parents = gates = None
    if header.track_parents:
        parents = _LazyChunkedArray(chunks, "parents", "<i4", None, offsets)
        gates = _LazyChunkedArray(chunks, "gates", "<i4", None, offsets)
    return SearchArrays(
        expanded_to=header.expanded_to,
        degree=header.degree,
        n_binary=header.n_binary,
        mask_words=header.mask_words,
        level_offsets=offsets,
        perms=_LazyChunkedArray(
            chunks, "perms", np.uint8, header.degree, offsets
        ),
        masks=_LazyChunkedArray(
            chunks, "masks", "<u8", header.mask_words, offsets
        ),
        parents=parents,
        gates=gates,
        elapsed_seconds=header.elapsed_seconds,
    )


def _v3_remainder_index(
    header: StoreHeader, chunks: _ChunkStore, cache_key: tuple | None = None
) -> dict:
    """Deserialize a v3 remainder index; verifies its raw-byte hashes.

    The ``index_sha256`` digests cover the *decompressed* section bytes
    -- the same values a v2 store records -- so the eager-verification
    guarantee (and the per-process verified-identity cache) carries
    over unchanged.
    """
    blobs = {
        name: chunks.chunk(name, 0)
        for name in ("rkeys", "rcosts", "rindptr", "rmatches")
    }
    verified = (
        cache_key is not None
        and _INDEX_VERIFIED.get(cache_key) == header.index_sha256
    )
    if not verified:
        for name, expected in header.index_sha256.items():
            if hashlib.sha256(blobs[name]).hexdigest() != expected:
                raise StoreError(
                    f"store section {name!r} fails its sha256 checksum"
                )
        if cache_key is not None:
            while len(_INDEX_VERIFIED) >= _INDEX_VERIFIED_MAX:
                _INDEX_VERIFIED.pop(next(iter(_INDEX_VERIFIED)))
            _INDEX_VERIFIED[cache_key] = dict(header.index_sha256)
    entries = header.index_entries
    width = header.n_binary
    keys = blobs["rkeys"]
    costs = np.frombuffer(blobs["rcosts"], dtype="<i4")
    indptr = np.frombuffer(blobs["rindptr"], dtype="<i8")
    matches = np.frombuffer(blobs["rmatches"], dtype="<i4")
    index: dict[bytes, tuple[int, np.ndarray]] = {}
    for e in range(entries):
        remainder = keys[e * width : (e + 1) * width]
        index[remainder] = (
            int(costs[e]),
            matches[int(indptr[e]) : int(indptr[e + 1])],
        )
    return index


def _split(data: bytes) -> tuple[StoreHeader, memoryview]:
    """Validate framing + checksum; return (header, payload view)."""
    header, payload_start = _parse_frame(data)
    payload = memoryview(data)[payload_start:]
    if header.format_version == 1:
        _check_v1_payload(header, payload)
    else:
        if header.format_version >= 3:
            _check_v3_header(header, len(payload))
        else:
            _check_v2_header(header, len(payload))
        if hashlib.sha256(payload).hexdigest() != header.payload_sha256:
            raise StoreError("store payload fails its sha256 checksum")
    return header, payload


def _v1_arrays(header: StoreHeader, payload) -> SearchArrays:
    """Decode a (size-checked) v1 payload straight into arrays.

    v1 packs ``degree`` image bytes plus ``mask_bytes`` little-endian
    S-image mask bytes per row, level-major, followed (when parents are
    tracked) by one :data:`_V1_PARENT` record per non-identity row.
    A non-identity first row, duplicate rows and parents that do not
    precede their child are refused here;
    :meth:`CascadeSearch.from_arrays` and :func:`_check_parents` check
    the rest (offsets, gate range, cost-decreasing parents).
    """
    degree = header.degree
    words = mask_word_count(degree)
    n = header.total_seen
    if header.mask_bytes > 8 * words:
        raise StoreError(
            f"store masks of {header.mask_bytes} bytes exceed a "
            f"{degree}-label space"
        )
    if n < 1:
        raise StoreError("store level 0 is not the identity singleton")
    record = degree + header.mask_bytes
    rows = np.frombuffer(payload, dtype=np.uint8, count=n * record)
    rows = rows.reshape(n, record)
    perms = rows[:, :degree]
    mask_bytes = np.zeros((n, 8 * words), dtype=np.uint8)
    mask_bytes[:, : header.mask_bytes] = rows[:, degree:]
    masks = mask_bytes.view("<u8")
    if bytes(perms[0]) != bytes(range(degree)) or not np.array_equal(
        masks[0], compute_masks(perms[:1], header.n_binary, words)[0]
    ):
        raise StoreError("store level 0 is not the identity singleton")
    if len(np.unique(perms.view(np.dtype((np.void, degree))))) != n:
        raise StoreError("duplicate permutation across store levels")
    parents = gates = None
    if header.track_parents:
        links = np.frombuffer(
            payload, dtype=_V1_PARENT, count=n - 1, offset=n * record
        )
        late = np.flatnonzero(links["parent"] >= np.arange(1, n))
        if late.size:
            raise StoreError(
                f"parent index {int(links['parent'][late[0]])} does not "
                f"precede its child {int(late[0]) + 1}"
            )
        parents = np.full(n, -1, dtype=np.int32)
        gates = np.full(n, -1, dtype=np.int32)
        parents[1:] = links["parent"]
        gates[1:] = links["gate"]
    offsets = np.zeros(len(header.level_sizes) + 1, dtype=np.int64)
    np.cumsum(header.level_sizes, out=offsets[1:])
    return SearchArrays(
        expanded_to=header.expanded_to,
        degree=degree,
        n_binary=header.n_binary,
        mask_words=words,
        level_offsets=offsets,
        perms=perms,
        masks=masks,
        parents=parents,
        gates=gates,
        elapsed_seconds=header.elapsed_seconds,
    )


def _read_header(path: Path) -> tuple[StoreHeader, tuple]:
    """Read a store's metadata block plus the file identity it came from.

    Header and identity are taken from one open file descriptor, so
    they always describe the same inode -- the identity lets the later
    mapping step (:func:`_map_store`) detect a concurrent atomic
    replace instead of failing on a misleading size mismatch.
    """
    with open(path, "rb") as handle:
        identity = _identity_from_stat(path, os.fstat(handle.fileno()))
        magic = handle.read(len(MAGIC_PREFIX) + 1)
        if len(magic) < len(MAGIC_PREFIX) + 1 or not magic.startswith(
            MAGIC_PREFIX
        ):
            raise StoreError("not a closure store (bad magic)")
        if magic[-1] not in SUPPORTED_VERSIONS:
            raise StoreVersionError(
                f"store format {magic[-1]} is not supported (this build "
                f"reads formats {SUPPORTED_VERSIONS})"
            )
        hlen_bytes = handle.read(4)
        if len(hlen_bytes) < 4:
            raise StoreError("truncated store header")
        hlen = int.from_bytes(hlen_bytes, "little")
        blob = handle.read(hlen)
    if len(blob) < hlen:
        raise StoreError("truncated store header")
    try:
        raw = json.loads(blob)
    except ValueError:
        raise StoreError("store header is not valid JSON") from None
    return _header_from_dict(raw), identity


def read_header(path: str | Path) -> StoreHeader:
    """Read only the metadata block of a store file (cheap peek).

    The payload is not read or verified; use :func:`verify_store` for a
    fully checked pass.
    """
    header, _identity = _read_header(Path(path))
    return header


def _check_compatible(
    header: StoreHeader, library: GateLibrary, cost_model: CostModel
) -> None:
    expected_lib = library_fingerprint(library)
    if header.library_fingerprint != expected_lib:
        # Name the mismatching dimension before falling back to raw
        # fingerprints: a cross-radix or cross-width open should say so.
        space = library.space
        if header.radix != space.radix:
            raise StoreMismatchError(
                f"radix mismatch: store holds a radix-{header.radix} "
                f"closure, the given library is radix {space.radix}; "
                "rebuild the store with `repro precompute "
                f"--radix {space.radix}` for this library"
            )
        if header.n_qubits != library.n_qubits:
            raise StoreMismatchError(
                f"width mismatch: store holds a {header.n_qubits}-wire "
                f"closure, the given library spans {library.n_qubits} "
                "wires; rebuild the store with `repro precompute "
                f"--qubits {library.n_qubits}` for this library"
            )
        if header.library_family != library.family:
            raise StoreMismatchError(
                f"library mismatch: store was expanded under the "
                f"{header.library_family!r} gate family, the given "
                f"library is {library.family!r}; rebuild the store with "
                "`repro precompute` for this library"
            )
        raise StoreMismatchError(
            f"library mismatch: store was expanded under library "
            f"fingerprint {header.library_fingerprint[:12]}..., the given "
            f"{library!r} fingerprints {expected_lib[:12]}...; "
            "rebuild the store with `repro precompute` for this library"
        )
    expected_cost = cost_model_fingerprint(cost_model)
    if header.cost_fingerprint != expected_cost:
        raise StoreMismatchError(
            f"cost model mismatch: store was expanded under "
            f"{header.cost_model}, refusing to serve queries for "
            f"{cost_model}"
        )


def _load_split(
    header: StoreHeader,
    payload: memoryview,
    library: GateLibrary,
    cost_model: CostModel,
    cache_key: tuple | None = None,
) -> CascadeSearch:
    """Decode an already-validated (header, payload) pair."""
    _check_compatible(header, library, cost_model)
    if header.format_version == 1:
        arrays = _v1_arrays(header, payload)
        search = CascadeSearch.from_arrays(library, arrays, cost_model)
        if arrays.parents is not None:
            _check_parents(arrays, len(library))
        return search
    if header.format_version >= 3:
        chunks = _ChunkStore(header, payload, cache_key=cache_key)
        search = CascadeSearch.from_arrays(
            library, _v3_arrays(header, chunks), cost_model,
            shard_layout=header.shards,
        )
        index = _v3_remainder_index(header, chunks, cache_key=cache_key)
    else:
        search = CascadeSearch.from_arrays(
            library, _v2_arrays(header, payload), cost_model,
            shard_layout=header.shards,
        )
        index = _v2_remainder_index(header, payload, cache_key=cache_key)
    search.attach_remainder_index(header.expanded_to, index)
    return search


def loads_search(
    data: bytes,
    library: GateLibrary,
    cost_model: CostModel = UNIT_COST,
) -> CascadeSearch:
    """Rebuild a search from in-memory store bytes (checksum verified)."""
    header, payload = _split(data)
    return _load_split(header, payload, library, cost_model)


def load_search(
    path: str | Path,
    library: GateLibrary,
    cost_model: CostModel = UNIT_COST,
) -> CascadeSearch:
    """Load a store file back into a ready-to-query :class:`CascadeSearch`.

    v2 stores are memory-mapped: the call returns after reading the
    header and the (small) remainder index, and closure bytes are paged
    in only as queries touch them -- O(queries touched), not O(closure).
    The sha256 checksum is *not* verified on this lazy path (that would
    read every byte); run :func:`verify_store` or ``repro store verify``
    for a full integrity pass.  Legacy v1 stores are decoded eagerly
    into arrays, checksum included.

    Raises:
        StoreError: corrupted, truncated or unsupported file.
        StoreMismatchError: the store was expanded under a different
            library or cost model than the ones given.
    """
    path = Path(path)
    header, identity = _read_header(path)
    return _load_from_path(path, header, library, cost_model, identity)


def _load_from_path(
    path: Path,
    header: StoreHeader,
    library: GateLibrary,
    cost_model: CostModel,
    identity: tuple | None = None,
) -> CascadeSearch:
    """Load with an already-parsed header.

    The lazy v2/v3 path reuses *header* so the open costs a single
    header parse; *identity* (the file identity the header was read
    from) lets the mapping step refuse a concurrently-replaced file.
    The eager v1 path re-frames the bytes it reads anyway (the extra
    parse is noise next to decoding and checksumming the closure).
    """
    if header.format_version == 1:
        return loads_search(path.read_bytes(), library, cost_model)
    payload = _map_store(path, header, expected_identity=identity)
    return _load_split(
        header, payload, library, cost_model,
        cache_key=identity if identity is not None else _file_identity(path),
    )


def _map_store(
    path: Path, header: StoreHeader, expected_identity: tuple | None = None
) -> np.memmap:
    """Memory-map a v2/v3 store; validates framing and sizes, not bytes.

    The frame is read from a single file descriptor -- the same one the
    size check and the mapping use -- so the open itself can never mix
    two files.  When *expected_identity* is given (the identity
    :func:`_read_header` captured), a store that was atomically
    replaced between the header read and this call is detected and
    refused by name instead of surfacing as a baffling size or shape
    mismatch: ``repro serve``'s SIGHUP reload replaces store files
    exactly this way.
    """
    if header.format_version not in (2, 3):
        raise StoreVersionError(
            f"expected a mappable v2/v3 store, found format "
            f"{header.format_version}"
        )
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        if expected_identity is not None:
            identity = _identity_from_stat(path, stat)
            if identity != expected_identity:
                raise StoreError(
                    f"store {path} was replaced while being opened (a "
                    "concurrent save or SIGHUP reload swapped in a new "
                    "file after its header was read); retry the open to "
                    "load the new store"
                )
        handle.seek(len(MAGIC_PREFIX) + 1)
        hlen = int.from_bytes(handle.read(4), "little")
        payload_start = len(MAGIC_PREFIX) + 5 + hlen
        actual = stat.st_size - payload_start
        if header.format_version >= 3:
            _check_v3_header(header, actual)
        else:
            _check_v2_header(header, actual)
        # Mapping through the open handle (not the path) pins the very
        # inode that was statted; the map outlives the handle.
        return np.memmap(
            handle, dtype=np.uint8, mode="r", offset=payload_start
        )


def open_store(
    path: str | Path,
) -> tuple[StoreHeader, GateLibrary, CascadeSearch]:
    """Self-describing load: rebuild the library from the store header.

    Convenience for the CLI and services that hold only a store path:
    the library and cost model are reconstructed from the header (this
    only works for default-alphabet libraries) and the fingerprints are
    still verified against the rebuilt objects.  v2 stores open lazily
    (see :func:`load_search`).
    """
    path = Path(path)
    header, identity = _read_header(path)
    library = header.rebuild_library()
    search = _load_from_path(
        path, header, library, header.cost_model, identity
    )
    return header, library, search


def projected_shard_layout(
    path: str | Path, shard_bits: int
) -> tuple[list[int], int]:
    """Project a dedup-shard layout from a v2 store's rows (sizing aid).

    Hashes the stored permutations level by level through the
    memory-mapped ``perms`` section -- O(one level) of extra memory, so
    it stays usable on stores bigger than RAM headroom -- and returns
    ``(rows per shard, slab slots per shard at load <= 1/4)``.  `repro
    store shards --bits` uses this when a store carries no recorded
    layout.
    """
    from repro.core.dedup import MAX_SHARD_BITS, shard_of
    from repro.core.kernel import hash_rows, pack_rows

    if not 0 <= shard_bits <= MAX_SHARD_BITS:
        raise StoreError(
            f"shard bits must be in 0..{MAX_SHARD_BITS}, got {shard_bits}"
        )
    path = Path(path)
    header, identity = _read_header(path)
    if header.format_version < 2:
        raise StoreVersionError(
            "projecting a shard layout needs a memory-mapped v2/v3 store"
        )
    payload = _map_store(path, header, expected_identity=identity)
    if header.format_version >= 3:
        arrays = _v3_arrays(
            header, _ChunkStore(header, payload, cache_key=identity)
        )
    else:
        arrays = _v2_arrays(header, payload)
    counts = np.zeros(1 << shard_bits, dtype=np.int64)
    for level in range(header.expanded_to + 1):
        start, stop = arrays.level_rows(level)
        if start == stop:
            continue
        hashes = hash_rows(
            pack_rows(np.array(arrays.perms[start:stop]), header.degree)
        )
        counts += np.bincount(
            shard_of(hashes, shard_bits), minlength=1 << shard_bits
        )
    peak = int(counts.max()) if counts.size else 0
    slots = 1 << max(8, (4 * max(peak, 1) - 1).bit_length())
    return [int(c) for c in counts], slots


def verify_store(path: str | Path) -> StoreHeader:
    """Full integrity pass: framing, checksum, structure and witnesses.

    Reads the entire file (unlike the lazy v2/v3 open) and raises
    :class:`StoreError` on any corruption; returns the header on
    success.  On a parent-tracking store it also certifies one witness
    of every indexed function
    (:meth:`~repro.core.batch.BatchSynthesizer.certify_members`): the
    eager form of the check every served witness passes, so a store
    whose sections were altered under a rewritten digest fails here
    rather than at serve time.
    """
    data = Path(path).read_bytes()
    header, payload = _split(data)
    index: dict = {}
    if header.format_version == 1:
        arrays = _v1_arrays(header, payload)
    elif header.format_version >= 3:
        chunks = _ChunkStore(header, payload)
        # Decompress every chunk once: any codec error or raw-length
        # mismatch fails here, before the structural checks.
        for name, spans in header.chunks.items():
            for idx in range(len(spans)):
                chunks.chunk(name, idx)
        arrays = _v3_arrays(header, chunks)
        index = _v3_remainder_index(header, chunks)
    else:
        arrays = _v2_arrays(header, payload)
        index = _v2_remainder_index(header, payload)
    library = header.rebuild_library()
    # Full structural validation (identity row, offsets, shapes).
    search = CascadeSearch.from_arrays(
        library, arrays, header.cost_model, validate=True
    )
    if arrays.parents is not None:
        _check_parents(arrays, len(library))
    n = arrays.n_rows
    for remainder, (cost, rows) in index.items():
        if not 0 < cost <= header.expanded_to:
            raise StoreError(
                f"remainder index cost {cost} outside the stored bound"
            )
        if len(rows) and (
            int(rows.min()) < 1 or int(rows.max()) >= n
        ):
            raise StoreError("remainder index row outside the closure")
    if arrays.parents is not None:
        from repro.core.batch import BatchSynthesizer

        if index:
            search.attach_remainder_index(header.expanded_to, index)
        # A failed witness raises StoreCorruptError, a StoreError.
        BatchSynthesizer(search).certify_members(header.expanded_to)
    return header


def _check_parents(arrays: SearchArrays, n_gates: int) -> None:
    """Level-decreasing parents and in-range gate indices (vectorized).

    Every non-identity row must point to a parent in a strictly earlier
    level (which is what makes a parent walk terminate at the identity
    in at most ``cost`` steps) and name a library gate.
    """
    n = arrays.n_rows
    parents = np.asarray(arrays.parents)
    gates = np.asarray(arrays.gates)
    if n and (int(parents[0]) != -1 or int(gates[0]) != -1):
        raise StoreError("store identity row carries a parent pointer")
    child = parents[1:]
    if child.size:
        if int(child.min()) < 0 or int(child.max()) >= n:
            raise StoreError("store parent pointer outside the closure")
        offsets = np.asarray(arrays.level_offsets, dtype=np.int64)
        row_level = np.searchsorted(
            offsets, np.arange(1, n, dtype=np.int64), side="right"
        )
        parent_level = np.searchsorted(
            offsets, child.astype(np.int64), side="right"
        )
        if not (parent_level < row_level).all():
            raise StoreError("store parent pointer does not decrease cost")
        if int(gates[1:].min()) < 0 or int(gates[1:].max()) >= n_gates:
            raise StoreError(
                f"store gate index outside the {n_gates}-gate library"
            )


def migrate_store(
    src: str | Path,
    dst: str | Path,
    format_version: int = FORMAT_VERSION,
    codec: str | None = None,
) -> tuple[StoreHeader, StoreHeader]:
    """Rewrite a store (any readable version) in *format_version*.

    The source is read once and fully verified (checksum included)
    before writing.  Returns ``(source header, new header)``;
    fingerprints, bound and expansion timing are preserved, so the
    migrated store serves byte-identical query results.  *codec*
    selects the chunk codec when migrating to v3.
    """
    data = Path(src).read_bytes()
    src_header, payload = _split(data)
    library = src_header.rebuild_library()
    search = _load_split(src_header, payload, library, src_header.cost_model)
    dst_header = save_search(
        search, dst, format_version=format_version, codec=codec
    )
    return src_header, dst_header
