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

**One span table, one reader, one streamer.**  Both mapped formats are
read and written through the same helpers.  :func:`_spans` presents a
v2 section as one uncompressed span ``(offset, length, length)`` over
all its rows and returns v3's ``chunks`` unchanged, so the layout check
(:func:`_check_layout`), the payload reader (:class:`_Payload`: a
zero-copy view of a raw v2 span, an inflate-on-touch for a v3 span)
and the payload streamer (:func:`_stream_payload`: padding, the
incremental sha256 and span recording for both writers) never ask
which format they serve.  The format decides only the span granularity
and whether spans are compressed (:func:`_compressed`), and the writer
framing: v2 writes its header first and patches the digest in place,
v3 spools its compressed spans before writing the header.

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

import bisect
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
    #: (``"vector"`` on every store written now; older stores may name
    #: a kernel that has since been removed) and the writing build
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
    if _compressed(header):
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
    from repro.core.fmcf import remainder_index

    index = remainder_index(search, cost_bound)
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


def _compressed(header: StoreHeader) -> bool:
    """Whether a mapped store compresses its spans.

    This also decides the span granularity: v3 compresses every span
    and splits each row section into one span per level, v2 stores
    each section as one raw span.
    """
    return header.format_version == 3


def _spans(header: StoreHeader) -> dict[str, tuple[tuple[int, int, int], ...]]:
    """The span table: section name -> ``(offset, stored, raw)`` spans.

    A v2 section is one uncompressed span over all its rows (stored
    length == raw length); a v3 section is its ``chunks`` list.
    """
    if _compressed(header):
        return header.chunks
    return {
        name: ((offset, length, length),)
        for name, (offset, length) in header.sections.items()
    }


def _span_rows(header: StoreHeader) -> tuple[int, ...]:
    """Rows per span of a row section (see :func:`_compressed`)."""
    if _compressed(header):
        return header.level_sizes
    return (sum(header.level_sizes),)


def _section_lengths(header: StoreHeader) -> dict[str, list[int]]:
    """Raw byte length of every span of every section, in payload order.

    Fully determined by the row/entry counts: a row section has one
    span per entry of :func:`_span_rows`, an index section one span.
    """
    row_bytes = {"perms": header.degree, "masks": 8 * header.mask_words}
    if header.track_parents:
        row_bytes.update(parents=4, gates=4)
    entries = header.index_entries
    index_bytes = {
        "rkeys": entries * header.n_binary,
        "rcosts": entries * 4,
        "rindptr": (entries + 1) * 8,
        "rmatches": header.index_matches * 4,
    }
    lengths: dict[str, list[int]] = {}
    for name in _SECTIONS:
        if name in row_bytes:
            lengths[name] = [
                rows * row_bytes[name] for rows in _span_rows(header)
            ]
        elif name in index_bytes:
            lengths[name] = [index_bytes[name]]
    return lengths


def _closure_header(
    search: CascadeSearch, arrays: SearchArrays, format_version: int
) -> tuple[StoreHeader, dict[str, bytes]]:
    """The header of *search*'s store, less its payload layout and
    digest, plus the raw bytes of the four ``r*`` index sections."""
    index_blobs, index_sha, entries, matches = _index_blobs(
        search, arrays.expanded_to
    )
    library = search.library
    header = StoreHeader(
        format_version=format_version,
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
        payload_size=0,
        payload_sha256=_SHA_PLACEHOLDER,
        kernel="vector",
        writer=_writer_tag(),
        mask_words=arrays.mask_words,
        level_row_offsets=tuple(int(o) for o in arrays.level_offsets),
        index_entries=entries,
        index_matches=matches,
        index_sha256=index_sha,
        shards=search.shard_layout() or {},
        radix=library.space.radix,
        library_family=library.family,
    )
    return header, index_blobs


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


#: Placeholder digest patched in place by the v2 writer (same length as
#: a real sha256 hex digest, so the header size is stable).
_SHA_PLACEHOLDER = "0" * 64

#: Rows per piece of a v2 span (bounds the v2 writer's extra RSS).
_STREAM_ROWS = 1 << 16


def _row_pieces(arrays, name: str, start: int, stop: int, step: int):
    """Rows ``start:stop`` of one row section in pieces of *step* rows."""
    for lo in range(start, stop, step):
        yield _row_bytes(arrays, name, lo, min(lo + step, stop))


def _payload_spans(
    arrays: SearchArrays,
    index_blobs: dict[str, bytes],
    span_rows: tuple[int, ...],
    piece_rows: int | None,
):
    """Yield ``(name, raw pieces)`` per span, in payload order.

    Row sections are cut into spans of *span_rows* rows each and every
    span into pieces of at most *piece_rows* rows (None: one piece per
    span); each index section is one span of one piece.
    """
    for name in _SECTIONS:
        if name in index_blobs:
            yield name, (index_blobs[name],)
            continue
        if getattr(arrays, name) is None:
            continue
        start = 0
        for rows in span_rows:
            step = piece_rows or max(rows, 1)
            yield name, _row_pieces(arrays, name, start, start + rows, step)
            start += rows


def _stream_payload(out, spans, encode):
    """Write *spans* (from :func:`_payload_spans`) to *out*.

    Every span starts 8-aligned (zero padding) and each of its pieces
    is written as ``encode(piece)``; the bytes flow through one
    incremental sha256.  Returns ``(span table, payload size, sha256
    hex digest)``, the table in :func:`_spans` form.  Peak extra memory
    is one encoded piece.

    Each piece is hashed on a single worker thread while this thread
    writes it (sha256 and file writes both release the GIL); the
    update finishes before the next piece starts, so the digest sees
    the payload in order.  The worker is joined before this returns.
    """
    digest = hashlib.sha256()
    table: dict[str, list[tuple[int, int, int]]] = {}
    offset = 0
    with ThreadPoolExecutor(1, "repro-digest") as hasher:

        def put(blob: bytes) -> None:
            hashed = hasher.submit(digest.update, blob)
            out.write(blob)
            hashed.result()

        for name, pieces in spans:
            pad = b"\x00" * ((-offset) % _ALIGN)
            put(pad)
            start = offset = offset + len(pad)
            raw_len = 0
            for raw in pieces:
                blob = encode(raw) if raw else b""
                put(blob)
                offset += len(blob)
                raw_len += len(raw)
            table.setdefault(name, []).append((start, offset - start, raw_len))
    return (
        {name: tuple(entries) for name, entries in table.items()},
        offset,
        digest.hexdigest(),
    )


def _write_v2(
    search: CascadeSearch, out, codec: str | None = None, spool_dir=None
) -> StoreHeader:
    """Write a v2 store to the seekable binary handle *out*.

    The section plan is computed from the row counts up front, so the
    header goes first; the payload streams in :data:`_STREAM_ROWS`-row
    pieces and the header's placeholder digest is patched in place at
    the end.  Peak extra memory is one piece instead of a whole second
    copy of the closure -- the property that lets a budgeted expansion
    write stores bigger than RAM headroom.  *codec* and *spool_dir*
    only matter to v3.
    """
    arrays = search.export_arrays()
    header, index_blobs = _closure_header(search, arrays, 2)
    sections: dict[str, tuple[int, int]] = {}
    size = 0
    for name, (length,) in _section_lengths(header).items():
        size += (-size) % _ALIGN
        sections[name] = (size, length)
        size += length
    header = replace(header, sections=sections, payload_size=size)
    frame = _frame_header(header)
    sha_at = out.tell() + frame.index(_SHA_PLACEHOLDER.encode())
    out.write(frame)
    table, _size, sha = _stream_payload(
        out,
        _payload_spans(arrays, index_blobs, _span_rows(header), _STREAM_ROWS),
        lambda raw: raw,
    )
    if table != _spans(header):
        raise StoreError("streamed payload does not match its section plan")
    # Patch the placeholder digest in place; same length, so every
    # other byte is untouched.
    end = out.tell()
    out.seek(sha_at)
    out.write(sha.encode())
    out.seek(end)
    return replace(header, payload_sha256=sha)


def _write_v3(
    search: CascadeSearch, out, codec: str | None = None, spool_dir=None
) -> StoreHeader:
    """Write a v3 store to the binary handle *out*, chunk by chunk.

    Each level of each row section, and each index section, is one
    span compressed whole with *codec* (``None`` = best available).
    Span sizes are only known after compression, so the payload first
    streams to an anonymous spool file in *spool_dir* (the system temp
    directory when None); the framed header and the spooled payload
    are then copied to *out*.  Peak extra memory is one level's chunk.
    """
    codec_name = resolve_codec(codec)
    compress = _codec_fns(codec_name)[0]
    arrays = search.export_arrays()
    header, index_blobs = _closure_header(search, arrays, 3)
    with tempfile.TemporaryFile(dir=spool_dir) as spool:
        chunks, size, sha = _stream_payload(
            spool,
            _payload_spans(arrays, index_blobs, _span_rows(header), None),
            compress,
        )
        header = replace(
            header, codec=codec_name, chunks=chunks,
            payload_size=size, payload_sha256=sha,
        )
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


#: Bytes before the JSON header: magic (with its format byte) + hlen.
_PREFIX = len(MAGIC_PREFIX) + 5


def _payload_start(prefix: bytes) -> int:
    """Validate a store's magic + length prefix; return the offset at
    which its payload starts (the end of the JSON header)."""
    magic = prefix[: len(MAGIC_PREFIX) + 1]
    if len(magic) < len(MAGIC_PREFIX) + 1 or not magic.startswith(
        MAGIC_PREFIX
    ):
        raise StoreError("not a closure store (bad magic)")
    if magic[-1] not in SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"store format {magic[-1]} is not supported (this build "
            f"reads formats {SUPPORTED_VERSIONS})"
        )
    if len(prefix) < _PREFIX:
        raise StoreError("truncated store header")
    return _PREFIX + int.from_bytes(prefix[_PREFIX - 4 : _PREFIX], "little")


def _parse_frame(data: bytes) -> tuple[StoreHeader, int]:
    """Parse magic + header; return (header, payload start offset)."""
    start = _payload_start(data[:_PREFIX])
    if len(data) < start:
        raise StoreError("truncated store header")
    try:
        raw = json.loads(data[_PREFIX:start])
    except ValueError:
        raise StoreError("store header is not valid JSON") from None
    header = _header_from_dict(raw)
    if header.format_version not in SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"store format {header.format_version} is not supported "
            f"(this build reads formats {SUPPORTED_VERSIONS})"
        )
    magic_version = data[len(MAGIC_PREFIX)]
    if header.format_version != magic_version:
        raise StoreError(
            f"store magic says format {magic_version} but the header "
            f"says {header.format_version}"
        )
    return header, start


def _check_sizes(header: StoreHeader, payload_size: int) -> None:
    """Payload size and level count, checked alike for every format."""
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


def _check_v1_payload(header: StoreHeader, payload: memoryview) -> None:
    _check_sizes(header, len(payload))
    record = header.degree + header.mask_bytes
    expected = header.total_seen * record
    if header.track_parents:
        expected += (header.total_seen - 1) * _V1_PARENT.itemsize
    if header.payload_size != expected:
        raise StoreError(
            f"payload size {header.payload_size} inconsistent with "
            f"{header.total_seen} records of {record} bytes"
        )


def _check_layout(header: StoreHeader, payload_size: int) -> None:
    """Structural sanity of a v2/v3 header against the payload size.

    The level table must add up, and every span of the span table must
    have the raw length the row/entry counts fix and lie inside the
    payload.  Stored lengths are only bounded: a codec decides them
    (for a raw v2 span they equal the raw length).
    """
    _check_sizes(header, payload_size)
    offsets = header.level_row_offsets
    if len(offsets) != header.expanded_to + 2 or offsets[0] != 0:
        raise StoreError("store level offset table is malformed")
    for k, size in enumerate(header.level_sizes):
        if offsets[k + 1] - offsets[k] != size:
            raise StoreError(
                f"level {k} offsets disagree with its recorded size"
            )
    if header.mask_words < 1:
        raise StoreError("store mask_words must be positive")
    compressed = _compressed(header)
    if compressed and header.codec not in V3_CODECS:
        raise StoreError(f"store names unknown codec {header.codec!r}")
    table = _spans(header)
    for name, expected in _section_lengths(header).items():
        spans = table.get(name)
        if spans is None:
            raise StoreError(f"store is missing its {name!r} section")
        if len(spans) != len(expected):
            raise StoreError(
                f"store section {name!r} has {len(spans)} chunks, "
                f"expected {len(expected)}"
            )
        for idx, ((offset, stored, raw), size) in enumerate(
            zip(spans, expected)
        ):
            where = f"chunk {name!r}[{idx}]" if compressed else (
                f"section {name!r}"
            )
            if raw != size:
                verb = "decodes to" if compressed else "is"
                raise StoreError(
                    f"store {where} {verb} {raw} bytes, expected {size}"
                )
            if offset < 0 or stored < 0 or (
                offset + stored > header.payload_size
            ):
                raise StoreError(f"store {where} lies outside the payload")


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


# -- mapped reading (v2 and v3 spans) --------------------------------------------------


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


class _Payload:
    """Span-by-span access to one mapped store payload.

    Holds the payload -- a memmap for file opens, so the inode stays
    pinned across atomic replaces -- and hands out single spans of the
    span table (:func:`_spans`) as read-only ndarrays.  A raw v2 span
    is a zero-copy view of the payload; a compressed v3 span inflates
    on touch through the process-wide :data:`_SECTION_CACHE` (when a
    *cache_key* file identity is given).
    """

    def __init__(
        self, header: StoreHeader, payload, cache_key: tuple | None = None
    ):
        self.spans = _spans(header)
        self.cache_key = cache_key
        self.compressed = _compressed(header)
        self._payload = payload
        self._codec = header.codec
        if self.compressed:
            _compress, self._decompress = _codec_fns(header.codec)

    def span(self, name: str, idx: int, dtype=np.uint8, width=None):
        """Span *idx* of section *name* as a flat or ``(rows, width)``
        array of *dtype* (an explicit little-endian spec such as
        ``"<u8"``: sections are little-endian on disk)."""
        if self.compressed:
            view = np.frombuffer(self._inflate(name, idx), dtype=np.uint8)
        else:
            offset, length, _raw = self.spans[name][idx]
            view = np.frombuffer(
                self._payload, dtype=np.uint8, count=length, offset=offset
            )
        arr = view.view(np.dtype(dtype))
        return arr if width is None else arr.reshape(-1, width)

    def _inflate(self, name: str, idx: int) -> bytes:
        """The decompressed bytes of one span (cached per process)."""
        offset, stored, raw_len = self.spans[name][idx]
        key = None
        if self.cache_key is not None:
            key = (self.cache_key, name, idx)
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
                f"({self._codec}): {exc}"
            ) from None
        if len(raw) != raw_len:
            raise StoreError(
                f"store chunk {name!r}[{idx}] decompressed to "
                f"{len(raw)} bytes, header says {raw_len}"
            )
        if key is not None:
            _SECTION_CACHE.put(key, raw)
        return raw


class _LazyChunkedArray:
    """Read-only, ndarray-like view over a v3 array's per-level chunks.

    Implements exactly the access surface the query paths use on raw
    :class:`SearchArrays` members -- ``shape``/``dtype``, integer row
    indexing, ``item`` (one element as a Python scalar, the witness
    walk's read), contiguous row slices, and whole-array
    materialization via ``__array__`` (used by eager consumers such as
    migration and ``verify_store``).  Rows decompress level by level on
    first touch, so open + first query stays O(chunks touched) at any
    closure size.
    """

    def __init__(
        self,
        payload: _Payload,
        name: str,
        dtype,
        width: int | None,
        level_offsets,
    ):
        self._payload = payload
        self._name = name
        self.dtype = np.dtype(dtype)
        self._width = width
        self._offsets = np.asarray(level_offsets, dtype=np.int64).tolist()
        n = self._offsets[-1]
        self.shape = (n,) if width is None else (n, width)
        self.ndim = len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def _level_of(self, row: int) -> int:
        return bisect.bisect_right(self._offsets, row) - 1

    def _level(self, k: int):
        return self._payload.span(self._name, k, self.dtype, self._width)

    def _locate(self, key) -> tuple[int, int]:
        """``(level, row within the level)`` of integer index *key*."""
        n = self.shape[0]
        row = int(key)
        if row < 0:
            row += n
        if not 0 <= row < n:
            raise IndexError(f"row {key} outside the {n}-row closure")
        k = self._level_of(row)
        return k, row - self._offsets[k]

    def __getitem__(self, key):
        n = self.shape[0]
        if isinstance(key, (int, np.integer)):
            k, local = self._locate(key)
            return self._level(k)[local]
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
                base = self._offsets[first]
                return self._level(first)[start - base : stop - base]
            parts = []
            for k in range(first, last + 1):
                lo = max(start, self._offsets[k])
                hi = min(stop, self._offsets[k + 1])
                if lo < hi:
                    base = self._offsets[k]
                    parts.append(self._level(k)[lo - base : hi - base])
            return np.concatenate(parts)
        raise TypeError(
            f"chunked store arrays take int or slice indices, not "
            f"{type(key).__name__}"
        )

    def item(self, row: int):
        """Element *row* of a one-dimensional array, as a Python scalar."""
        k, local = self._locate(row)
        return self._level(k).item(local)

    def __array__(self, dtype=None, copy=None):
        full = self[0 : self.shape[0]]
        if dtype is not None and np.dtype(dtype) != full.dtype:
            return full.astype(dtype)
        return np.asarray(full)


def _arrays(header: StoreHeader, payload: _Payload) -> SearchArrays:
    """SearchArrays over a mapped payload.

    A raw v2 section is one span, served as a direct view of the map;
    compressed v3 sections are per-level spans behind
    :class:`_LazyChunkedArray`, which inflates them on touch.
    """
    offsets = np.asarray(header.level_row_offsets, dtype=np.int64)

    def rows(name: str, width=None):
        dtype = _ROW_DTYPES[name]
        if payload.compressed:
            return _LazyChunkedArray(payload, name, dtype, width, offsets)
        return payload.span(name, 0, dtype, width)

    parents = gates = None
    if header.track_parents:
        parents = rows("parents")
        gates = rows("gates")
    return SearchArrays(
        expanded_to=header.expanded_to,
        degree=header.degree,
        n_binary=header.n_binary,
        mask_words=header.mask_words,
        level_offsets=offsets,
        perms=rows("perms", header.degree),
        masks=rows("masks", header.mask_words),
        parents=parents,
        gates=gates,
        elapsed_seconds=header.elapsed_seconds,
    )


def _remainder_index(header: StoreHeader, payload: _Payload) -> dict:
    """Deserialize the remainder index; verifies its per-section hashes.

    These sections are small and read eagerly, so the checksum pass is
    cheap -- corruption of the index fails loudly even on the lazy
    memory-mapped open (closure sections are only covered by the full
    :func:`verify_store` pass).  The ``index_sha256`` digests cover the
    raw section bytes, so v2 and v3 record and check the same values.
    With a file identity as the payload's ``cache_key``, a successful
    verification is remembered per process, so repeated opens of the
    same unchanged file -- e.g. consecutive ``precompute --extend``
    rounds -- skip re-hashing the sections.
    """
    sections = {
        name: payload.span(name, 0)
        for name in ("rkeys", "rcosts", "rindptr", "rmatches")
    }
    cache_key = payload.cache_key
    verified = (
        cache_key is not None
        and _INDEX_VERIFIED.get(cache_key) == header.index_sha256
    )
    if not verified:
        for name, expected in header.index_sha256.items():
            section = sections.get(name)
            if section is None or (
                hashlib.sha256(section).hexdigest() != expected
            ):
                raise StoreError(
                    f"store section {name!r} fails its sha256 checksum"
                )
        if cache_key is not None:
            while len(_INDEX_VERIFIED) >= _INDEX_VERIFIED_MAX:
                _INDEX_VERIFIED.pop(next(iter(_INDEX_VERIFIED)))
            _INDEX_VERIFIED[cache_key] = dict(header.index_sha256)
    width = header.n_binary
    keys = sections["rkeys"].tobytes()
    costs = sections["rcosts"].view("<i4")
    indptr = sections["rindptr"].view("<i8")
    matches = sections["rmatches"].view("<i4")
    index: dict[bytes, tuple[int, np.ndarray]] = {}
    for e in range(header.index_entries):
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
        _check_layout(header, len(payload))
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
        prefix = handle.read(_PREFIX)
        blob = handle.read(_payload_start(prefix) - _PREFIX)
    header, _start = _parse_frame(prefix + blob)
    return header, identity


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
    mapped = _Payload(header, payload, cache_key=cache_key)
    search = CascadeSearch.from_arrays(
        library, _arrays(header, mapped), cost_model,
        shard_layout=header.shards,
    )
    index = _remainder_index(header, mapped)
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
    if header.format_version == 1:
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
        payload_start = _payload_start(handle.read(_PREFIX))
        _check_layout(header, stat.st_size - payload_start)
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
    if header.format_version == 1:
        raise StoreVersionError(
            "projecting a shard layout needs a memory-mapped v2/v3 store"
        )
    payload = _map_store(path, header, expected_identity=identity)
    arrays = _arrays(header, _Payload(header, payload, cache_key=identity))
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
    else:
        mapped = _Payload(header, payload)
        # Read every span once: any codec error or raw-length mismatch
        # fails here, before the structural checks (a raw v2 span is a
        # free view).
        for name, spans in mapped.spans.items():
            for idx in range(len(spans)):
                mapped.span(name, idx)
        arrays = _arrays(header, mapped)
        index = _remainder_index(header, mapped)
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
