"""``repro precompute``, ``plan`` and ``store *``: write and inspect stores."""

from __future__ import annotations

import argparse
import sys


def add_parsers(sub) -> None:
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument(
        "--format-version", type=int, choices=(2, 3), default=None,
        help="store format to write (default: 2, the memory-mapped "
        "layout with the serialized remainder index; 3 compresses the "
        "sections per level and decompresses them on touch)",
    )
    formats.add_argument(
        "--codec", choices=("auto", "zstd", "zlib", "raw"), default=None,
        help="v3 section codec (default auto: zstd when available, "
        "else zlib; requires --format-version 3)",
    )

    p_pre = sub.add_parser(
        "precompute",
        help="expand the cascade closure once and save it as a store file",
        parents=[formats],
    )
    p_pre.add_argument("out", help="store file to write (e.g. closure.rpro)")
    p_pre.add_argument("--cost-bound", type=int, default=7)
    p_pre.add_argument("--qubits", type=int, default=3)
    p_pre.add_argument(
        "--radix", type=int, choices=(2, 3, 4), default=2,
        help="wire radix: 2 expands the paper's binary library "
        "(default); 3/4 expand the ternary (Di-Wei) / quaternary "
        "Muthukrishnan-Stroud digit libraries",
    )
    p_pre.add_argument(
        "--no-parents",
        action="store_true",
        help="counting-only store (smaller; serves costs/tables, no witnesses)",
    )
    p_pre.add_argument("--v-cost", type=int, default=1)
    p_pre.add_argument("--vdag-cost", type=int, default=1)
    p_pre.add_argument("--cnot-cost", type=int, default=1)
    p_pre.add_argument(
        "--extend",
        action="store_true",
        help="if OUT already exists, load it, deepen the closure to "
        "--cost-bound with the vectorized kernel, and re-save (library "
        "and cost-model flags must match the existing store)",
    )
    p_pre.add_argument(
        "--dedup-budget", metavar="SIZE", default=None,
        help="RAM budget for the dedup table (bytes, or 512M/2G); past "
        "it, per-shard slabs spill to disk-backed memmaps",
    )
    p_pre.add_argument(
        "--shard-bits", type=int, default=None, metavar="B",
        help="split the dedup keyspace into 2**B hash-prefix shards "
        "(default: 6)",
    )
    p_pre.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist completed levels + dedup slabs under DIR and "
        "resume from them after a crash (also the spill directory)",
    )
    p_pre.add_argument(
        "--progress", action="store_true",
        help="live one-line progress on stderr (TTY only) while the "
        "closure expands",
    )
    p_pre.add_argument(
        "--progress-log", metavar="FILE", default=None,
        help="append per-phase progress events (plan/generate/commit/"
        "level-end/spill/checkpoint) as NDJSON to FILE",
    )
    p_pre.set_defaults(handler=_cmd_precompute)

    p_info = sub.add_parser("store-info", help="print a store file's header")
    p_info.add_argument("file", help="store file written by `repro precompute`")
    p_info.set_defaults(handler=_cmd_store_info)

    p_store = sub.add_parser(
        "store", help="store maintenance: info / verify / migrate"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sinfo = store_sub.add_parser("info", help="print a store file's header")
    p_sinfo.add_argument("file")
    p_sinfo.set_defaults(handler=_cmd_store_info)
    p_shards = store_sub.add_parser(
        "shards",
        help="per-level row counts, section sizes and dedup-shard "
        "layout (for sizing --dedup-budget)",
    )
    p_shards.add_argument("file")
    p_shards.add_argument(
        "--bits", type=int, default=None, metavar="B",
        help="no recorded layout? project one by hashing the stored "
        "rows into 2**B shards",
    )
    p_shards.set_defaults(handler=_cmd_store_shards)
    p_sverify = store_sub.add_parser(
        "verify",
        help="full integrity pass: framing, sha256 checksum, invariants",
    )
    p_sverify.add_argument("file")
    p_sverify.set_defaults(handler=_cmd_store_verify)
    p_smigrate = store_sub.add_parser(
        "migrate",
        help="rewrite a store in another format (v1 -> v2 upgrade, "
        "v2 <-> v3 compress/decompress)",
        parents=[formats],
    )
    p_smigrate.add_argument("src", help="existing store file")
    p_smigrate.add_argument("dst", help="store file to write")
    p_smigrate.set_defaults(handler=_cmd_store_migrate)

    p_plan = sub.add_parser(
        "plan",
        help="size --shard-bits/--dedup-budget for a precompute run",
        description=(
            "Project the closure size for a cost bound and size the "
            "engine flags from this machine's available RAM.  An "
            "existing store seeds the projection with its recorded "
            "level sizes and shard skew."
        ),
    )
    p_plan.add_argument(
        "store", nargs="?", default=None,
        help="existing store whose level sizes seed the projection",
    )
    p_plan.add_argument(
        "--cost-bound", type=int, default=7,
        help="closure bound being planned (default: 7)",
    )
    p_plan.add_argument(
        "--memory", metavar="SIZE", default=None,
        help="plan for this much RAM (bytes, or 512M/8G/1.5GiB) "
        "instead of the detected available memory",
    )
    p_plan.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_plan.set_defaults(handler=_cmd_plan)


def _format_options(args) -> dict:
    """``--format-version``/``--codec`` as store-writer keywords ({} for
    the writer's default format)."""
    if args.codec is not None and args.format_version != 3:
        from repro.errors import SpecificationError

        raise SpecificationError(
            "--codec chooses the v3 section compression; it requires "
            "--format-version 3"
        )
    if args.format_version is None:
        return {}
    return {"format_version": args.format_version, "codec": args.codec}


def _kernel_options(args) -> dict:
    """The vector-engine tunables given by the precompute flags."""
    from repro.core.dedup import parse_budget

    options: dict = {}
    if args.dedup_budget is not None:
        options["memory_budget"] = parse_budget(args.dedup_budget)
    if args.shard_bits is not None:
        options["shard_bits"] = args.shard_bits
    if args.checkpoint_dir is not None:
        options["checkpoint_dir"] = args.checkpoint_dir
    return options


def _cmd_precompute(args) -> int:
    from pathlib import Path

    from repro.core.cost import CostModel
    from repro.core.search import CascadeSearch
    from repro.core.store import (
        cost_model_fingerprint,
        library_fingerprint,
        read_header,
    )
    from repro.errors import SpecificationError, StoreMismatchError
    from repro.gates.library import library_for
    from repro.io import open_store, save_search

    out, cost_bound, no_parents = args.out, args.cost_bound, args.no_parents
    format_options = _format_options(args)
    kernel_options = _kernel_options(args)
    # save_search writes next to OUT only after the whole expansion;
    # an unwritable place must fail before it.
    parent = Path(out).parent
    if not parent.is_dir():
        state = "is not a directory" if parent.exists() else "does not exist"
        raise SpecificationError(f"cannot write {out}: {parent} {state}")
    if args.radix != 2:
        if (args.v_cost, args.vdag_cost, args.cnot_cost) != (1, 1, 1):
            raise SpecificationError(
                "--v-cost/--vdag-cost/--cnot-cost tune the binary "
                "library; MV gate costs are fixed by the digit library "
                "(singles 1, controlled 2)"
            )
    library = library_for(args.qubits, args.radix)
    cost_model = CostModel(
        v_cost=args.v_cost, vdag_cost=args.vdag_cost, cnot_cost=args.cnot_cost
    )
    if args.extend and Path(out).exists():
        old = read_header(out)
        if old.library_fingerprint != library_fingerprint(library) or (
            old.cost_fingerprint != cost_model_fingerprint(cost_model)
        ):
            raise StoreMismatchError(
                f"{out} was expanded under a different library or cost "
                "model than the given flags; refusing to extend it"
            )
        if no_parents and old.track_parents:
            raise StoreMismatchError(
                f"{out} tracks parents but --no-parents was given; "
                "precompute a fresh counting-only store instead"
            )
        if not no_parents and not old.track_parents:
            raise StoreMismatchError(
                f"{out} is a counting-only store (no parents); extending "
                "it cannot add witnesses -- pass --no-parents to extend "
                "it as-is, or precompute a fresh parent-tracking store"
            )
        _header, library, search = open_store(out)
        search.set_kernel_options(kernel_options)
        previous = search.expanded_to
        if cost_bound <= previous:
            print(
                f"{out} already covers cost {previous} (>= {cost_bound}); "
                "nothing to extend"
            )
            return 0
        print(
            f"extending {out} from cost {previous} to {cost_bound} "
            "(vector kernel)"
        )
    else:
        previous = None
        search = CascadeSearch(
            library,
            cost_model,
            track_parents=not no_parents,
            kernel_options=kernel_options,
        )
        if search.was_restored and search.expanded_to:
            print(
                f"resumed checkpoint {args.checkpoint_dir} at cost "
                f"{search.expanded_to}"
            )
    reporter = None
    if args.progress or args.progress_log:
        from repro.telemetry import ProgressReporter, make_tty

        reporter = ProgressReporter(
            path=args.progress_log,
            tty=make_tty(args.progress and sys.stderr.isatty()),
        )
        reporter.emit(
            "start",
            degree=library.space.size,
            qubits=args.qubits,
            radix=args.radix,
            cost_bound=cost_bound,
            kernel="vector",
            track_parents=not no_parents,
            resumed_from=previous if previous is not None else 0,
        )
        search.set_progress(reporter)
    try:
        search.extend_to(cost_bound)
        stats = search.stats()
        if reporter is not None:
            reporter.emit(
                "done",
                levels=search.expanded_to,
                rows=stats.total_seen,
                elapsed_s=round(stats.elapsed_seconds, 6),
            )
        header = save_search(search, out, **format_options)
    finally:
        search.close()
        if reporter is not None:
            reporter.close()
    size = Path(out).stat().st_size
    verb = "extended" if previous is not None else "expanded"
    print(
        f"{verb} {library!r} to cost {cost_bound}: "
        f"{stats.total_seen} cascades in {stats.elapsed_seconds:.2f}s"
    )
    layout = header.shards
    if layout:
        spill = "disk-backed" if layout.get("spilled") else "in-RAM"
        print(
            f"dedup table: {1 << layout['shard_bits']} shards x "
            f"{layout['slab_slots']} slots ({spill})"
        )
    print(f"levels |B[k]|: {list(stats.level_sizes)}")
    print(
        f"wrote {out} ({size / 1e6:.1f} MB, format {header.format_version}, "
        f"parents {'yes' if header.track_parents else 'no'})"
    )
    print(f"library fingerprint {header.library_fingerprint[:16]}...")
    return 0


def _cmd_store_info(args) -> int:
    from repro.core.store import _compressed, _spans
    from repro.io import read_header

    path = args.file
    header = read_header(path)
    print(f"{path}: closure store, format {header.format_version}")
    if header.radix != 2:
        print(
            f"  library: {header.n_qubits} wires at radix {header.radix} "
            f"({header.radix}**{header.n_qubits} digit labels, "
            f"{header.library_family} gate family), "
            f"kinds {'/'.join(header.gate_kinds)}"
        )
    else:
        print(
            f"  library: {header.n_qubits} qubits, {header.degree} labels "
            f"(reduced={header.space_reduced}, "
            f"ordering={header.space_ordering}), "
            f"kinds {'/'.join(header.gate_kinds)}"
        )
    print(f"  library fingerprint: {header.library_fingerprint}")
    cm = header.cost_model
    if header.radix != 2:
        print("  cost model: digit library (singles 1, controlled 2)")
    else:
        print(
            f"  cost model: V={cm.v_cost} V+={cm.vdag_cost} "
            f"CNOT={cm.cnot_cost} NOT={cm.not_cost}"
            + (" (free)" if cm.not_cost == 0 else "")
        )
    if header.writer or header.kernel:
        kernel = f"{header.kernel} kernel" if header.kernel else "unknown kernel"
        writer = header.writer or "unknown writer"
        print(f"  written by: {writer} ({kernel})")
    else:
        print("  written by: not recorded (pre-provenance store)")
    print(
        f"  closure: cost bound {header.expanded_to}, "
        f"{header.total_seen} cascades, parents "
        f"{'tracked' if header.track_parents else 'not tracked'}"
    )
    print(f"  levels |B[k]|: {list(header.level_sizes)}")
    print(f"  expansion time: {header.elapsed_seconds:.2f}s")
    if header.format_version >= 2:
        # The layout comes off the span table: one span per v2 section,
        # one per v3 chunk.
        spans = _spans(header)
        if _compressed(header):
            stored = sum(s for entries in spans.values() for _, s, _ in entries)
            raw = sum(r for entries in spans.values() for *_, r in entries)
            ratio = stored / raw if raw else 1.0
            print(
                f"  layout: chunk-compressed v3 ({header.codec} codec, "
                "decompress-on-touch)"
            )
            print(
                f"  chunks: {sum(len(e) for e in spans.values())} "
                f"spans over {len(spans)} sections, "
                f"{stored / 1e6:.1f} MB compressed / {raw / 1e6:.1f} MB "
                f"raw ({ratio:.2f}x)"
            )
        else:
            print(
                "  layout: memory-mapped v2 (8-aligned sections, "
                "O(queries touched) open)"
            )
            print(
                "  sections: "
                + ", ".join(
                    f"{name}@{offset}+{raw}"
                    for name, ((offset, _, raw),) in spans.items()
                )
            )
        print(
            f"  remainder index: {header.index_entries} reversible "
            f"functions, {header.index_matches} minimal-cost witnesses "
            "(serialized; no closure scan on open)"
        )
        if header.shards:
            layout = header.shards
            rows = layout.get("rows_per_shard", [])
            print(
                f"  dedup shards: {1 << layout['shard_bits']} x "
                f"{layout['slab_slots']} slots, max {max(rows, default=0)} "
                f"rows/shard "
                f"({'disk-backed' if layout.get('spilled') else 'in-RAM'}; "
                "`repro store shards` for the full layout)"
            )
    else:
        print(
            "  layout: legacy v1 (eager byte records; "
            "`repro store migrate` upgrades to v2)"
        )
    return 0


def _cmd_store_shards(args) -> int:
    """Per-level rows, section sizes, shard layout -- budget sizing aid."""
    from repro.core.store import _compressed, _spans
    from repro.io import read_header
    from repro.render.tables import format_table

    path, bits = args.file, args.bits
    header = read_header(path)
    print(f"{path}: closure store, format {header.format_version}")
    offsets = header.level_row_offsets
    if offsets:
        rows = [
            [k, offsets[k], offsets[k + 1] - offsets[k]]
            for k in range(len(offsets) - 1)
        ]
        print(format_table(["level", "first row", "rows"], rows))
    else:
        print(f"  levels |B[k]|: {list(header.level_sizes)} (v1: no offsets)")
    if header.format_version >= 2:
        spans = _spans(header)
        if _compressed(header):
            columns = ["section", "chunks", "stored bytes", "raw bytes"]
            rows = [
                [
                    name,
                    len(entries),
                    sum(s for _, s, _ in entries),
                    sum(r for *_, r in entries),
                ]
                for name, entries in spans.items()
            ]
        else:
            columns = ["section", "offset", "bytes"]
            rows = [
                [name, offset, raw]
                for name, ((offset, _, raw),) in spans.items()
            ]
        print(format_table(columns, rows))
    layout = header.shards
    if not layout and bits is None and header.format_version >= 2:
        print(
            "no recorded shard layout (store not written by the vector "
            "engine); pass --bits B to project one"
        )
        return 0
    if layout and bits is None:
        per_shard = layout.get("rows_per_shard", [])
        shard_bits = layout["shard_bits"]
        slots = layout["slab_slots"]
        source = "recorded by the vector engine"
    else:
        if header.format_version < 2:
            print(
                "legacy v1 store: no mappable rows to project a shard "
                "layout from (`repro store migrate` first)"
            )
            return 0
        from repro.core.dedup import MAX_SHARD_BITS
        from repro.core.store import projected_shard_layout
        from repro.errors import SpecificationError

        shard_bits = 6 if bits is None else bits
        if not 0 <= shard_bits <= MAX_SHARD_BITS:
            raise SpecificationError(
                f"--bits must be in 0..{MAX_SHARD_BITS} (the engine's "
                f"supported shard range), got {shard_bits}"
            )
        per_shard, slots = projected_shard_layout(path, shard_bits)
        source = f"projected from the stored rows at --bits {shard_bits}"
    if per_shard:
        peak = max(per_shard)
        total_bytes = (1 << shard_bits) * slots * 8
        print(
            f"dedup shards ({source}): {1 << shard_bits} shards, "
            f"{slots} slots each"
        )
        print(
            f"  rows/shard: min {min(per_shard)}, max {peak}, "
            f"total {sum(per_shard)}"
        )
        print(
            f"  table bytes at load<=1/4: {total_bytes} "
            f"(--dedup-budget below this spills to disk)"
        )
    return 0


def _cmd_store_verify(args) -> int:
    from repro.io import verify_store

    header = verify_store(args.file)
    print(
        f"{args.file}: OK (format {header.format_version}, "
        f"{header.total_seen} cascades, sha256 verified)"
    )
    return 0


def _cmd_store_migrate(args) -> int:
    from pathlib import Path

    from repro.io import migrate_store

    src, dst = args.src, args.dst
    old, new = migrate_store(src, dst, **_format_options(args))
    detail = f"format {new.format_version}"
    if new.codec:
        detail += f", {new.codec}"
    print(
        f"migrated {src} (format {old.format_version}) -> {dst} "
        f"({detail}, {Path(dst).stat().st_size / 1e6:.1f} MB)"
    )
    print(
        f"  {new.total_seen} cascades to cost {new.expanded_to}, "
        f"remainder index: {new.index_entries} entries"
    )
    return 0


def _cmd_plan(args) -> int:
    from repro.core.dedup import parse_budget
    from repro.core.plan import plan_resources
    from repro.io import read_header

    header = None if args.store is None else read_header(args.store)
    memory_bytes = None if args.memory is None else parse_budget(args.memory)
    plan = plan_resources(
        args.cost_bound,
        header=header,
        memory_bytes=memory_bytes,
    )
    if args.json:
        import json

        print(json.dumps(plan.as_dict(), indent=2))
        return 0
    print(f"plan for cost bound {plan.cost_bound}:")
    print(f"  projected closure: {plan.projected_rows} cascades")
    mem = (
        "unknown" if plan.memory_bytes is None
        else f"{plan.memory_bytes / 1e9:.1f} GB"
    )
    print(
        f"  dedup table at load<=1/4: {plan.table_bytes / 1e6:.1f} MB "
        f"(available RAM: {mem})"
    )
    for note in plan.notes:
        print(f"  note: {note}")
    print(
        f"  --shard-bits {plan.shard_bits}  "
        f"--dedup-budget {plan.dedup_budget_text}"
        + ("  (slabs will spill to disk)" if plan.spills else "")
    )
    print(f"  {plan.command(args.store or 'closure.rpro')}")
    return 0
