"""Command-line interface: regenerate the paper's artifacts from a shell.

Examples::

    repro table1                      # Ctrl-V truth table (paper Table 1)
    repro table2 --cost-bound 7      # cost spectrum (paper Table 2)
    repro synth toffoli --all        # Figure 9's four implementations
    repro synth "(5,7,6,8)"          # arbitrary target by cycle notation
    repro peres-family               # the Section 5 G[4] analysis
    repro banned-sets                # Section 3's N_A .. N_BC and L_A .. L_BC
    repro compare                    # baseline-vs-direct cost table
    repro rng --bits 32 --seed 7     # controlled quantum RNG demo

Precompute-then-serve workflow (the closure is expanded once, then any
number of synthesis queries are answered against the stored artifact;
format-v2 stores are memory-mapped, so serving opens in milliseconds)::

    repro precompute closure.rpro            # expand + save the closure
    repro precompute closure.rpro --jobs 4   # 4 compose workers
    repro precompute big.rpro --jobs 8 --dedup-budget 512M \\
        --checkpoint-dir ck/                 # disk-backed dedup + resume
    repro precompute closure.rpro --extend --cost-bound 8   # deepen it
    repro precompute small.rpro --format-version 3           # compressed v3
    repro plan --cost-bound 8                # size --jobs/--shard-bits/budget
    repro plan closure.rpro --cost-bound 9   # ... seeded by a real store
    repro store info closure.rpro            # peek at a store's header
    repro store shards closure.rpro          # per-level/shard layout
    repro store verify closure.rpro          # full checksum pass
    repro store migrate old.rpro new.rpro    # rewrite v1 as v2
    repro store migrate big.rpro small.rpro --format-version 3  # compress
    repro synth toffoli --store closure.rpro # query without re-expanding
    repro synth --store closure.rpro --batch targets.txt --save out.json
    repro table2 --store closure.rpro        # Table 2 from the store

Long-lived serving (one process keeps any number of stores open and
answers queries over HTTP/1.1 + newline-delimited JSON, on TCP and/or
a UNIX socket; see :mod:`repro.server`)::

    repro serve closure.rpro --port 7205     # SIGHUP reloads the stores
    repro serve fast=c5.rpro deep=c7.rpro --unix /tmp/repro.sock \\
        --access-log /var/log/repro-access.ndjson
    repro serve --store-dir stores/          # every *.rpro, rescan on SIGHUP
    repro synth toffoli --server 127.0.0.1:7205
    repro synth toffoli --server unix:/tmp/repro.sock --store-alias deep
    repro synth --server :7205 --batch targets.txt
    curl http://127.0.0.1:7205/healthz       # incl. p50/p90/p99 timings

Load testing and trace replay (the scenario engine; named traffic
shapes live in ``scenarios/``, see :mod:`repro.scenario`)::

    repro load steady_interactive --server :7205 --seed 7
    repro load scenarios/bursty_batch.toml --server :7205 --json out.json
    repro load steady_interactive --dry-run --seed 7   # the exact stream
    repro replay access.ndjson --server :7205 --golden closure.rpro
    repro fleet status :7300 --json          # machine-readable fleet state
"""

from __future__ import annotations

import argparse
import random
import sys

from repro._version import __version__
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Exact synthesis of 3-qubit quantum circuits from non-binary "
            "gates (Yang/Hung/Song/Perkowski, DATE 2005) -- reproduction CLI."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="2-qubit Ctrl-V truth table (Table 1)")

    p_table2 = sub.add_parser("table2", help="cost spectrum |G[k]| (Table 2)")
    p_table2.add_argument(
        "--cost-bound", type=int, default=None,
        help="highest cost level (default: 7, or a store's full bound)",
    )
    p_table2.add_argument(
        "--paper-pseudocode",
        action="store_true",
        help="reproduce the published pseudocode verbatim (no G[0] subtraction)",
    )
    p_table2.add_argument(
        "--store", metavar="FILE", default=None,
        help="serve the table from a precomputed closure store",
    )

    p_synth = sub.add_parser("synth", help="synthesize a reversible target")
    p_synth.add_argument(
        "target",
        nargs="?",
        default=None,
        help="named target (toffoli, peres, fredkin, g2..g4, ...) or "
        "1-based cycle notation like '(5,7,6,8)'; omit with --batch",
    )
    p_synth.add_argument("--all", action="store_true", help="all implementations")
    p_synth.add_argument(
        "--cost-bound", type=int, default=None,
        help="abandon the search beyond this cost "
        "(default: 7, or a store's full bound)",
    )
    p_synth.add_argument(
        "--save", metavar="FILE", default=None,
        help="write the (first) result -- or the whole batch -- to a JSON file",
    )
    p_synth.add_argument(
        "--store", metavar="FILE", default=None,
        help="answer from a precomputed closure store (no re-expansion)",
    )
    p_synth.add_argument(
        "--batch", metavar="FILE", default=None,
        help="synthesize every target listed in FILE (one spec per line)",
    )
    p_synth.add_argument(
        "--server", metavar="ADDR", default=None,
        help="answer from a running `repro serve` instance "
        "(HOST:PORT or unix:PATH; mutually exclusive with --store)",
    )
    p_synth.add_argument(
        "--store-alias", metavar="NAME", default=None,
        help="route to this store on a multi-store server "
        "(an alias or LIBFP:COSTFP fingerprints; requires --server)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="long-lived synthesis service over precomputed stores",
        description=(
            "Serve synth / synth-batch / cost-table / store-info / healthz "
            "from shared read-only closures (HTTP/1.1 + newline-"
            "delimited JSON, sniffed per connection, on TCP and/or a UNIX "
            "socket).  Several stores may be served at once -- requests "
            "route by alias or fingerprint via the optional 'store' "
            "field.  SIGHUP reloads every store (and rescans --store-dir) "
            "atomically; SIGINT/SIGTERM shut down gracefully."
        ),
    )
    p_serve.add_argument(
        "stores", nargs="*", metavar="STORE",
        help="store files written by `repro precompute`, each PATH or "
        "ALIAS=PATH (default alias: the file stem)",
    )
    p_serve.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="also serve every *.rpro file in DIR (rescanned on SIGHUP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7205; 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also listen on a UNIX socket at PATH (same protocol)",
    )
    p_serve.add_argument(
        "--no-tcp", action="store_true",
        help="do not bind the TCP listener (requires --unix)",
    )
    p_serve.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="append one NDJSON record per request (op, store, queue "
        "wait, execute time, outcome) to FILE",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="query worker threads (default: 2)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=None,
        help="request-coalescing limit per dispatch (default: 64)",
    )
    p_serve.add_argument(
        "--cost-bound", type=int, default=None,
        help="serve only costs up to this bound (default: each store's)",
    )
    p_serve.add_argument(
        "--access-log-max-bytes", metavar="SIZE", default=None,
        help="rotate the access log when it reaches SIZE (bytes, or "
        "K/M/G suffix); rotated files are FILE.1 (newest) .. FILE.N",
    )
    p_serve.add_argument(
        "--access-log-keep", type=int, default=None,
        help="rotated access-log files to keep (default: 3)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to SECONDS for in-flight "
        "requests to finish before closing connections (default: 5)",
    )
    p_serve.add_argument(
        "--fault", metavar="SPEC", default=None,
        help="inject a deterministic fault for chaos testing: "
        "exit-after:N | hang:OP | slow:MS | reset-conn:P "
        "(comma-separate several)",
    )
    p_serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for probabilistic fault injection (default: 0)",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="supervised replica fleet behind a retrying router",
        description=(
            "Run several `repro serve` replicas behind one front "
            "address.  The router consistent-hashes by store, retries "
            "idempotent queries across replicas behind per-backend "
            "circuit breakers, and sheds load when every replica is "
            "saturated; the supervisor restarts dead replicas, ejects "
            "slow ones, and re-admits them after a healthy probe, "
            "logging every decision to an NDJSON ops log."
        ),
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fserve = fleet_sub.add_parser(
        "serve", help="spawn replicas and serve through the router"
    )
    p_fserve.add_argument(
        "stores", nargs="*", metavar="STORE",
        help="store files, each PATH or ALIAS=PATH (as `repro serve`)",
    )
    p_fserve.add_argument("--store-dir", metavar="DIR", default=None)
    p_fserve.add_argument(
        "--replicas", type=int, default=2,
        help="backend processes to spawn (default: 2)",
    )
    p_fserve.add_argument("--host", default="127.0.0.1")
    p_fserve.add_argument(
        "--port", type=int, default=None,
        help="router TCP port (default: 7205; 0 picks an ephemeral port)",
    )
    p_fserve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also listen on a UNIX socket at PATH",
    )
    p_fserve.add_argument(
        "--no-tcp", action="store_true",
        help="do not bind the TCP listener (requires --unix)",
    )
    p_fserve.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="directory for backend sockets, access logs, and the ops "
        "log (default: a fresh temp dir, printed at startup)",
    )
    p_fserve.add_argument(
        "--ops-log", metavar="FILE", default=None,
        help="supervisor decision log, NDJSON (default: RUN_DIR/ops.ndjson)",
    )
    p_fserve.add_argument("--workers", type=int, default=None)
    p_fserve.add_argument("--max-batch", type=int, default=None)
    p_fserve.add_argument("--cost-bound", type=int, default=None)
    p_fserve.add_argument(
        "--retries", type=int, default=None,
        help="router retry/failover attempts beyond the first (default: 2)",
    )
    p_fserve.add_argument(
        "--attempt-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt timeout before failing over (default: 30)",
    )
    p_fserve.add_argument(
        "--max-inflight", type=int, default=None,
        help="per-backend concurrent request bound; beyond it the "
        "fleet sheds with FLEET_OVERLOADED (default: 32)",
    )
    p_fserve.add_argument(
        "--min-healthy", type=int, default=None,
        help="supervisor guardrail: never eject/restart below this "
        "many healthy replicas (default: 1)",
    )
    p_fserve.add_argument(
        "--restart-budget", type=int, default=None,
        help="supervised restarts allowed per backend per minute "
        "(default: 3)",
    )
    p_fserve.add_argument(
        "--fault", action="append", metavar="INDEX:SPEC", default=None,
        help="chaos: inject SPEC into replica INDEX's first spawn, "
        "e.g. 0:exit-after:20 (repeatable; restarts come back clean)",
    )
    p_fserve.add_argument("--fault-seed", type=int, default=0)
    p_fstatus = fleet_sub.add_parser(
        "status", help="print a fleet's healthz (router + per-backend)"
    )
    p_fstatus.add_argument(
        "address", metavar="ADDR",
        help="router address: HOST:PORT or unix:PATH",
    )
    p_fstatus.add_argument(
        "--json", action="store_true", help="raw JSON payload"
    )

    p_pre = sub.add_parser(
        "precompute",
        help="expand the cascade closure once and save it as a store file",
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
        "--kernel", choices=("vector", "translate"), default=None,
        help="expansion kernel (vector: the NumPy engine with sharded "
        "dedup, default; translate: the byte-level reference loop, "
        "which takes none of --jobs/--dedup-budget/--shard-bits/"
        "--checkpoint-dir)",
    )
    p_pre.add_argument(
        "--format-version", type=int, choices=(2, 3), default=None,
        help="store format to write (default: 2, the memory-mapped "
        "layout with the serialized remainder index; 3 compresses the "
        "sections per level and decompresses them on touch)",
    )
    p_pre.add_argument(
        "--codec", choices=("auto", "zstd", "zlib", "raw"), default=None,
        help="v3 section codec (default auto: zstd when available, "
        "else zlib; requires --format-version 3)",
    )
    p_pre.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for candidate composition (vector "
        "kernel; default 1 = in-process; must be >= 1)",
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

    p_info = sub.add_parser("store-info", help="print a store file's header")
    p_info.add_argument("file", help="store file written by `repro precompute`")

    p_store = sub.add_parser(
        "store", help="store maintenance: info / verify / migrate"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sinfo = store_sub.add_parser("info", help="print a store file's header")
    p_sinfo.add_argument("file")
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
    p_sverify = store_sub.add_parser(
        "verify",
        help="full integrity pass: framing, sha256 checksum, invariants",
    )
    p_sverify.add_argument("file")
    p_smigrate = store_sub.add_parser(
        "migrate",
        help="rewrite a store in another format (v1 -> v2 upgrade, "
        "v2 <-> v3 compress/decompress)",
    )
    p_smigrate.add_argument("src", help="existing store file")
    p_smigrate.add_argument("dst", help="store file to write")
    p_smigrate.add_argument(
        "--format-version", type=int, choices=(2, 3), default=None,
        help="target format (default: 2)",
    )
    p_smigrate.add_argument(
        "--codec", choices=("auto", "zstd", "zlib", "raw"), default=None,
        help="v3 section codec (default auto: zstd when available, "
        "else zlib; requires --format-version 3)",
    )

    p_plan = sub.add_parser(
        "plan",
        help="size --jobs/--shard-bits/--dedup-budget for a precompute run",
        description=(
            "Project the closure size for a cost bound and size the "
            "engine flags from this machine's CPU count and "
            "available RAM.  An existing store seeds the projection with "
            "its recorded level sizes and shard skew."
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
        "--jobs", type=int, default=None, metavar="N",
        help="plan for N workers instead of this machine's CPU count",
    )
    p_plan.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_load = sub.add_parser(
        "load",
        help="re-verify a saved result, or drive a scenario load test",
    )
    p_load.add_argument(
        "file",
        help="JSON file written by `repro synth --save`, or -- with "
        "--server/--dry-run -- a scenario spec (.toml/.json path or a "
        "name under scenarios/)",
    )
    p_load.add_argument(
        "--server", metavar="ADDR", default=None,
        help="drive the scenario against this server or fleet front "
        "(HOST:PORT or unix:PATH)",
    )
    p_load.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's RNG seed (same seed = same stream)",
    )
    p_load.add_argument(
        "--requests", type=int, default=None,
        help="override the spec's stream length",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=None,
        help="override the spec's worker-thread count",
    )
    p_load.add_argument(
        "--timing", action="store_true",
        help="pace requests by the spec's arrival offsets (default: "
        "closed loop)",
    )
    p_load.add_argument(
        "--retries", type=int, default=0,
        help="client transport retries per request (for fleet/chaos runs)",
    )
    p_load.add_argument(
        "--dry-run", action="store_true",
        help="print the planned request stream as NDJSON and exit "
        "(no server needed; two runs with one seed are identical)",
    )
    p_load.add_argument(
        "--json", dest="json_out", metavar="FILE", default=None,
        help="also write the scenario report as JSON to FILE",
    )
    p_load.add_argument(
        "--no-slo", action="store_true",
        help="report SLO violations without failing the exit code",
    )

    p_replay = sub.add_parser(
        "replay",
        help="re-drive a recorded access log against a live server",
    )
    p_replay.add_argument(
        "log", help="NDJSON access log written by `repro serve --access-log`"
    )
    p_replay.add_argument(
        "--server", metavar="ADDR", required=True,
        help="server or fleet front to replay against",
    )
    p_replay.add_argument(
        "--golden", action="append", metavar="[ALIAS=]PATH", default=None,
        help="store file to byte-diff results against (repeatable; "
        "bare PATH is the default for every alias)",
    )
    p_replay.add_argument(
        "--no-rotated", action="store_true",
        help="read only the named file, not its rotated set",
    )
    p_replay.add_argument(
        "--strict", action="store_true",
        help="a malformed log line fails the replay (default: a "
        "truncated final line per file is tolerated and reported)",
    )
    p_replay.add_argument(
        "--timing", action="store_true",
        help="pace the replay by the recorded timestamps",
    )
    p_replay.add_argument(
        "--speed", type=float, default=1.0,
        help="timing speedup factor (2.0 = twice as fast)",
    )
    p_replay.add_argument(
        "--limit", type=int, default=None,
        help="replay at most N records",
    )
    p_replay.add_argument(
        "--retries", type=int, default=0,
        help="client transport retries per request",
    )
    p_replay.add_argument(
        "--json", dest="json_out", metavar="FILE", default=None,
        help="also write the replay report as JSON to FILE",
    )

    p_tail = sub.add_parser(
        "tail",
        help="summarize access/ops/progress logs; join requests by trace id",
        description=(
            "Read one or more NDJSON logs written by the serving stack "
            "(replica access logs, the router access log, supervisor "
            "ops logs, precompute progress logs), roll them up per "
            "store, and join request records across files by trace_id "
            "-- a failover shows up as one trace with a router record "
            "plus one replica record per attempt."
        ),
    )
    p_tail.add_argument(
        "logs", nargs="+", metavar="LOG",
        help="NDJSON log file (rotated siblings LOG.1.. are included "
        "unless --no-rotated)",
    )
    p_tail.add_argument(
        "--trace", metavar="TRACE_ID", default=None,
        help="show only this trace's joined records",
    )
    p_tail.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_tail.add_argument(
        "--follow", action="store_true",
        help="re-read and re-print the summary every --interval seconds",
    )
    p_tail.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --follow (default: 2s)",
    )
    p_tail.add_argument(
        "--no-rotated", action="store_true",
        help="read only the named files, not their rotated sets",
    )

    sub.add_parser("identities", help="verified gate-identity catalog")

    sub.add_parser("peres-family", help="G[4] universal-gate analysis (Sec. 5)")
    sub.add_parser("banned-sets", help="banned sets and sub-libraries (Sec. 3)")
    sub.add_parser("compare", help="NCT/MMD baselines vs direct synthesis")
    sub.add_parser("verify-gates", help="MV-vs-unitary gate representation check")

    p_rng = sub.add_parser("rng", help="controlled quantum RNG demo (Sec. 4)")
    p_rng.add_argument("--bits", type=int, default=32)
    p_rng.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_table1() -> int:
    from repro.gates.gate import Gate
    from repro.gates.truth_table import TruthTable
    from repro.mvl.labels import label_space
    from repro.render.tables import truth_table_text

    space = label_space(2, reduced=False, ordering="grouped")
    gate = Gate.v(1, 0, 2)  # data B controlled by A, the paper's Table 1 gate
    table = TruthTable.from_gate(gate, space)
    print("Controlled-V on 2 qubits (control A, data B):")
    print(truth_table_text(table))
    print(f"\npermutation representation: {table.permutation().cycle_string()}")
    return 0


def _store_bound(requested: int | None, expanded_to: int, store: str) -> int:
    """Resolve a --cost-bound against what a store/server covers."""
    from repro.io import resolve_cost_bound

    return resolve_cost_bound(requested, expanded_to, store)


def _cmd_table2(
    cost_bound: int | None, paper_pseudocode: bool, store: str | None = None
) -> int:
    from repro.core.fmcf import find_minimum_cost_circuits
    from repro.gates.library import GateLibrary
    from repro.render.tables import cost_table_text

    if store is not None:
        if paper_pseudocode:
            from repro.errors import SpecificationError

            raise SpecificationError(
                "--paper-pseudocode re-counts the identity per level; a "
                "store index keeps minimal costs only, so the two cannot "
                "be combined"
            )
        from repro.core.batch import BatchSynthesizer
        from repro.io import open_store

        header, _library, search = open_store(store)
        bound = _store_bound(cost_bound, header.expanded_to, store)
        table = BatchSynthesizer(search, cost_bound=bound).cost_table()
    else:
        library = GateLibrary(3)
        table = find_minimum_cost_circuits(
            library,
            cost_bound=7 if cost_bound is None else cost_bound,
            paper_pseudocode=paper_pseudocode,
        )
    paper_row = [1, 6, 30, 52, 84, 156, 398, 540]
    print(cost_table_text(
        table, paper_g=paper_row if table.cost_bound <= 7 else None
    ))
    if table.stats is not None:
        print(f"\nclosure: {table.stats.total_seen} cascades, "
              f"{table.stats.elapsed_seconds:.2f}s"
              + (f" (precomputed, served from {store})" if store else ""))
    return 0


def _resolve_target(text: str, n_qubits: int = 3, radix: int = 2):
    from repro.io import parse_target

    return parse_target(text, n_qubits=n_qubits, radix=radix)


def _print_result(result) -> bool:
    from repro.core.schedule import depth
    from repro.render.diagram import circuit_diagram
    from repro.sim.verify import verify_synthesis

    print(f"{result.circuit}   [depth {depth(result.circuit)}]")
    print(circuit_diagram(result.circuit))
    report = verify_synthesis(result)
    if "mv-permutation" in report.checks or any(
        f.startswith("mv-permutation") for f in report.failures
    ):
        status = "verified (digit permutation)" if report else "FAILED"
    else:
        status = "verified (MV + exact unitary)" if report else "FAILED"
    print(f"  -> {status}\n")
    return bool(report)


def _cmd_synth(
    target_text: str | None,
    all_implementations: bool,
    cost_bound: int | None,
    save: str | None = None,
    store: str | None = None,
    batch_file: str | None = None,
    server: str | None = None,
    store_alias: str | None = None,
) -> int:
    from repro.errors import SpecificationError
    from repro.gates.library import GateLibrary

    if (target_text is None) == (batch_file is None):
        raise SpecificationError(
            "give exactly one of a target or --batch FILE"
        )
    if store is not None and server is not None:
        raise SpecificationError("give at most one of --store and --server")
    if store_alias is not None and server is None:
        raise SpecificationError("--store-alias requires --server")

    if server is not None:
        return _synth_via_server(
            server, target_text, all_implementations, cost_bound, save,
            batch_file, store_alias,
        )

    if store is not None:
        from repro.core.batch import BatchSynthesizer
        from repro.io import open_store

        header, library, search = open_store(store)
        bound = _store_bound(cost_bound, header.expanded_to, store)
        batch = BatchSynthesizer(search, cost_bound=bound)
        print(
            f"store {store}: closure to cost {header.expanded_to}, "
            f"{header.total_seen} cascades (no re-expansion, "
            f"serving cost <= {bound})\n"
        )
    else:
        library = GateLibrary(3)
        batch = None
        if cost_bound is None:
            from repro.core.mce import DEFAULT_COST_BOUND

            cost_bound = DEFAULT_COST_BOUND

    if batch_file is not None:
        return _synth_batch(batch_file, library, batch, cost_bound, save)

    target = _resolve_target(
        target_text, library.n_qubits, library.space.radix
    )
    if batch is not None:
        if all_implementations:
            results = batch.synthesize_all(target)
        else:
            results = [batch.synthesize(target)]
    else:
        from repro.core.mce import express, express_all

        if all_implementations:
            results = express_all(target, library, cost_bound=cost_bound)
        else:
            results = [express(target, library, cost_bound=cost_bound)]
    return _print_synth_results(results, save)


def _synth_via_server(
    server: str,
    target_text: str | None,
    all_implementations: bool,
    cost_bound: int | None,
    save: str | None,
    batch_file: str | None,
    store_alias: str | None = None,
) -> int:
    """``repro synth --server``: same output, remote backend.

    The result body (everything after the banner line) is byte-
    identical to ``repro synth --store`` against the same store: the
    server ships :func:`repro.io.result_to_dict` records, the client
    rebuilds and *re-verifies* them locally, and the shared printing
    path does the rest.  *store_alias* routes every request on a
    multi-store server.
    """
    from repro.client import ServeClient
    from repro.gates.library import GateLibrary

    with ServeClient(server, store=store_alias) as client:
        info = client.store_info()
        bound = _store_bound(
            cost_bound, info["serving_cost_bound"], f"server {server}"
        )
        print(
            f"server {server}: store {info['path']}, closure to cost "
            f"{info['expanded_to']}, {info['total_seen']} cascades "
            f"(no re-expansion, serving cost <= {bound})\n"
        )
        if batch_file is not None:
            radix = int(info.get("radix", 2))
            if radix == 3:
                from repro.gates.ternary import ternary_library

                library = ternary_library(info["n_qubits"])
            elif radix == 4:
                from repro.gates.quaternary import quaternary_library

                library = quaternary_library(info["n_qubits"])
            else:
                library = GateLibrary(info["n_qubits"])
            return _synth_batch(
                batch_file, library, None, cost_bound, save, client=client
            )
        results = client.synth_results(
            target_text, all=all_implementations, cost_bound=cost_bound
        )
        return _print_synth_results(results, save)


def _print_synth_results(results, save: str | None) -> int:
    """The shared result-printing tail of every ``repro synth`` backend."""
    target = results[0].target
    print(
        f"target {target.cycle_string()} -- minimal quantum cost "
        f"{results[0].cost}, {len(results)} implementation(s):\n"
    )
    for result in results:
        _print_result(result)
    if save is not None:
        from repro.io import save_result

        save_result(results[0], save)
        print(f"saved first implementation to {save}")
    return 0


def _synth_batch(
    batch_file: str,
    library,
    batch,
    cost_bound: int,
    save: str | None,
    client=None,
) -> int:
    from repro.errors import CostBoundExceededError
    from repro.core.mce import express
    from repro.core.search import CascadeSearch
    from repro.io import load_targets, save_batch_results
    from repro.sim.verify import verify_synthesis

    targets = load_targets(
        batch_file, n_qubits=library.n_qubits, radix=library.space.radix
    )
    entries = None
    if client is not None:
        # One coalesced server-side batch; per-target errors come back
        # as structured payloads alongside the successful records.
        from repro.io import result_from_dict
        from repro.server.protocol import error_to_exception

        reply = client.synth_batch(
            [spec for spec, _target in targets], cost_bound=cost_bound
        )
        entries = reply["results"]
    elif batch is None:
        # One shared live closure amortizes the BFS across the batch.
        search = CascadeSearch(library, track_parents=True)
    results = []
    failures = 0
    for i, (spec, target) in enumerate(targets):
        try:
            if entries is not None:
                entry = entries[i]
                if not entry["ok"]:
                    raise error_to_exception(entry["error"])
                result = result_from_dict(entry["result"])
            elif batch is not None:
                result = batch.synthesize(target)
            else:
                result = express(
                    target, library, cost_bound=cost_bound, search=search
                )
        except CostBoundExceededError as exc:
            print(f"{spec:24} -> no realization ({exc})")
            failures += 1
            continue
        ok = verify_synthesis(result)
        results.append(result)
        status = "ok" if ok else "VERIFY FAILED"
        if not ok:
            failures += 1
        print(
            f"{spec:24} -> cost {result.cost}  {result.circuit}  [{status}]"
        )
    print(
        f"\n{len(results)}/{len(targets)} synthesized"
        + (f", {failures} failure(s)" if failures else "")
    )
    if save is not None:
        save_batch_results(results, save)
        print(f"saved batch results to {save}")
    return 1 if failures else 0


def _resolve_precompute_kernel(
    kernel: str | None,
    jobs: int | None,
    dedup_budget: str | None,
    shard_bits: int | None,
    checkpoint_dir: str | None,
) -> tuple[str, dict]:
    """Pick the expansion kernel + options from the precompute flags.

    The engine tunables belong to the vector kernel (the default); on
    the translate kernel they are refused rather than silently ignored.
    """
    from repro.core.dedup import parse_budget
    from repro.errors import SpecificationError

    options: dict = {}
    if jobs is not None:
        options["jobs"] = jobs
    if dedup_budget is not None:
        options["memory_budget"] = parse_budget(dedup_budget)
    if shard_bits is not None:
        options["shard_bits"] = shard_bits
    if checkpoint_dir is not None:
        options["checkpoint_dir"] = checkpoint_dir
    if kernel is None:
        kernel = "vector"
    elif options and kernel != "vector":
        raise SpecificationError(
            "--jobs/--dedup-budget/--shard-bits/--checkpoint-dir are "
            f"vector-kernel options; they cannot combine with "
            f"--kernel {kernel}"
        )
    return kernel, options


def _cmd_precompute(
    out: str,
    cost_bound: int,
    qubits: int,
    no_parents: bool,
    v_cost: int,
    vdag_cost: int,
    cnot_cost: int,
    radix: int = 2,
    extend: bool = False,
    kernel: str | None = None,
    format_version: int | None = None,
    codec: str | None = None,
    jobs: int | None = None,
    dedup_budget: str | None = None,
    shard_bits: int | None = None,
    checkpoint_dir: str | None = None,
    progress: bool = False,
    progress_log: str | None = None,
) -> int:
    from pathlib import Path

    from repro.core.cost import CostModel
    from repro.core.search import CascadeSearch
    from repro.core.store import (
        cost_model_fingerprint,
        library_fingerprint,
        read_header,
    )
    from repro.errors import StoreMismatchError
    from repro.gates.library import GateLibrary
    from repro.io import open_store, save_search

    if codec is not None and format_version != 3:
        from repro.errors import SpecificationError

        raise SpecificationError(
            "--codec chooses the v3 section compression; it requires "
            "--format-version 3"
        )
    kernel, kernel_options = _resolve_precompute_kernel(
        kernel, jobs, dedup_budget, shard_bits, checkpoint_dir
    )
    if radix != 2:
        from repro.errors import SpecificationError

        if (v_cost, vdag_cost, cnot_cost) != (1, 1, 1):
            raise SpecificationError(
                "--v-cost/--vdag-cost/--cnot-cost tune the binary "
                "library; MV gate costs are fixed by the digit library "
                "(singles 1, controlled 2)"
            )
        if radix == 3:
            from repro.gates.ternary import ternary_library

            library = ternary_library(qubits)
        else:
            from repro.gates.quaternary import quaternary_library

            library = quaternary_library(qubits)
    else:
        library = GateLibrary(qubits)
    cost_model = CostModel(
        v_cost=v_cost, vdag_cost=vdag_cost, cnot_cost=cnot_cost
    )
    if extend and Path(out).exists():
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
        search.use_kernel(kernel, kernel_options or None)
        previous = search.expanded_to
        if cost_bound <= previous:
            print(
                f"{out} already covers cost {previous} (>= {cost_bound}); "
                "nothing to extend"
            )
            return 0
        print(
            f"extending {out} from cost {previous} to {cost_bound} "
            f"({kernel} kernel)"
        )
    else:
        previous = None
        search = CascadeSearch(
            library,
            cost_model,
            track_parents=not no_parents,
            kernel=kernel,
            kernel_options=kernel_options,
        )
        if search.was_restored and search.expanded_to:
            print(
                f"resumed checkpoint {checkpoint_dir} at cost "
                f"{search.expanded_to}"
            )
    reporter = None
    if progress or progress_log:
        from repro.telemetry import ProgressReporter, make_tty

        reporter = ProgressReporter(
            path=progress_log, tty=make_tty(progress and sys.stderr.isatty())
        )
        reporter.emit(
            "start",
            degree=library.space.size,
            qubits=qubits,
            radix=radix,
            cost_bound=cost_bound,
            kernel=kernel,
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
        if format_version is None:
            header = save_search(search, out)
        else:
            header = save_search(
                search, out, format_version=format_version, codec=codec
            )
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
            f"{layout['slab_slots']} slots ({spill}), "
            f"jobs {kernel_options.get('jobs', 1)}"
        )
    print(f"levels |B[k]|: {list(stats.level_sizes)}")
    print(
        f"wrote {out} ({size / 1e6:.1f} MB, format {header.format_version}, "
        f"parents {'yes' if header.track_parents else 'no'})"
    )
    print(f"library fingerprint {header.library_fingerprint[:16]}...")
    return 0


def _cmd_serve(
    stores: list[str],
    store_dir: str | None,
    host: str,
    port: int | None,
    unix: str | None,
    no_tcp: bool,
    access_log: str | None,
    workers: int | None,
    max_batch: int | None,
    cost_bound: int | None,
    access_log_max_bytes: str | None = None,
    access_log_keep: int | None = None,
    drain_timeout: float | None = None,
    fault: str | None = None,
    fault_seed: int = 0,
) -> int:
    import asyncio

    from repro.core.dedup import parse_budget
    from repro.errors import SpecificationError
    from repro.server import DEFAULT_PORT, run_server

    max_bytes = (
        None if access_log_max_bytes is None
        else parse_budget(access_log_max_bytes)
    )

    if not stores and store_dir is None:
        raise SpecificationError(
            "nothing to serve: give store files and/or --store-dir"
        )
    if no_tcp:
        if unix is None:
            raise SpecificationError("--no-tcp requires --unix PATH")
        if port is not None:
            raise SpecificationError("give at most one of --port and --no-tcp")
        bind_port = None
    else:
        bind_port = DEFAULT_PORT if port is None else port

    def ready(address, service) -> None:
        for alias, state in service.registry:
            print(
                f"serving {alias}={state.path}: closure to cost "
                f"{state.header.expanded_to}, {state.header.total_seen} "
                f"cascades (cost <= {state.cost_bound})"
            )
        if access_log is not None:
            print(f"access log: {access_log} (NDJSON, one record/request)")
        if unix is not None:
            print(f"listening on unix:{unix} (HTTP/1.1 + NDJSON)")
        if address is not None:
            bound_host, bound_port = address
            print(f"listening on {bound_host}:{bound_port} "
                  "(HTTP/1.1 + NDJSON)")
        print(
            "SIGHUP reloads the stores, SIGINT/SIGTERM stop",
            flush=True,
        )

    extra = {}
    if drain_timeout is not None:
        extra["drain_timeout"] = drain_timeout
    return asyncio.run(
        run_server(
            stores,
            host=host,
            port=bind_port,
            cost_bound=cost_bound,
            workers=workers,
            max_batch=max_batch,
            ready=ready,
            unix=unix,
            store_dir=store_dir,
            access_log=access_log,
            access_log_max_bytes=max_bytes,
            access_log_keep=access_log_keep,
            fault=fault,
            fault_seed=fault_seed,
            **extra,
        )
    )


def _cmd_fleet_serve(args) -> int:
    import asyncio

    from repro.errors import SpecificationError
    from repro.fleet.manager import run_fleet
    from repro.fleet.supervisor import GuardRails
    from repro.server import DEFAULT_PORT

    if not args.stores and args.store_dir is None:
        raise SpecificationError(
            "nothing to serve: give store files and/or --store-dir"
        )
    if args.no_tcp:
        if args.unix is None:
            raise SpecificationError("--no-tcp requires --unix PATH")
        if args.port is not None:
            raise SpecificationError("give at most one of --port and --no-tcp")
        bind_port = None
    else:
        bind_port = DEFAULT_PORT if args.port is None else args.port

    faults: dict[int, str] = {}
    for item in args.fault or []:
        index_text, _, spec = item.partition(":")
        if not index_text.isdigit() or not spec:
            raise SpecificationError(
                f"bad --fault {item!r}: expected INDEX:SPEC, "
                "e.g. 0:exit-after:20"
            )
        faults[int(index_text)] = spec

    guardrails = GuardRails(
        min_healthy=(
            GuardRails.min_healthy if args.min_healthy is None
            else args.min_healthy
        ),
        restart_budget=(
            GuardRails.restart_budget if args.restart_budget is None
            else args.restart_budget
        ),
    )

    def ready(address, handle) -> None:
        manager = handle.manager
        print(f"fleet run dir: {manager.run_dir}")
        for name, backend in manager.backends.items():
            note = (
                f" (fault: {backend.fault})" if backend.fault is not None
                else ""
            )
            print(f"  {name}: {backend.endpoint} pid "
                  f"{backend.proc.pid}{note}")
        print(f"ops log: {handle.ops_log} (NDJSON, one record/decision)")
        if handle.router_access_log:
            print(f"router access log: {handle.router_access_log} "
                  "(NDJSON, one record/request, trace ids)")
        if args.unix is not None:
            print(f"routing on unix:{args.unix} (HTTP/1.1 + NDJSON)")
        if address is not None:
            bound_host, bound_port = address
            print(f"routing on {bound_host}:{bound_port} "
                  "(HTTP/1.1 + NDJSON)")
        print("SIGINT/SIGTERM stop the fleet", flush=True)

    extra = {}
    if args.retries is not None:
        extra["retries"] = args.retries
    if args.attempt_timeout is not None:
        extra["attempt_timeout"] = args.attempt_timeout
    if args.max_inflight is not None:
        extra["max_inflight"] = args.max_inflight
    return asyncio.run(
        run_fleet(
            args.stores,
            replicas=args.replicas,
            host=args.host,
            port=bind_port,
            unix=args.unix,
            store_dir=args.store_dir,
            cost_bound=args.cost_bound,
            workers=args.workers,
            max_batch=args.max_batch,
            run_dir=args.run_dir,
            ops_log=args.ops_log,
            faults=faults,
            fault_seed=args.fault_seed,
            guardrails=guardrails,
            ready=ready,
            **extra,
        )
    )


def _cmd_fleet_status(address: str, as_json: bool) -> int:
    import json as json_mod

    from repro.client import http_request
    from repro.errors import ServerError

    status, payload = http_request(address, "/healthz")
    if status != 200:
        raise ServerError(f"healthz returned HTTP {status}: {payload}")
    if as_json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0
    role = payload.get("role", "server")
    print(f"{address}: {payload.get('status', '?')} ({role})")
    if payload.get("version"):
        print(f"  version: {payload['version']}")
    if role != "router":
        print("  (single server, not a fleet front)")
        return 0
    print(
        f"  backends: {payload.get('healthy_backends', '?')} healthy / "
        f"{payload.get('admitted_backends', '?')} admitted / "
        f"{len(payload.get('backends', {}))} total"
    )
    print(
        f"  routed: {payload.get('routed', 0)}  "
        f"failovers: {payload.get('failovers', 0)}  "
        f"shed: {payload.get('shed', 0)}"
    )
    for name in sorted(payload.get("backends", {})):
        info = payload["backends"][name]
        state = "admitted" if info.get("admitted") else "EJECTED"
        line = (
            f"  {name}: {state}, breaker {info.get('breaker')}, "
            f"inflight {info.get('inflight')}/{info.get('max_inflight')}, "
            f"requests {info.get('requests')} "
            f"(failures {info.get('failures')})"
        )
        latency = info.get("latency_recent_ms")
        if latency:
            line += f", recent p99 {latency.get('p99'):.1f} ms"
        if info.get("version"):
            line += f", v{info['version']}"
        print(line)
    versions = {
        info["version"]
        for info in payload.get("backends", {}).values()
        if info.get("version")
    }
    if payload.get("version"):
        versions.add(payload["version"])
    if len(versions) > 1:
        print(
            f"  WARNING: version skew across the fleet: "
            f"{', '.join(sorted(versions))}"
        )
    return 0


def _cmd_store_info(path: str) -> int:
    from repro.io import read_header

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
    if header.format_version >= 3:
        stored = sum(
            s for spans in header.chunks.values() for (_, s, _) in spans
        )
        raw = sum(
            r for spans in header.chunks.values() for (_, _, r) in spans
        )
        ratio = stored / raw if raw else 1.0
        print(
            f"  layout: chunk-compressed v3 ({header.codec} codec, "
            "decompress-on-touch)"
        )
        print(
            f"  chunks: {sum(len(s) for s in header.chunks.values())} "
            f"spans over {len(header.chunks)} sections, "
            f"{stored / 1e6:.1f} MB compressed / {raw / 1e6:.1f} MB raw "
            f"({ratio:.2f}x)"
        )
    elif header.format_version >= 2:
        print(
            "  layout: memory-mapped v2 (8-aligned sections, "
            "O(queries touched) open)"
        )
        print(
            f"  sections: "
            + ", ".join(
                f"{name}@{off}+{length}"
                for name, (off, length) in header.sections.items()
            )
        )
    if header.format_version >= 2:
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


def _cmd_store_shards(path: str, bits: int | None) -> int:
    """Per-level rows, section sizes, shard layout -- budget sizing aid."""
    from repro.io import read_header
    from repro.render.tables import format_table

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
    if header.sections:
        rows = [
            [name, offset, length]
            for name, (offset, length) in header.sections.items()
        ]
        print(format_table(["section", "offset", "bytes"], rows))
    elif header.chunks:
        rows = [
            [
                name,
                len(spans),
                sum(s for (_, s, _) in spans),
                sum(r for (_, _, r) in spans),
            ]
            for name, spans in header.chunks.items()
        ]
        print(format_table(
            ["section", "chunks", "stored bytes", "raw bytes"], rows
        ))
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
        from repro.errors import SpecificationError

        from repro.core.store import projected_shard_layout

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


def _cmd_store_verify(path: str) -> int:
    from repro.io import verify_store

    header = verify_store(path)
    print(
        f"{path}: OK (format {header.format_version}, "
        f"{header.total_seen} cascades, sha256 verified)"
    )
    return 0


def _cmd_store_migrate(
    src: str,
    dst: str,
    format_version: int | None = None,
    codec: str | None = None,
) -> int:
    from pathlib import Path

    from repro.io import migrate_store

    if codec is not None and format_version != 3:
        from repro.errors import SpecificationError

        raise SpecificationError(
            "--codec chooses the v3 section compression; it requires "
            "--format-version 3"
        )
    if format_version is None:
        old, new = migrate_store(src, dst)
    else:
        old, new = migrate_store(
            src, dst, format_version=format_version, codec=codec
        )
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


def _cmd_plan(
    store: str | None,
    cost_bound: int,
    memory: str | None,
    jobs: int | None,
    as_json: bool,
) -> int:
    from repro.core.dedup import parse_budget
    from repro.core.plan import plan_resources
    from repro.io import read_header

    header = None if store is None else read_header(store)
    memory_bytes = None if memory is None else parse_budget(memory)
    plan = plan_resources(
        cost_bound,
        header=header,
        memory_bytes=memory_bytes,
        jobs=jobs,
    )
    if as_json:
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
        f"  --jobs {plan.jobs}  --shard-bits {plan.shard_bits}  "
        f"--dedup-budget {plan.dedup_budget_text}"
        + ("  (slabs will spill to disk)" if plan.spills else "")
    )
    print(f"  {plan.command(store or 'closure.rpro')}")
    return 0


def _cmd_load(path: str) -> int:
    from repro.io import load_result
    from repro.render.diagram import circuit_diagram

    circuit, target = load_result(path)
    print(f"loaded {target.cycle_string()} (re-verified):")
    print(f"{circuit}")
    print(circuit_diagram(circuit))
    return 0


def _cmd_load_scenario(args) -> int:
    import json as json_mod

    from repro import scenario

    spec = scenario.find_scenario(args.file)
    if args.dry_run:
        plan = scenario.generate(
            spec, seed=args.seed, requests=args.requests
        )
        for request in plan:
            print(json_mod.dumps(
                scenario.planned_to_dict(request), separators=(",", ":")
            ))
        return 0
    plan, samples, wall_s = scenario.run_scenario(
        spec,
        args.server,
        seed=args.seed,
        requests=args.requests,
        concurrency=args.concurrency,
        timing=args.timing,
        retries=args.retries,
    )
    health = None
    try:
        health = scenario.snapshot(args.server)
    except ReproError:
        pass  # a report without the server-side view is still a report
    report = scenario.scenario_report(
        spec, samples, wall_s, seed=args.seed, server_health=health
    )
    report["planned"] = len(plan)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_mod.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(scenario.format_report(report))
    if report["slo_violations"] and not args.no_slo:
        return 1
    return 0


def _cmd_replay(args) -> int:
    import json as json_mod

    from repro import scenario

    records, tail = scenario.load_trace(
        args.log, rotated=not args.no_rotated, strict=args.strict
    )
    goldens, default_golden = scenario.parse_golden_specs(args.golden)
    report = scenario.replay(
        records,
        args.server,
        goldens=goldens,
        default_golden=default_golden,
        timing=args.timing,
        speed=args.speed,
        retries=args.retries,
        limit=args.limit,
    )
    if tail is not None:
        report["tail"] = tail
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_mod.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"replayed {report['replayed']} of {len(records)} records: "
        f"{report['ok']} ok, {report['errors']} errors, "
        f"{report['outcome_mismatches']} outcome mismatches, "
        f"{report['result_byte_diffs']} result-byte diffs "
        f"({report['byte_checked']} byte-checked)"
    )
    if report["shed_drift"]:
        print(f"  shed drift (not counted as mismatch): "
              f"{report['shed_drift']}")
    if report["skipped_no_params"] or report["skipped_unknown_op"]:
        print(
            f"  skipped: {report['skipped_no_params']} without params, "
            f"{report['skipped_unknown_op']} unknown op"
        )
    if tail is not None:
        print(f"  tolerated truncated tail at {tail['path']}:"
              f"{tail['lineno']}")
    for item in report["mismatch_detail"]:
        print(
            f"  mismatch #{item['index']} {item['op']}: logged "
            f"{item['logged']}, replayed {item['replayed']}"
        )
    for item in report["diff_detail"]:
        print(f"  byte diff #{item['index']} {item['op']} "
              f"(store {item['store']})")
    return 0 if report["clean"] else 1


def _cmd_tail(args) -> int:
    import json as json_mod
    import time as time_mod

    from repro.telemetry import format_text, summarize_logs

    def render() -> None:
        summary = summarize_logs(
            args.logs, rotated=not args.no_rotated, trace=args.trace
        )
        if args.json:
            print(json_mod.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_text(summary))

    if not args.follow:
        render()
        return 0
    try:
        while True:
            render()
            print("---", flush=True)
            time_mod.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_identities() -> int:
    from repro.core.identities import identity_catalog
    from repro.gates.library import GateLibrary
    from repro.render.tables import format_table

    catalog = identity_catalog(GateLibrary(3))
    rows = []
    for relation, identities in catalog.items():
        for identity in identities:
            rows.append([relation, identity.left, identity.right])
    print(format_table(["relation", "left", "right"], rows))
    print(f"\n{len(catalog['commute'])} commuting pairs, "
          f"{len(catalog['inverse'])} inverse pairs, "
          f"{len(catalog['cnot-emulation'])} CNOT emulations "
          "(all machine-verified)")
    return 0


def _cmd_peres_family() -> int:
    from repro.core.fmcf import find_minimum_cost_circuits
    from repro.core.universality import analyze_g4, match_paper_representatives
    from repro.gates.library import GateLibrary
    from repro.render.tables import format_table

    table = find_minimum_cost_circuits(GateLibrary(3), cost_bound=4)
    analysis = analyze_g4(table)
    print(
        f"|G[4]| = {len(table.members(4))}: "
        f"{len(analysis.feynman_only)} Feynman-only + "
        f"{len(analysis.control_using)} control-using"
    )
    print(f"universal gates among them: {len(analysis.universal)}")
    mapping = match_paper_representatives(analysis)
    rows = []
    for name, index in sorted(mapping.items()):
        orbit = analysis.orbits[index]
        rows.append([name, orbit[0].cycle_string(), len(orbit)])
    print(format_table(["paper gate", "representative", "orbit size"], rows))
    return 0


def _cmd_banned_sets() -> int:
    from repro.gates.library import GateLibrary
    from repro.render.tables import format_table

    library = GateLibrary(3)
    banned = library.banned_sets_paper()
    subs = library.sublibrary_names()
    rows = [[k, ", ".join(subs[f"L{k[1:]}"]), str(list(v))] for k, v in banned.items()]
    print(format_table(["banned set", "gates it gates", "labels (1-based)"], rows))
    return 0


def _cmd_compare() -> int:
    from repro.baselines.compare import compare_targets
    from repro.gates import named
    from repro.render.tables import comparison_table_text

    picks = {
        k: named.TARGETS[k]
        for k in ("toffoli", "fredkin", "peres", "g2", "g3", "g4", "swap_bc")
    }
    rows = compare_targets(picks)
    print(comparison_table_text(rows))
    return 0


def _cmd_verify_gates() -> int:
    from repro.gates.library import GateLibrary
    from repro.sim.verify import verify_gate_representation

    report = verify_gate_representation(GateLibrary(3))
    print(
        f"{len(report.checks)} pattern/gate agreements verified exactly; "
        f"{len(report.failures)} failures"
    )
    return 0 if report else 1


def _cmd_rng(bits: int, seed: int | None) -> int:
    from repro.automata.rng import ControlledRandomBitGenerator
    from repro.render.diagram import circuit_diagram

    generator = ControlledRandomBitGenerator(n_random=2)
    print(f"synthesized generator (cost {generator.cost}):")
    print(circuit_diagram(generator.circuit))
    rng = random.Random(seed)
    stream = generator.generate_bits(bits, rng)
    print(f"\n{bits} quantum-random bits: {''.join(map(str, stream))}")
    ones = sum(stream)
    print(f"ones: {ones}/{bits}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table1":
            return _cmd_table1()
        if args.command == "table2":
            return _cmd_table2(args.cost_bound, args.paper_pseudocode, args.store)
        if args.command == "synth":
            return _cmd_synth(
                args.target, args.all, args.cost_bound, args.save,
                args.store, args.batch, args.server, args.store_alias,
            )
        if args.command == "serve":
            return _cmd_serve(
                args.stores, args.store_dir, args.host, args.port,
                args.unix, args.no_tcp, args.access_log, args.workers,
                args.max_batch, args.cost_bound,
                args.access_log_max_bytes, args.access_log_keep,
                args.drain_timeout, args.fault, args.fault_seed,
            )
        if args.command == "fleet":
            if args.fleet_command == "serve":
                return _cmd_fleet_serve(args)
            if args.fleet_command == "status":
                return _cmd_fleet_status(args.address, args.json)
            raise AssertionError(f"unhandled fleet command {args.fleet_command}")
        if args.command == "precompute":
            return _cmd_precompute(
                args.out, args.cost_bound, args.qubits, args.no_parents,
                args.v_cost, args.vdag_cost, args.cnot_cost,
                args.radix, args.extend, args.kernel, args.format_version,
                args.codec, args.jobs, args.dedup_budget,
                args.shard_bits, args.checkpoint_dir,
                args.progress, args.progress_log,
            )
        if args.command == "plan":
            return _cmd_plan(
                args.store, args.cost_bound, args.memory, args.jobs,
                args.json,
            )
        if args.command == "store-info":
            return _cmd_store_info(args.file)
        if args.command == "store":
            if args.store_command == "info":
                return _cmd_store_info(args.file)
            if args.store_command == "shards":
                return _cmd_store_shards(args.file, args.bits)
            if args.store_command == "verify":
                return _cmd_store_verify(args.file)
            if args.store_command == "migrate":
                return _cmd_store_migrate(
                    args.src, args.dst, args.format_version, args.codec
                )
            raise AssertionError(f"unhandled store command {args.store_command}")
        if args.command == "load":
            if args.server is not None or args.dry_run:
                return _cmd_load_scenario(args)
            return _cmd_load(args.file)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "tail":
            return _cmd_tail(args)
        if args.command == "identities":
            return _cmd_identities()
        if args.command == "peres-family":
            return _cmd_peres_family()
        if args.command == "banned-sets":
            return _cmd_banned_sets()
        if args.command == "compare":
            return _cmd_compare()
        if args.command == "verify-gates":
            return _cmd_verify_gates()
        if args.command == "rng":
            return _cmd_rng(args.bits, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
