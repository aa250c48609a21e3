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
    repro precompute big.rpro --dedup-budget 512M \\
        --checkpoint-dir ck/                 # disk-backed dedup + resume
    repro precompute closure.rpro --extend --cost-bound 8   # deepen it
    repro precompute small.rpro --format-version 3           # compressed v3
    repro plan --cost-bound 8                # size --shard-bits/--dedup-budget
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

Each verb group is one module that declares its subparsers next to the
handlers they run: :mod:`~repro.cli.paper` (tables and demos),
:mod:`~repro.cli.synth`, :mod:`~repro.cli.store` (precompute, plan,
``store *``), :mod:`~repro.cli.serve` (serve, fleet) and
:mod:`~repro.cli.scenario` (load, replay, tail).  Every subparser
stores its handler on ``args``; handlers import their heavy
dependencies on call, so importing this package loads neither numpy
nor :mod:`repro.core`.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.cli import paper, scenario, serve, store, synth
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
    paper.add_tables(sub)
    synth.add_parsers(sub)
    serve.add_parsers(sub)
    store.add_parsers(sub)
    scenario.add_parsers(sub)
    paper.add_demos(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
