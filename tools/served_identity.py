#!/usr/bin/env python3
"""Check that `repro ... --server` answers byte-identically to `--store`.

Runs every query once against the store file (``QUERY --store STORE``),
then starts ``repro serve STORE --port 0`` and runs it again against the
server (``QUERY --server ADDRESS``).  With ``--fleet`` the server is
``repro fleet serve STORE --port 0`` instead, so every answer crosses
the router.  It fails unless, for every query:

* both runs exit 0 (so with the same code);
* their outputs are byte-identical after the first line (the banner
  naming the backend).

``--expect KEY=VALUE`` also checks the server's ``store-info`` reply,
and the server must exit 0 on SIGTERM.  Usage (as the CI jobs run it)::

    python tools/served_identity.py /tmp/ternary.rpro \\
        --expect radix=3 --expect library_family=ternary-diwei \\
        --query "synth --batch /tmp/ternary_targets.txt"
    python tools/served_identity.py /tmp/closure.rpro --fleet \\
        --query "synth --batch /tmp/golden.txt" --query "synth toffoli --all"

Run from anywhere: the program is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"served_identity: {message}")


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True,
    )


def _start_server(
    store: str, env: dict, run_dir: str | None
) -> tuple[subprocess.Popen, str]:
    """``repro serve STORE --port 0`` (or ``repro fleet serve`` when a
    fleet *run_dir* is given) and the address from its ready line."""
    if run_dir is None:
        command, ready = ["serve", store], "listening on"
    else:
        command = ["fleet", "serve", store, "--run-dir", run_dir]
        ready = "routing on"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *command, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for _ in range(200):
        line = proc.stdout.readline()
        print(line, end="")
        found = re.search(ready + r" (\S+) ", line)
        if found:
            return proc, found.group(1)
    proc.kill()
    raise SystemExit(f"served_identity: repro {command[0]} printed no "
                     "ready line")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", help="store file to query and serve")
    parser.add_argument(
        "--query", dest="queries", action="append", required=True,
        help="a repro command line without its backend flag (repeatable)",
    )
    parser.add_argument(
        "--expect", action="append", default=[], metavar="KEY=VALUE",
        help="a field the server's store-info reply must carry (repeatable)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="serve through `repro fleet serve` (the router and replicas)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    queries = [shlex.split(text) for text in args.queries]
    local = [_run(query + ["--store", args.store], env) for query in queries]
    for result in local:
        print(result.stdout, end="")

    run_dir = None
    if args.fleet:
        run_dir = tempfile.mkdtemp(prefix="served-identity-")
    proc, address = _start_server(args.store, env, run_dir)
    try:
        from repro.client import ServeClient, wait_until_ready

        wait_until_ready(address, timeout=60)
        if args.expect:
            with ServeClient(address) as client:
                info = client.store_info()
            for pair in args.expect:
                key, _, value = pair.partition("=")
                _check(
                    str(info.get(key)) == value,
                    f"store-info {key} is {info.get(key)!r}, not {value}",
                )
        for query, want in zip(queries, local):
            served = _run(query + ["--server", address], env)
            for result in (want, served):
                _check(
                    result.returncode == 0,
                    f"{result.args} exited {result.returncode}:\n"
                    f"{result.stdout}{result.stderr}",
                )
            # Everything after the backend banner line must match.
            _check(
                want.stdout.split("\n", 1)[1]
                == served.stdout.split("\n", 1)[1],
                f"{query}: --server output differs from --store",
            )
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
    server = "repro fleet serve" if args.fleet else "repro serve"
    _check(code == 0, f"{server} exited {code} on SIGTERM")
    print(f"{len(queries)} queries byte-identical over --store and --server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
