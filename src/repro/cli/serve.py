"""``repro serve`` and ``repro fleet serve|status``: the serving verbs."""

from __future__ import annotations

import argparse


def add_parsers(sub) -> None:
    listener = argparse.ArgumentParser(add_help=False)
    listener.add_argument(
        "stores", nargs="*", metavar="STORE",
        help="store files written by `repro precompute`, each PATH or "
        "ALIAS=PATH (default alias: the file stem)",
    )
    listener.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="also serve every *.rpro file in DIR (rescanned on SIGHUP)",
    )
    listener.add_argument("--host", default="127.0.0.1")
    listener.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7205; 0 picks an ephemeral port)",
    )
    listener.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also listen on a UNIX socket at PATH (same protocol)",
    )
    listener.add_argument(
        "--no-tcp", action="store_true",
        help="do not bind the TCP listener (requires --unix)",
    )
    listener.add_argument(
        "--cost-bound", type=int, default=None,
        help="serve only costs up to this bound (default: each store's)",
    )
    listener.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for probabilistic fault injection (default: 0)",
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
        parents=[listener],
    )
    p_serve.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="append one NDJSON record per request (op, store, queue "
        "wait, execute time, outcome) to FILE",
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
    p_serve.set_defaults(handler=_cmd_serve)

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
        "serve", help="spawn replicas and serve through the router",
        parents=[listener],
    )
    p_fserve.add_argument(
        "--replicas", type=int, default=2,
        help="backend processes to spawn (default: 2)",
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
    p_fserve.set_defaults(handler=_cmd_fleet_serve)
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
    p_fstatus.set_defaults(handler=_cmd_fleet_status)


def _given(args, *names: str) -> dict:
    """The flags among *names* the command line set (default None), as
    keywords, so the callee's own defaults hold for the rest."""
    values = {name: getattr(args, name) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _serve_port(args) -> int | None:
    """The TCP port `serve` and `fleet serve` bind (None: unix only).

    Refuses, before anything binds, a command line with nothing to
    serve or nothing to listen on.
    """
    from repro.errors import SpecificationError
    from repro.server import DEFAULT_PORT

    if not args.stores and args.store_dir is None:
        raise SpecificationError(
            "nothing to serve: give store files and/or --store-dir"
        )
    if not args.no_tcp:
        return DEFAULT_PORT if args.port is None else args.port
    if args.unix is None:
        raise SpecificationError("--no-tcp requires --unix PATH")
    if args.port is not None:
        raise SpecificationError("give at most one of --port and --no-tcp")
    return None


def _cmd_serve(args) -> int:
    import asyncio

    from repro.core.dedup import parse_budget
    from repro.server import run_server

    max_bytes = (
        None if args.access_log_max_bytes is None
        else parse_budget(args.access_log_max_bytes)
    )
    bind_port = _serve_port(args)

    def ready(address, service) -> None:
        for alias, state in service.registry:
            print(
                f"serving {alias}={state.path}: closure to cost "
                f"{state.header.expanded_to}, {state.header.total_seen} "
                f"cascades (cost <= {state.cost_bound})"
            )
        if args.access_log is not None:
            print(f"access log: {args.access_log} (NDJSON, one record/request)")
        if args.unix is not None:
            print(f"listening on unix:{args.unix} (HTTP/1.1 + NDJSON)")
        if address is not None:
            bound_host, bound_port = address
            print(f"listening on {bound_host}:{bound_port} "
                  "(HTTP/1.1 + NDJSON)")
        print(
            "SIGHUP reloads the stores, SIGINT/SIGTERM stop",
            flush=True,
        )

    return asyncio.run(
        run_server(
            args.stores,
            host=args.host,
            port=bind_port,
            cost_bound=args.cost_bound,
            ready=ready,
            unix=args.unix,
            store_dir=args.store_dir,
            access_log=args.access_log,
            access_log_max_bytes=max_bytes,
            access_log_keep=args.access_log_keep,
            fault=args.fault,
            fault_seed=args.fault_seed,
            **_given(args, "drain_timeout"),
        )
    )


def _cmd_fleet_serve(args) -> int:
    import asyncio

    from repro.errors import SpecificationError
    from repro.fleet.manager import run_fleet
    from repro.fleet.supervisor import GuardRails

    bind_port = _serve_port(args)

    faults: dict[int, str] = {}
    for item in args.fault or []:
        index_text, _, spec = item.partition(":")
        if not index_text.isdigit() or not spec:
            raise SpecificationError(
                f"bad --fault {item!r}: expected INDEX:SPEC, "
                "e.g. 0:exit-after:20"
            )
        faults[int(index_text)] = spec

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

    return asyncio.run(
        run_fleet(
            args.stores,
            replicas=args.replicas,
            host=args.host,
            port=bind_port,
            unix=args.unix,
            store_dir=args.store_dir,
            cost_bound=args.cost_bound,
            run_dir=args.run_dir,
            ops_log=args.ops_log,
            faults=faults,
            fault_seed=args.fault_seed,
            guardrails=GuardRails(
                **_given(args, "min_healthy", "restart_budget")
            ),
            ready=ready,
            **_given(args, "retries", "attempt_timeout", "max_inflight"),
        )
    )


def _cmd_fleet_status(args) -> int:
    import json as json_mod

    from repro.client import http_request
    from repro.errors import ServerError

    address = args.address
    status, payload = http_request(address, "/healthz")
    if status != 200:
        raise ServerError(f"healthz returned HTTP {status}: {payload}")
    if args.json:
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
        latency = info.get("latency_ms")
        if latency:
            line += f", p99 {latency.get('p99'):.1f} ms"
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
