"""``repro load``, ``replay`` and ``tail``: drive and read traffic."""

from __future__ import annotations

from repro.errors import ReproError


def add_parsers(sub) -> None:
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
    p_load.set_defaults(handler=_cmd_load)

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
    p_replay.set_defaults(handler=_cmd_replay)

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
    p_tail.set_defaults(handler=_cmd_tail)


def _write_report(report: dict, path: str | None) -> None:
    if path:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _cmd_load(args) -> int:
    """A saved result without --server/--dry-run, else a scenario."""
    if args.server is None and not args.dry_run:
        from repro.cli.synth import cmd_load_result

        return cmd_load_result(args)
    import json

    from repro import scenario

    spec = scenario.find_scenario(args.file)
    if args.dry_run:
        plan = scenario.generate(
            spec, seed=args.seed, requests=args.requests
        )
        for request in plan:
            print(json.dumps(
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
    _write_report(report, args.json_out)
    print(scenario.format_report(report))
    if report["slo_violations"] and not args.no_slo:
        return 1
    return 0


def _cmd_replay(args) -> int:
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
    _write_report(report, args.json_out)
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
    import json
    import time

    from repro.telemetry import format_text, summarize_logs

    def render() -> None:
        summary = summarize_logs(
            args.logs, rotated=not args.no_rotated, trace=args.trace
        )
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_text(summary))

    if not args.follow:
        render()
        return 0
    try:
        while True:
            render()
            print("---", flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0
