"""``repro synth`` (live, ``--store`` or ``--server``) and result load."""

from __future__ import annotations


def add_parsers(sub) -> None:
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
    p_synth.set_defaults(handler=_cmd_synth)


def _cmd_synth(args) -> int:
    from repro.core.cost import UNIT_COST
    from repro.errors import SpecificationError
    from repro.gates.library import library_for
    from repro.io import parse_target

    if (args.target is None) == (args.batch is None):
        raise SpecificationError(
            "give exactly one of a target or --batch FILE"
        )
    if args.store is not None and args.server is not None:
        raise SpecificationError("give at most one of --store and --server")
    if args.store_alias is not None and args.server is None:
        raise SpecificationError("--store-alias requires --server")

    if args.server is not None:
        return _synth_via_server(args)

    if args.store is not None:
        from repro.core.batch import BatchSynthesizer
        from repro.io import open_store, resolve_cost_bound

        header, library, search = open_store(args.store)
        cost_model = header.cost_model
        bound = resolve_cost_bound(
            args.cost_bound, header.expanded_to, args.store
        )
        batch = BatchSynthesizer(search, cost_bound=bound)
        print(
            f"store {args.store}: closure to cost {header.expanded_to}, "
            f"{header.total_seen} cascades (no re-expansion, "
            f"serving cost <= {bound})\n"
        )
    else:
        library = library_for(3)
        cost_model = UNIT_COST
        batch = None
        if args.cost_bound is None:
            from repro.core.mce import DEFAULT_COST_BOUND

            args.cost_bound = DEFAULT_COST_BOUND

    if args.batch is not None:
        return _synth_batch(args, library, cost_model, batch=batch)

    target = parse_target(
        args.target, n_qubits=library.n_qubits, radix=library.space.radix
    )
    if batch is not None:
        if args.all:
            results = batch.synthesize_all(target)
        else:
            results = [batch.synthesize(target)]
    else:
        from repro.core.mce import express, express_all

        if args.all:
            results = express_all(target, library, cost_bound=args.cost_bound)
        else:
            results = [express(target, library, cost_bound=args.cost_bound)]
    return _print_synth_results(results, args.save, cost_model)


def _synth_via_server(args) -> int:
    """``repro synth --server``: same output, remote backend.

    The result body (everything after the banner line) is byte-
    identical to ``repro synth --store`` against the same store: the
    server ships :func:`repro.io.result_to_dict` records, the client
    rebuilds and certifies them locally under the cost model
    ``store-info`` reports, and the shared printing path does the rest.
    ``--store-alias`` routes every request on a multi-store server.
    """
    from repro.client import ServeClient
    from repro.core.cost import CostModel
    from repro.gates.library import library_for
    from repro.io import resolve_cost_bound, result_from_dict

    server = args.server
    with ServeClient(server, store=args.store_alias) as client:
        info = client.store_info()
        cost_model = CostModel(**info["cost_model"])
        bound = resolve_cost_bound(
            args.cost_bound, info["serving_cost_bound"], f"server {server}"
        )
        print(
            f"server {server}: store {info['path']}, closure to cost "
            f"{info['expanded_to']}, {info['total_seen']} cascades "
            f"(no re-expansion, serving cost <= {bound})\n"
        )
        if args.batch is not None:
            library = library_for(info["n_qubits"], int(info.get("radix", 2)))
            return _synth_batch(args, library, cost_model, client=client)
        payload = client.synth(
            args.target, all=args.all, cost_bound=args.cost_bound
        )
        results = [
            result_from_dict(record, cost_model)
            for record in payload["results"]
        ]
        return _print_synth_results(results, args.save, cost_model)


def _print_result(result, cost_model) -> bool:
    from repro.core.schedule import depth
    from repro.render.diagram import circuit_diagram
    from repro.sim.verify import verify_synthesis

    print(f"{result.circuit}   [depth {depth(result.circuit)}]")
    print(circuit_diagram(result.circuit))
    report = verify_synthesis(result, cost_model)
    if "mv-permutation" in report.checks or any(
        f.startswith("mv-permutation") for f in report.failures
    ):
        status = "verified (digit permutation)" if report else "FAILED"
    else:
        status = "verified (MV + exact unitary)" if report else "FAILED"
    print(f"  -> {status}\n")
    return bool(report)


def _print_synth_results(results, save: str | None, cost_model) -> int:
    """The shared result-printing tail of every ``repro synth`` backend."""
    target = results[0].target
    print(
        f"target {target.cycle_string()} -- minimal quantum cost "
        f"{results[0].cost}, {len(results)} implementation(s):\n"
    )
    verified = [_print_result(result, cost_model) for result in results]
    if save is not None:
        from repro.io import save_result

        save_result(results[0], save)
        print(f"saved first implementation to {save}")
    return 0 if all(verified) else 1


def _synth_batch(args, library, cost_model, batch=None, client=None) -> int:
    """``synth --batch``: one line per target from *batch* (a store's
    index), *client* (one server-side batch) or one live closure."""
    from repro.errors import CostBoundExceededError
    from repro.core.mce import express
    from repro.core.search import CascadeSearch
    from repro.io import load_targets, save_batch_results
    from repro.sim.verify import verify_synthesis

    targets = load_targets(
        args.batch, n_qubits=library.n_qubits, radix=library.space.radix
    )
    entries = None
    if client is not None:
        # One server-side batch; per-target errors come back
        # as structured payloads alongside the successful records.
        from repro.io import result_from_dict
        from repro.server.protocol import error_to_exception

        reply = client.synth_batch(
            [spec for spec, _target in targets], cost_bound=args.cost_bound
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
                result = result_from_dict(entry["result"], cost_model)
            elif batch is not None:
                result = batch.synthesize(target)
            else:
                result = express(
                    target, library, cost_bound=args.cost_bound, search=search
                )
        except CostBoundExceededError as exc:
            print(f"{spec:24} -> no realization ({exc})")
            failures += 1
            continue
        ok = verify_synthesis(result, cost_model)
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
    if args.save is not None:
        save_batch_results(results, args.save)
        print(f"saved batch results to {args.save}")
    return 1 if failures else 0


def cmd_load_result(args) -> int:
    """``repro load FILE``: re-verify a result ``synth --save`` wrote."""
    from repro.io import load_result
    from repro.render.diagram import circuit_diagram

    circuit, target = load_result(args.file)
    print(f"loaded {target.cycle_string()} (re-verified):")
    print(f"{circuit}")
    print(circuit_diagram(circuit))
    return 0
