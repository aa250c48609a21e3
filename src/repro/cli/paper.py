"""``repro`` verbs that print the paper's tables and run its demos."""

from __future__ import annotations


def add_tables(sub) -> None:
    sub.add_parser(
        "table1", help="2-qubit Ctrl-V truth table (Table 1)"
    ).set_defaults(handler=_cmd_table1)

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
    p_table2.set_defaults(handler=_cmd_table2)


def add_demos(sub) -> None:
    for name, help_text, handler in (
        ("identities", "verified gate-identity catalog", _cmd_identities),
        ("peres-family", "G[4] universal-gate analysis (Sec. 5)",
         _cmd_peres_family),
        ("banned-sets", "banned sets and sub-libraries (Sec. 3)",
         _cmd_banned_sets),
        ("compare", "NCT/MMD baselines vs direct synthesis", _cmd_compare),
        ("verify-gates", "MV-vs-unitary gate representation check",
         _cmd_verify_gates),
    ):
        sub.add_parser(name, help=help_text).set_defaults(handler=handler)

    p_rng = sub.add_parser("rng", help="controlled quantum RNG demo (Sec. 4)")
    p_rng.add_argument("--bits", type=int, default=32)
    p_rng.add_argument("--seed", type=int, default=None)
    p_rng.set_defaults(handler=_cmd_rng)


def _cmd_table1(args) -> int:
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


def _cmd_table2(args) -> int:
    from repro.core.fmcf import find_minimum_cost_circuits
    from repro.gates.library import GateLibrary
    from repro.render.tables import cost_table_text

    if args.store is not None:
        from repro.io import open_store, resolve_cost_bound

        header, library, search = open_store(args.store)
        bound = resolve_cost_bound(
            args.cost_bound, header.expanded_to, args.store
        )
    else:
        library, search = GateLibrary(3), None
        bound = 7 if args.cost_bound is None else args.cost_bound
    # A store's search carries its remainder index: no closure scan.
    table = find_minimum_cost_circuits(
        library, bound, search=search, paper_pseudocode=args.paper_pseudocode
    )
    paper_row = [1, 6, 30, 52, 84, 156, 398, 540]
    print(cost_table_text(
        table, paper_g=paper_row if table.cost_bound <= 7 else None
    ))
    if table.stats is not None:
        print(f"\nclosure: {table.stats.total_seen} cascades, "
              f"{table.stats.elapsed_seconds:.2f}s"
              + (f" (precomputed, served from {args.store})"
                 if args.store else ""))
    return 0


def _cmd_identities(args) -> int:
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


def _cmd_peres_family(args) -> int:
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


def _cmd_banned_sets(args) -> int:
    from repro.gates.library import GateLibrary
    from repro.render.tables import format_table

    library = GateLibrary(3)
    banned = library.banned_sets_paper()
    subs = library.sublibrary_names()
    rows = [[k, ", ".join(subs[f"L{k[1:]}"]), str(list(v))] for k, v in banned.items()]
    print(format_table(["banned set", "gates it gates", "labels (1-based)"], rows))
    return 0


def _cmd_compare(args) -> int:
    from repro.baselines.compare import compare_targets
    from repro.gates import named
    from repro.render.tables import comparison_table_text

    picks = {
        k: named.TARGETS[k]
        for k in ("toffoli", "fredkin", "peres", "g2", "g3", "g4", "swap_bc")
    }
    print(comparison_table_text(compare_targets(picks)))
    return 0


def _cmd_verify_gates(args) -> int:
    from repro.gates.library import GateLibrary
    from repro.sim.verify import verify_gate_representation

    report = verify_gate_representation(GateLibrary(3))
    print(
        f"{len(report.checks)} pattern/gate agreements verified exactly; "
        f"{len(report.failures)} failures"
    )
    return 0 if report else 1


def _cmd_rng(args) -> int:
    import random

    from repro.automata.rng import ControlledRandomBitGenerator
    from repro.render.diagram import circuit_diagram

    generator = ControlledRandomBitGenerator(n_random=2)
    print(f"synthesized generator (cost {generator.cost}):")
    print(circuit_diagram(generator.circuit))
    stream = generator.generate_bits(args.bits, random.Random(args.seed))
    print(f"\n{args.bits} quantum-random bits: {''.join(map(str, stream))}")
    print(f"ones: {sum(stream)}/{args.bits}")
    return 0
