"""repro: exact synthesis of 3-qubit quantum circuits from non-binary gates.

A from-scratch reproduction of Yang, Hung, Song & Perkowski, *"Exact
Synthesis of 3-qubit Quantum Circuits from Non-binary Quantum Gates Using
Multiple-Valued Logic and Group Theory"* (DATE 2005).

Quickstart::

    from repro import GateLibrary, express, named

    library = GateLibrary(n_qubits=3)
    result = express(named.TOFFOLI, library)
    print(result.circuit)        # 5-gate V/V+/CNOT cascade
    print(result.cost)           # 5

Precompute workflow -- the closure for a fixed (library, cost model)
pair is a pure artifact, so expand it once, persist it, and answer any
number of synthesis queries against the loaded store::

    from repro import (
        BatchSynthesizer, CascadeSearch, GateLibrary,
        load_search, save_search, named,
    )

    library = GateLibrary(n_qubits=3)

    # Precompute (once; `repro precompute closure.rpro` from a shell).
    # The NumPy kernel builds the paper's cost-7 closure in a fraction
    # of a second.
    search = CascadeSearch(library, track_parents=True)
    search.extend_to(7)
    save_search(search, "closure.rpro")

    # Serve (many times; `repro synth --store closure.rpro ...`):
    batch = BatchSynthesizer(load_search("closure.rpro", library))
    batch.synthesize(named.TOFFOLI).cost       # 5, in microseconds
    batch.synthesize_many(named.TARGETS.values())
    batch.cost_table().g_sizes                 # Table 2, no re-scan

Stores are written in the memory-mapped **format v2**: contiguous
per-level uint8/uint64/int32 arrays plus a serialized remainder index,
so opening a store costs O(queries touched) -- milliseconds for open +
first query, against seconds for the legacy eager format.  v1 stores
stay readable (``repro store migrate`` upgrades them), loading verifies
checksums and refuses stores whose library or cost-model fingerprints
do not match (`StoreMismatchError`), and ``repro store verify`` runs
the full integrity pass a lazy open skips.

See README.md for the full tour and DESIGN.md for the architecture.
"""

from importlib import import_module as _import_module

from repro._version import __version__

#: Exported name -> the module it is imported from on first use.  The
#: names load lazily (PEP 562) so that processes which only route or
#: probe -- ``repro fleet serve``'s own process, clients -- never pay
#: for importing the closure engine and numpy.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.errors": (
            "ReproError",
            "InvalidValueError",
            "InvalidGateError",
            "InvalidCircuitError",
            "InvalidPermutationError",
            "SynthesisError",
            "CostBoundExceededError",
            "SpecificationError",
            "SimulationError",
            "NonBinaryControlError",
            "StoreError",
            "StoreCorruptError",
            "StoreMismatchError",
            "StoreVersionError",
        ),
        "repro.mvl": ("Qv", "Pattern", "LabelSpace", "label_space"),
        "repro.linalg": ("DyadicComplex", "Matrix"),
        "repro.perm": ("Permutation", "PermutationGroup", "symmetric_group"),
        "repro.gates": (
            "Gate", "GateKind", "GateLibrary", "TruthTable", "named",
        ),
        "repro.core": (
            "Circuit",
            "CostModel",
            "CascadeSearch",
            "SearchArrays",
            "StoreHeader",
            "BatchSynthesizer",
            "CostTable",
            "dump_search",
            "find_minimum_cost_circuits",
            "express",
            "express_all",
            "express_probabilistic",
            "load_search",
            "loads_search",
            "migrate_store",
            "open_store",
            "ProbabilisticSpec",
            "read_header",
            "save_search",
            "SynthesisResult",
            "verify_store",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "__version__",
    # errors
    "ReproError",
    "InvalidValueError",
    "InvalidGateError",
    "InvalidCircuitError",
    "InvalidPermutationError",
    "SynthesisError",
    "CostBoundExceededError",
    "SpecificationError",
    "SimulationError",
    "NonBinaryControlError",
    "StoreError",
    "StoreCorruptError",
    "StoreMismatchError",
    "StoreVersionError",
    # substrates
    "Qv",
    "Pattern",
    "LabelSpace",
    "label_space",
    "DyadicComplex",
    "Matrix",
    "Permutation",
    "PermutationGroup",
    "symmetric_group",
    # gates
    "Gate",
    "GateKind",
    "GateLibrary",
    "TruthTable",
    "named",
    # core
    "Circuit",
    "CostModel",
    "CascadeSearch",
    "SearchArrays",
    "StoreHeader",
    "BatchSynthesizer",
    "CostTable",
    "dump_search",
    "find_minimum_cost_circuits",
    "express",
    "express_all",
    "express_probabilistic",
    "load_search",
    "loads_search",
    "migrate_store",
    "open_store",
    "ProbabilisticSpec",
    "read_header",
    "save_search",
    "SynthesisResult",
    "verify_store",
]
