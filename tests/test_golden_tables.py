"""Golden regression suite: the paper's tables, pinned number by number.

These tests freeze the exact outputs of the search/FMCF engine -- the
Table 1 permutation and every |B[k]| / |A[k]| / |G[k]| / |S8[k]| count
through the paper's cost bound cb = 7 -- so a refactor of the engine
cannot silently change results.  If a change legitimately alters these
numbers, that is a results change, not a refactor: update the constants
here in the same commit and say why.

Every closure-level assertion runs six ways -- against the live vector
search, the byte-level ``translate`` reference kernel, the vector engine
with a two-worker compose pool, and store-roundtripped copies in the
legacy v1 (written by the test encoder ``tests/legacy_v1.py``; the
library only reads v1), memory-mapped v2 and compressed v3 formats
(``dump_search``/``loads_search``) -- so both expansion kernels, the
pool path and every persistence format are held to the same golden
values.

The pooled flavor keeps its historical param id ``parallel-kernel``
(from when the pool lived in a separate kernel) so its test ids stay
stable; it builds ``CascadeSearch(kernel="vector",
kernel_options={"jobs": 2})``.

Documented deviations from the published Table 2 (see bench_table2.py):
|G[2]| = 24 vs the paper's 30 and |G[3]| = 51 vs 52; the
``paper_pseudocode=True`` variant reproduces the published 52.
"""

import pytest

from legacy_v1 import encode_v1
from repro.core.batch import BatchSynthesizer
from repro.core.fmcf import find_minimum_cost_circuits
from repro.core.store import dump_search, loads_search

#: |B[k]|: distinct cascade permutations of minimal cost exactly k.
GOLDEN_B = [1, 18, 162, 1017, 5364, 25761, 118888, 538191]
#: |A[k]| = |B[0]| + ... + |B[k]| (cumulative closure sizes).
GOLDEN_A = [1, 19, 181, 1198, 6562, 32323, 151211, 689402]
#: |G[k]|: reversible 3-qubit functions of minimal NOT-free cost k.
GOLDEN_G = [1, 6, 24, 51, 84, 156, 398, 540]
#: |S8[k]| = 8 |G[k]| (Theorem 2's free NOT layers).
GOLDEN_S8 = [8, 48, 192, 408, 672, 1248, 3184, 4320]
#: The published pseudocode variant (no G[0] subtraction): |G[3]| = 52.
GOLDEN_G_PAPER_PSEUDOCODE = [1, 6, 24, 52, 84]

#: Minimal cost and implementation count per named target (cb = 7).
GOLDEN_NAMED = {
    "identity": (0, 1),
    "cnot_ba": (1, 1),
    "cnot_cb": (1, 1),
    "swap_ab": (3, 1),
    "swap_ac": (3, 1),
    "swap_bc": (3, 1),
    "g1": (4, 2),
    "g2": (4, 2),
    "g3": (4, 2),
    "g4": (4, 2),
    "peres": (4, 2),
    "toffoli": (5, 4),
    "fredkin": (7, 16),
}


#: Closure flavors built by a fresh search (param id -> search kwargs).
_KERNEL_FLAVORS = {
    "translate-kernel": {"kernel": "translate"},
    "parallel-kernel": {"kernel": "vector", "kernel_options": {"jobs": 2}},
}


@pytest.fixture(
    scope="module",
    params=[
        "live", "translate-kernel", "parallel-kernel",
        "store-v1", "store-v2", "store-v3",
    ],
)
def closure(request, search3, library3):
    """The cost-7 closure: both kernels, the pool, every store format."""
    search3.extend_to(7)
    if request.param == "live":
        return search3
    if request.param in _KERNEL_FLAVORS:
        from repro.core.search import CascadeSearch

        search = CascadeSearch(
            library3, track_parents=True, **_KERNEL_FLAVORS[request.param]
        )
        search.extend_to(7)
        return search
    if request.param == "store-v1":
        return loads_search(encode_v1(search3), library3)
    version = {"store-v2": 2, "store-v3": 3}[request.param]
    return loads_search(
        dump_search(search3, format_version=version), library3
    )


@pytest.fixture(scope="module")
def closure_batch(closure):
    """One batch index per closure flavor (building it scans the closure)."""
    return BatchSynthesizer(closure, cost_bound=7)


class TestTable1:
    """Table 1: the controlled-V truth table on the grouped 2-qubit space."""

    def test_ctrl_v_permutation_is_pinned(self):
        from repro.gates.gate import Gate
        from repro.gates.truth_table import TruthTable
        from repro.mvl.labels import label_space

        space = label_space(2, reduced=False, ordering="grouped")
        table = TruthTable.from_gate(Gate.v(1, 0, 2), space)
        permutation = table.permutation()
        assert permutation.cycle_string() == "(3,7,4,8)"
        assert tuple(permutation.images) == (
            0, 1, 6, 7, 4, 5, 3, 2, 8, 9, 10, 11, 12, 13, 14, 15
        )

    def test_ctrl_v_moves_only_controlled_rows(self):
        """Rows with control A = 1 change; control A = 0 rows are fixed."""
        from repro.gates.gate import Gate
        from repro.gates.truth_table import TruthTable
        from repro.mvl.labels import label_space
        from repro.mvl.values import Qv

        space = label_space(2, reduced=False, ordering="grouped")
        table = TruthTable.from_gate(Gate.v(1, 0, 2), space)
        for label, pattern in enumerate(space.patterns):
            image = table.permutation()(label)
            if pattern[0] in (Qv.ZERO,):
                assert image == label, f"control-0 row {pattern} moved"


class TestTable2Closure:
    """|B[k]| and |A[k]| -- the raw closure sizes behind Table 2."""

    def test_level_sizes_are_pinned(self, closure):
        stats = closure.stats()
        assert list(stats.level_sizes) == GOLDEN_B

    def test_cumulative_sizes_are_pinned(self, closure):
        stats = closure.stats()
        assert list(stats.a_sizes) == GOLDEN_A
        assert closure.total_seen() == GOLDEN_A[-1]

    def test_level_queries_match_stats(self, closure):
        for cost, size in enumerate(GOLDEN_B):
            assert closure.level_size(cost) == size


class TestTable2Functions:
    """|G[k]| and |S8[k]| -- Table 2 proper, live FMCF and store-served."""

    def test_fmcf_sizes_are_pinned(self, cost_table7):
        assert cost_table7.g_sizes == GOLDEN_G
        assert cost_table7.s8_sizes == GOLDEN_S8
        assert cost_table7.b_sizes == GOLDEN_B
        assert cost_table7.a_sizes == GOLDEN_A

    def test_fmcf_from_closure_matches(self, closure, library3):
        table = find_minimum_cost_circuits(library3, cost_bound=7, search=closure)
        assert table.g_sizes == GOLDEN_G
        assert table.s8_sizes == GOLDEN_S8

    def test_batch_cost_table_matches(self, closure_batch):
        table = closure_batch.cost_table()
        assert table.g_sizes == GOLDEN_G
        assert table.s8_sizes == GOLDEN_S8
        assert table.b_sizes == GOLDEN_B
        assert table.a_sizes == GOLDEN_A

    def test_paper_pseudocode_variant_is_pinned(self, library3):
        table = find_minimum_cost_circuits(
            library3, cost_bound=4, paper_pseudocode=True
        )
        assert table.g_sizes == GOLDEN_G_PAPER_PSEUDOCODE


class TestNamedTargets:
    """Minimal costs and implementation counts of the paper's targets."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_NAMED))
    def test_cost_and_implementation_count(self, name, closure, library3):
        from repro.core.mce import express_all
        from repro.gates import named

        cost, n_impls = GOLDEN_NAMED[name]
        results = express_all(
            named.TARGETS[name], library3, cost_bound=7, search=closure
        )
        assert results[0].cost == cost
        assert len(results) == n_impls

    @pytest.mark.parametrize("name", sorted(GOLDEN_NAMED))
    def test_batch_agrees(self, name, closure_batch):
        from repro.gates import named

        cost, n_impls = GOLDEN_NAMED[name]
        assert closure_batch.minimal_cost(named.TARGETS[name]) == cost
        assert len(closure_batch.synthesize_all(named.TARGETS[name])) == n_impls


#: Ternary width-2 |B[k]| through bound 4 (Di-Wei library, MS controls).
GOLDEN_TERNARY_B = [1, 10, 35, 140, 571]
#: Ternary cumulative closure sizes |A[k]|.
GOLDEN_TERNARY_A = [1, 11, 46, 186, 757]
#: Quaternary width-2 |B[k]| through bound 3.
GOLDEN_QUATERNARY_B = [1, 18, 127, 708]

#: (minimal cost, implementation count) per pinned ternary target spec.
GOLDEN_TERNARY_TARGETS = {
    "(8,9)": (2, 1),
    "(1,2)": (4, 1),
    "(1,2,3)": (4, 1),
    "(1,4,7)": (4, 1),
    "(1,2)(4,5)(7,8)": (1, 1),
}


@pytest.fixture(scope="module")
def ternary_library2():
    from repro.gates.ternary import ternary_library

    return ternary_library(2)


@pytest.fixture(
    scope="module",
    params=[
        "live", "translate-kernel", "parallel-kernel",
        "store-v2", "store-v3",
    ],
)
def ternary_closure(request, ternary_library2):
    """The ternary bound-4 closure: every kernel and mmap store format."""
    from repro.core.search import CascadeSearch

    search = CascadeSearch(
        ternary_library2,
        track_parents=True,
        **_KERNEL_FLAVORS.get(request.param, {}),
    )
    search.extend_to(4)
    if request.param.startswith("store-"):
        version = {"store-v2": 2, "store-v3": 3}[request.param]
        return loads_search(
            dump_search(search, format_version=version), ternary_library2
        )
    return search


class TestTernaryClosure:
    """Pinned ternary closure counts -- the MV analog of Table 2."""

    def test_level_sizes_are_pinned(self, ternary_closure):
        stats = ternary_closure.stats()
        assert list(stats.level_sizes) == GOLDEN_TERNARY_B
        assert list(stats.a_sizes) == GOLDEN_TERNARY_A
        assert ternary_closure.total_seen() == GOLDEN_TERNARY_A[-1]

    def test_fmcf_has_no_free_not_layer(self, ternary_closure, ternary_library2):
        """MV G[k] == B[k]: without Theorem 2 every member is its own class."""
        table = find_minimum_cost_circuits(
            ternary_library2, cost_bound=4, search=ternary_closure
        )
        assert table.g_sizes == GOLDEN_TERNARY_B
        assert table.b_sizes == GOLDEN_TERNARY_B
        assert table.a_sizes == GOLDEN_TERNARY_A

    @pytest.mark.parametrize("spec", sorted(GOLDEN_TERNARY_TARGETS))
    def test_pinned_target_costs(self, spec, ternary_closure):
        from repro.io import parse_target
        from repro.sim.verify import verify_synthesis

        cost, n_impls = GOLDEN_TERNARY_TARGETS[spec]
        batch = BatchSynthesizer(ternary_closure, cost_bound=4)
        target = parse_target(spec, n_qubits=2, radix=3)
        results = batch.synthesize_all(target)
        assert results[0].cost == cost
        assert len(results) == n_impls
        assert verify_synthesis(results[0])


class TestQuaternaryClosure:
    """Pinned quaternary closure counts (vector kernel)."""

    def test_level_sizes_are_pinned(self):
        from repro.core.search import CascadeSearch
        from repro.gates.quaternary import quaternary_library

        search = CascadeSearch(quaternary_library(2), track_parents=True)
        search.extend_to(3)
        assert list(search.stats().level_sizes) == GOLDEN_QUATERNARY_B

    @pytest.mark.parametrize("flavor", sorted(_KERNEL_FLAVORS))
    def test_level_sizes_pinned_on_every_kernel(self, flavor):
        from repro.core.search import CascadeSearch
        from repro.gates.quaternary import quaternary_library

        search = CascadeSearch(
            quaternary_library(2),
            track_parents=True,
            **_KERNEL_FLAVORS[flavor],
        )
        search.extend_to(3)
        assert list(search.stats().level_sizes) == GOLDEN_QUATERNARY_B
        search.close()
