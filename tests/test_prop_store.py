"""Property-based tests: store-format roundtrip invariants (hypothesis).

For random small libraries, cost models, bounds and store formats (the
legacy v1 byte records, written by the test-side encoder in
``tests/legacy_v1.py``, and the memory-mapped v2 array layout):
expanding a closure, serializing it and loading it back must reproduce
the search exactly -- level sizes and contents, minimal costs, parent
pointers and witness circuits -- and the loaded search must keep
expanding identically.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_v1 import encode_v1
from repro.core.cost import CostModel
from repro.core.search import CascadeSearch
from repro.core.store import dump_search, loads_search
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary

_ALL_KINDS = (GateKind.V, GateKind.VDAG, GateKind.CNOT)

# Random library/cost-model configurations: small enough that a closure
# expands in milliseconds, varied enough to cover empty levels (non-unit
# costs), missing gate kinds and both register widths.
library_configs = st.tuples(
    st.integers(min_value=2, max_value=3),
    st.lists(
        st.sampled_from(_ALL_KINDS), min_size=1, max_size=3, unique=True
    ),
)
store_formats = st.sampled_from((1, 2))
#: Formats the library itself writes.
written_formats = st.sampled_from((2, 3))
cost_models = st.builds(
    CostModel,
    v_cost=st.integers(min_value=1, max_value=2),
    vdag_cost=st.integers(min_value=1, max_value=2),
    cnot_cost=st.integers(min_value=1, max_value=3),
)


def _dump(search, fmt):
    """Store bytes in *fmt*; v1 comes from the legacy test encoder."""
    return encode_v1(search) if fmt == 1 else dump_search(search, fmt)


def _expand(config, cost_model, bound, track_parents):
    n_qubits, kinds = config
    library = GateLibrary(n_qubits, kinds=tuple(kinds))
    search = CascadeSearch(library, cost_model, track_parents=track_parents)
    search.extend_to(bound)
    return library, search


class TestRoundtripInvariants:
    @given(
        config=library_configs,
        cost_model=cost_models,
        bound=st.integers(min_value=0, max_value=3),
        fmt=store_formats,
    )
    @settings(max_examples=20, deadline=None)
    def test_levels_and_costs_survive(self, config, cost_model, bound, fmt):
        library, search = _expand(config, cost_model, bound, True)
        loaded = loads_search(_dump(search, fmt), library, cost_model)
        assert loaded.expanded_to == search.expanded_to
        assert loaded.stats().level_sizes == search.stats().level_sizes
        for cost in range(bound + 1):
            assert loaded.level(cost) == search.level(cost)
            for perm, _mask in search.level(cost):
                assert loaded.cost_of(perm) == cost

    @given(
        config=library_configs,
        cost_model=cost_models,
        bound=st.integers(min_value=1, max_value=3),
        fmt=store_formats,
    )
    @settings(max_examples=15, deadline=None)
    def test_witness_circuits_survive(self, config, cost_model, bound, fmt):
        library, search = _expand(config, cost_model, bound, True)
        loaded = loads_search(_dump(search, fmt), library, cost_model)
        for cost in range(1, bound + 1):
            for perm, _mask in search.level(cost):
                assert loaded.witness_indices(perm) == search.witness_indices(
                    perm
                )
                circuit = loaded.witness_circuit(perm)
                assert circuit.permutation(library.space).images == perm

    @given(
        config=library_configs,
        cost_model=cost_models,
        bound=st.integers(min_value=0, max_value=2),
        track_parents=st.booleans(),
        fmt=store_formats,
    )
    @settings(max_examples=15, deadline=None)
    def test_loaded_search_extends_like_the_original(
        self, config, cost_model, bound, track_parents, fmt
    ):
        library, search = _expand(config, cost_model, bound, track_parents)
        loaded = loads_search(_dump(search, fmt), library, cost_model)
        assert loaded.tracks_parents == track_parents
        search.extend_to(bound + 1)
        loaded.extend_to(bound + 1)
        assert loaded.stats().level_sizes == search.stats().level_sizes
        assert sorted(p for p, _m in loaded.level(bound + 1)) == sorted(
            p for p, _m in search.level(bound + 1)
        )

    @given(
        config=library_configs,
        bound=st.integers(min_value=0, max_value=3),
        fmt=written_formats,
    )
    @settings(max_examples=15, deadline=None)
    def test_dump_is_deterministic(self, config, bound, fmt):
        _library, search = _expand(config, CostModel(), bound, True)
        assert dump_search(search, fmt) == dump_search(search, fmt)

    @given(
        config=library_configs,
        cost_model=cost_models,
        bound=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_v1_and_v2_loads_agree(self, config, cost_model, bound):
        library, search = _expand(config, cost_model, bound, True)
        via_v1 = loads_search(encode_v1(search), library, cost_model)
        via_v2 = loads_search(dump_search(search, 2), library, cost_model)
        assert via_v1.stats().level_sizes == via_v2.stats().level_sizes
        for cost in range(bound + 1):
            assert via_v1.level(cost) == via_v2.level(cost)
            for perm, _mask in via_v1.level(cost):
                assert via_v1.witness_indices(perm) == (
                    via_v2.witness_indices(perm)
                )


class TestStateRoundtrip:
    @given(
        config=library_configs,
        cost_model=cost_models,
        bound=st.integers(min_value=0, max_value=3),
        track_parents=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_export_restore_export_is_identity(
        self, config, cost_model, bound, track_parents
    ):
        library, search = _expand(config, cost_model, bound, track_parents)
        arrays = search.export_arrays()
        rebuilt = CascadeSearch.from_arrays(library, arrays, cost_model)
        again = rebuilt.export_arrays()
        assert again.expanded_to == arrays.expanded_to
        assert again.level_sizes == arrays.level_sizes
        for name in ("level_offsets", "perms", "masks", "parents", "gates"):
            ours, theirs = getattr(again, name), getattr(arrays, name)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                np.testing.assert_array_equal(ours, theirs)
        for row in range(arrays.n_rows):
            assert rebuilt.perm_bytes_at(row) == search.perm_bytes_at(row)
            assert rebuilt.cost_of_row(row) == search.cost_of_row(row)
            if track_parents:
                assert rebuilt.witness_indices_for_row(row) == (
                    search.witness_indices_for_row(row)
                )
