"""Unit tests for probabilistic synthesis (repro.core.probabilistic) -- Sec. 4."""

import dataclasses
from fractions import Fraction

import pytest

from repro.errors import (
    CostBoundExceededError,
    SpecificationError,
    StoreCorruptError,
)
from repro.core.probabilistic import (
    ProbabilisticSpec,
    express_probabilistic,
)
from repro.core.search import CascadeSearch
from repro.gates import named
from repro.mvl.patterns import Pattern, binary_patterns
from repro.mvl.values import Qv


def v_spec_3q():
    """enable=A; when A=1, wire B becomes V(B): the 1-bit controlled RNG."""
    outputs = []
    for p in binary_patterns(3):
        if p[0] is Qv.ONE:
            from repro.mvl.values import apply_v

            outputs.append(p.with_value(1, apply_v(p[1])))
        else:
            outputs.append(p)
    return ProbabilisticSpec(tuple(outputs))


class TestSpecValidation:
    def test_needs_power_of_two_rows(self):
        with pytest.raises(SpecificationError):
            ProbabilisticSpec((Pattern([0]), Pattern([1]), Pattern([0, 1])))

    def test_row_count_must_match_width(self):
        with pytest.raises(SpecificationError):
            ProbabilisticSpec((Pattern([0, 0]), Pattern([0, 1])))

    def test_mixed_width_rows_rejected(self):
        with pytest.raises(SpecificationError):
            ProbabilisticSpec(
                (Pattern([0]), Pattern([1, 0]))
            )

    def test_from_strings(self):
        spec = ProbabilisticSpec.from_strings(["0", "1"])
        assert spec.n_qubits == 1

    def test_from_bit_distributions(self):
        spec = ProbabilisticSpec.from_bit_distributions(
            [(0, 0), (0, 1), (1, "?"), (1, "?")]
        )
        assert spec.outputs[2] == Pattern([1, Qv.V0])

    def test_from_bit_distributions_bad_symbol(self):
        with pytest.raises(SpecificationError):
            ProbabilisticSpec.from_bit_distributions([(0, "x"), (0, 1)])

    def test_deterministic_wrapper(self):
        spec = ProbabilisticSpec.deterministic(named.TOFFOLI, 3)
        assert spec.is_deterministic()
        assert spec.outputs[6] == Pattern([1, 1, 1])


class TestFeasibility:
    def test_zero_row_must_be_fixed(self, library3):
        outputs = list(binary_patterns(3))
        outputs[0], outputs[1] = outputs[1], outputs[0]
        spec = ProbabilisticSpec(tuple(outputs))
        with pytest.raises(SpecificationError):
            spec.validate_feasible(library3)

    def test_duplicate_outputs_rejected(self, library3):
        outputs = list(binary_patterns(3))
        outputs[3] = outputs[2]
        spec = ProbabilisticSpec(tuple(outputs))
        with pytest.raises(SpecificationError):
            spec.validate_feasible(library3)

    def test_unreachable_pattern_rejected(self, library3):
        # (V0, 0, 0) has no pure 1: outside the reachable label space.
        outputs = list(binary_patterns(3))
        outputs[4] = Pattern([Qv.V0, 0, 0])
        spec = ProbabilisticSpec(tuple(outputs))
        with pytest.raises(SpecificationError):
            spec.validate_feasible(library3)

    def test_width_mismatch_rejected(self, library3):
        spec = ProbabilisticSpec.from_strings(["0", "1"])
        with pytest.raises(SpecificationError):
            spec.validate_feasible(library3)

    def test_feasible_spec_returns_images(self, library3):
        images = v_spec_3q().validate_feasible(library3)
        assert len(images) == 8
        assert images[0] == 0


class TestMeasurementDistribution:
    def test_deterministic_rows(self):
        spec = v_spec_3q()
        assert spec.measurement_distribution(0) == {(0, 0, 0): Fraction(1)}

    def test_random_rows_split(self):
        spec = v_spec_3q()
        dist = spec.measurement_distribution(4)  # input (1,0,0)
        assert dist == {
            (1, 0, 0): Fraction(1, 2),
            (1, 1, 0): Fraction(1, 2),
        }


class TestSynthesis:
    def test_single_v_gate_spec(self, library3, search3):
        result = express_probabilistic(v_spec_3q(), library3, search=search3)
        assert result.cost == 1
        assert result.circuit.names() == ("V_BA",)

    def test_identity_spec_costs_zero(self, library3, search3):
        spec = ProbabilisticSpec(tuple(binary_patterns(3)))
        result = express_probabilistic(spec, library3, search=search3)
        assert result.cost == 0
        assert len(result.circuit) == 0

    def test_deterministic_spec_matches_mce(self, library3, search3):
        spec = ProbabilisticSpec.deterministic(named.PERES, 3)
        result = express_probabilistic(spec, library3, search=search3)
        assert result.cost == 4
        assert result.circuit.binary_permutation() == named.PERES

    def test_synthesized_circuit_realizes_spec_exactly(self, library3, search3):
        spec = v_spec_3q()
        result = express_probabilistic(spec, library3, search=search3)
        for index, pattern in enumerate(binary_patterns(3)):
            assert result.circuit.strict_apply(pattern) == spec.outputs[index]

    def test_all_implementations(self, library3, search3):
        results = express_probabilistic(
            v_spec_3q(), library3, search=search3, all_implementations=True
        )
        assert isinstance(results, list)
        assert all(r.cost == results[0].cost for r in results)

    def test_cost_bound_exceeded(self, library3):
        # A two-random-bit generator needs cost 2 > bound 1.
        from repro.mvl.values import apply_v

        outputs = []
        for p in binary_patterns(3):
            if p[0] is Qv.ONE:
                outputs.append(
                    p.with_value(1, apply_v(p[1])).with_value(2, apply_v(p[2]))
                )
            else:
                outputs.append(p)
        spec = ProbabilisticSpec(tuple(outputs))
        with pytest.raises(CostBoundExceededError):
            express_probabilistic(spec, library3, cost_bound=1)

    def test_search_without_parents_rejected(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        with pytest.raises(SpecificationError):
            express_probabilistic(v_spec_3q(), library3, search=search)

    def test_result_str(self, library3, search3):
        result = express_probabilistic(v_spec_3q(), library3, search=search3)
        assert "cost 1" in str(result)

    def test_cost_model_other_than_the_search_is_refused(
        self, library3, search3, weighted_search3
    ):
        # Toffoli costs 7 under the weighted model; the unit search's
        # first match would report a non-minimal 9.
        spec = ProbabilisticSpec.deterministic(named.TOFFOLI, 3)
        weighted = weighted_search3.cost_model
        with pytest.raises(SpecificationError, match="shared search"):
            express_probabilistic(
                spec, library3, cost_model=weighted, search=search3
            )
        result = express_probabilistic(
            spec, library3, cost_model=weighted, search=weighted_search3
        )
        assert result.cost == 7 == result.circuit.cost(weighted)


class TestCertification:
    def test_corrupted_gate_column_is_store_corrupt(self, library3):
        search = CascadeSearch(library3)
        search.extend_to(2)
        result = express_probabilistic(v_spec_3q(), library3, search=search)
        arrays = search.export_arrays()
        (row,) = search.find_matching_rows(
            1, result.cascade_permutation.images[:8]
        )
        gates = arrays.gates.copy()
        gates[row] = (gates[row] + 1) % len(library3)
        corrupt = CascadeSearch.from_arrays(
            library3, dataclasses.replace(arrays, gates=gates)
        )
        with pytest.raises(StoreCorruptError, match="fails certification"):
            express_probabilistic(v_spec_3q(), library3, search=corrupt)


def level_scan(search, cost_bound):
    """Every S-image of levels ``0..cost_bound``: the oracle.

    Maps each S-image vector (a cascade's first ``2**n`` labels) to its
    first cost and the cascade permutations at that cost, in level
    order -- the Python scan over :meth:`CascadeSearch.level` that
    :func:`express_probabilistic` ran before it matched rows.
    """
    n_binary = search.library.space.n_binary
    found = {}
    for cost in range(cost_bound + 1):
        for perm, _mask in search.level(cost):
            hit = found.get(perm[:n_binary])
            if hit is None:
                found[perm[:n_binary]] = (cost, [perm])
            elif hit[0] == cost:
                hit[1].append(perm)
    return found


def assert_matches_level_scan(library, search, cost_bound):
    space = library.space
    for wanted, (cost, perms) in level_scan(search, cost_bound).items():
        spec = ProbabilisticSpec(tuple(space.pattern(label) for label in wanted))
        first = express_probabilistic(
            spec, library, cost_bound=cost_bound, search=search
        )
        every = express_probabilistic(
            spec, library, cost_bound=cost_bound, search=search,
            all_implementations=True,
        )
        assert [r.cascade_permutation.images for r in every] == perms
        assert {r.cost for r in every} == {cost}
        assert first == every[0]
        assert first.circuit == search.witness_circuit(perms[0])


class TestAgainstLevelScan:
    """Every realizable 3-qubit spec, against the test-side level scan."""

    def test_every_spec_up_to_cost_4(self, library3, search3):
        assert_matches_level_scan(library3, search3, 4)

    @pytest.mark.slow
    def test_every_spec_up_to_cost_7(self, library3, search3):
        assert_matches_level_scan(library3, search3, 7)
