"""Unit tests for MCE (repro.core.mce) -- minimum-cost expression."""

import pytest

from repro.errors import CostBoundExceededError, SpecificationError
from repro.core.circuit import Circuit
from repro.core.mce import express, express_all, minimal_cost
from repro.core.search import CascadeSearch
from repro.gates import named
from repro.gates.kinds import GateKind
from repro.perm.permutation import Permutation


class TestPaperSyntheses:
    def test_peres_cost_4(self, library3, search3):
        result = express(named.PERES, library3, search=search3)
        assert result.cost == 4
        assert result.not_mask == 0
        assert result.circuit.binary_permutation() == named.PERES

    def test_peres_has_exactly_two_implementations(self, library3, search3):
        results = express_all(named.PERES, library3, search=search3)
        assert len(results) == 2

    def test_peres_implementations_are_adjoint_swaps(self, library3, search3):
        a, b = express_all(named.PERES, library3, search=search3)
        # Figure 4 vs Figure 8: swap every V with V+.
        assert a.circuit.adjoint_swapped().binary_permutation() == named.PERES
        names_a = [g.kind for g in a.circuit.gates]
        names_b = [g.kind for g in b.circuit.gates]
        swap = {GateKind.V: GateKind.VDAG, GateKind.VDAG: GateKind.V,
                GateKind.CNOT: GateKind.CNOT}
        assert [swap[k] for k in names_a] == names_b

    def test_toffoli_cost_5(self, library3, search3):
        result = express(named.TOFFOLI, library3, search=search3)
        assert result.cost == 5
        assert result.circuit.binary_permutation() == named.TOFFOLI

    def test_toffoli_has_exactly_four_implementations(self, library3, search3):
        results = express_all(named.TOFFOLI, library3, search=search3)
        assert len(results) == 4
        for result in results:
            assert result.cost == 5
            assert result.circuit.binary_permutation() == named.TOFFOLI

    def test_toffoli_implementations_form_adjoint_pairs(self, library3, search3):
        results = express_all(named.TOFFOLI, library3, search=search3)
        perms = {r.cascade_permutation for r in results}
        # Swapping V <-> V+ maps the implementation set to itself.
        for result in results:
            swapped = result.circuit.adjoint_swapped()
            assert swapped.binary_permutation() == named.TOFFOLI

    def test_fredkin_cost_7(self, library3, search3):
        assert minimal_cost(named.FREDKIN, library3, search=search3) == 7

    def test_figure4_cascade_is_valid_witness(self, library3, search3):
        # The printed Figure 4 circuit realizes Peres at the found cost.
        figure4 = Circuit.from_names("V_CB F_BA V_CA V+_CB", 3)
        assert figure4.binary_permutation() == named.PERES
        assert figure4.cost() == express(
            named.PERES, library3, search=search3
        ).cost

    @pytest.mark.parametrize(
        "names",
        [
            "F_BA V+_CB F_BA V_CA V_CB",
            "F_BA V_CB F_BA V+_CA V+_CB",
            "F_AB V+_CA F_AB V_CA V_CB",
            "F_AB V_CA F_AB V+_CA V+_CB",
        ],
    )
    def test_figure9_cascades_realize_toffoli_at_cost_5(self, names):
        circuit = Circuit.from_names(names, 3)
        assert circuit.binary_permutation() == named.TOFFOLI
        assert circuit.cost() == 5


class TestNotLayerHandling:
    def test_pure_not_layer_costs_zero(self, library3, search3):
        target = named.not_layer_permutation(0b101)
        result = express(target, library3, search=search3)
        assert result.cost == 0
        assert result.not_mask == 0b101
        assert [g.kind for g in result.circuit] == [GateKind.NOT, GateKind.NOT]
        assert result.circuit.binary_permutation() == target

    def test_identity_costs_zero(self, library3, search3):
        result = express(named.IDENTITY3, library3, search=search3)
        assert result.cost == 0
        assert len(result.circuit) == 0

    def test_target_needing_not_layer(self, library3, search3):
        # NOT_A then Toffoli: moves the all-zero pattern.
        target = named.not_layer_permutation(0b100) * named.TOFFOLI
        result = express(target, library3, search=search3)
        assert result.not_mask != 0
        assert result.circuit.binary_permutation() == target

    def test_allow_not_false_rejects_moving_zero(self, library3, search3):
        target = named.not_layer_permutation(0b001)
        with pytest.raises(SpecificationError):
            express(target, library3, search=search3, allow_not=False)

    def test_allow_not_false_works_for_stabilizing_targets(
        self, library3, search3
    ):
        result = express(
            named.TOFFOLI, library3, search=search3, allow_not=False
        )
        assert result.cost == 5
        assert result.not_mask == 0

    def test_two_qubit_circuit_property(self, library3, search3):
        target = named.not_layer_permutation(0b100) * named.TOFFOLI
        result = express(target, library3, search=search3)
        assert result.two_qubit_circuit.not_count == 0
        assert result.two_qubit_circuit.two_qubit_count == result.cost


class TestErrors:
    def test_degree_mismatch(self, library3, search3):
        with pytest.raises(SpecificationError):
            express(Permutation.identity(4), library3, search=search3)

    def test_cost_bound_exceeded(self, library3):
        with pytest.raises(CostBoundExceededError) as excinfo:
            express(named.TOFFOLI, library3, cost_bound=4)
        assert excinfo.value.cost_bound == 4

    def test_fredkin_beyond_bound_6(self, library3, search3):
        with pytest.raises(CostBoundExceededError):
            express(named.FREDKIN, library3, cost_bound=6, search=search3)

    def test_search_without_parents_rejected(self, library3):
        search = CascadeSearch(library3, track_parents=False)
        with pytest.raises(SpecificationError):
            express(named.TOFFOLI, library3, search=search)

    def test_cost_model_other_than_the_search_is_refused(
        self, library3, search3, weighted_search3
    ):
        # The unit search's levels are unit costs: answering a weighted
        # query from them would report Peres at 4 instead of 5.
        weighted = weighted_search3.cost_model
        with pytest.raises(SpecificationError, match="shared search"):
            express(named.PERES, library3, cost_model=weighted, search=search3)
        assert express(named.PERES, library3, search=weighted_search3).cost == 5
        assert express(
            named.PERES, library3, cost_model=weighted,
            search=weighted_search3,
        ).cost == 5
        assert express(named.PERES, library3, cost_model=weighted).cost == 5


class TestMinimality:
    """Theorem 1/3: the returned cost is minimal."""

    @pytest.mark.parametrize("cost", [1, 2, 3, 4])
    def test_every_class_member_expresses_at_its_cost(
        self, library3, search3, cost_table5, cost
    ):
        # A sample of members from each G[k] must synthesize at cost k.
        members = cost_table5.members(cost)
        for perm in members[:: max(1, len(members) // 8)]:
            result = express(perm, library3, search=search3)
            assert result.cost == cost
            assert result.circuit.binary_permutation() == perm

    def test_result_str(self, library3, search3):
        result = express(named.PERES, library3, search=search3)
        assert "cost 4" in str(result)
