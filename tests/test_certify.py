"""Differential tests: ``certify`` against the pattern-level reference.

:func:`repro.core.mce.certify` composes a library's cached translate
tables; the reference re-derives the same verdict from patterns --
``Circuit.binary_permutation(strict=True)`` on binary registers,
``Circuit.permutation(space)`` on the ternary and quaternary digit
libraries -- plus the cascade's cost under the cost model.  For random
gate-name sequences (library gates behind an optional leading NOT
layer) and a claimed target and cost -- the true ones, the ones the
label algebra gives when Definition 1 is ignored, or random ones --
both must accept or reject together, and an accepted record must
rebuild (``repro.io.result_from_dict``) into the reference's
``SynthesisResult``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.cost import UNIT_COST, CostModel
from repro.core.mce import SynthesisResult, certify, not_gates_by_name
from repro.errors import (
    InvalidCircuitError,
    NonBinaryControlError,
    SpecificationError,
)
from repro.gates import named
from repro.gates.library import library_for
from repro.io import result_from_dict, result_to_dict
from repro.perm.permutation import Permutation

#: (n_qubits, radix) of every library under test.
LIBRARIES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4))

cost_models = st.builds(
    CostModel,
    v_cost=st.integers(min_value=1, max_value=3),
    vdag_cost=st.integers(min_value=1, max_value=3),
    cnot_cost=st.integers(min_value=1, max_value=3),
)


def split(library, names):
    """(whole circuit, cascade without the NOT gates) for gate names."""
    n = library.n_qubits
    nots = not_gates_by_name(n)
    gates = tuple(
        nots[name] if name in nots else library.by_name(name).gate
        for name in names
    )
    cascade = tuple(gate for gate in gates if gate.name not in nots)
    return Circuit(gates, n), Circuit(cascade, n)


def true_claim(library, names, cost_model):
    """(target, cost) the names realize, or None when not reversible."""
    circuit, cascade = split(library, names)
    if library.space.radix == 2:
        try:
            target = circuit.binary_permutation(strict=True)
        except (NonBinaryControlError, InvalidCircuitError):
            return None
    else:
        target = circuit.permutation(library.space)
    return target, cascade.cost(cost_model)


def reference(library, names, target, cost, cost_model):
    """The pattern-level verdict: a ``SynthesisResult`` or None."""
    if true_claim(library, names, cost_model) != (target, cost):
        return None
    circuit, cascade = split(library, names)
    return SynthesisResult(
        target=target,
        circuit=circuit,
        cost=cost,
        not_mask=target.inverse()(0) if library.space.radix == 2 else 0,
        cascade_permutation=cascade.permutation(library.space),
    )


def label_claim(library, names):
    """The binary-label image of the names' label permutation, or None.

    Composes the gates' label permutations with the don't-care identity
    convention and no Definition 1 check, so a cascade that reads a
    mixed control still yields a claim here.
    """
    n = library.n_qubits
    nots = not_gates_by_name(n)
    mask = 0
    for name in names:
        if name in nots:
            mask ^= 1 << (n - 1 - nots[name].target)
    _circuit, cascade = split(library, names)
    head = cascade.permutation(library.space).images
    n_binary = library.space.n_binary
    if max(head[:n_binary]) >= n_binary:
        return None
    return Permutation.from_images(
        [head[x ^ mask] for x in range(n_binary)]
    )


@st.composite
def cases(draw):
    n_qubits, radix = draw(st.sampled_from(LIBRARIES))
    library = library_for(n_qubits, radix)
    cost_model = draw(cost_models) if radix == 2 else UNIT_COST
    nots = []
    if radix == 2:
        nots = draw(st.lists(
            st.sampled_from(sorted(not_gates_by_name(n_qubits))),
            max_size=n_qubits,
        ))
    gate_names = st.sampled_from([entry.name for entry in library])
    if draw(st.booleans()):
        body = draw(st.lists(gate_names, max_size=8 - len(nots)))
    else:
        # g; inner; g^-1 sandwiches: the undo step makes a mixed control
        # read by *inner* binary again, the case only Definition 1 refuses.
        room = (8 - len(nots)) // 2
        outer = draw(st.lists(gate_names, min_size=1, max_size=max(room, 1)))
        inner = draw(st.lists(
            gate_names, max_size=8 - len(nots) - 2 * len(outer)
        ))
        undo = [
            library.adjoint_entry(library.by_name(name)).name
            for name in reversed(outer)
        ]
        body = outer + inner + undo
    names = nots + body
    truth = true_claim(library, names, cost_model)
    label = label_claim(library, names)
    claim = draw(st.sampled_from(("true", "label", "random")))
    if claim == "true" and truth is not None:
        target, cost = truth
        cost += draw(st.sampled_from((0, 0, 0, 1, -1)))
    elif claim == "label" and label is not None:
        # What the label algebra alone, blind to Definition 1, would
        # claim: wrong exactly when the cascade is not reasonable.
        target = label
        cost = sum(
            cost_model.gate_cost(library.by_name(name).gate.kind)
            for name in body
        )
    else:
        images = draw(st.permutations(range(library.space.n_binary)))
        target = Permutation.from_images(images)
        cost = draw(st.integers(min_value=0, max_value=16))
    return library, names, target, cost, cost_model


def _certified(library, names, target, cost, cost_model):
    try:
        return certify(library, names, target, cost, cost_model)
    except SpecificationError:
        return None


class TestDifferential:
    @given(case=cases())
    @settings(max_examples=400, deadline=None)
    def test_certify_agrees_with_the_pattern_reference(self, case):
        library, names, target, cost, cost_model = case
        expected = reference(library, names, target, cost, cost_model)
        cascade = _certified(library, names, target, cost, cost_model)
        assert (cascade is None) == (expected is None)
        if expected is None:
            return
        assert cascade == expected.cascade_permutation
        record = result_to_dict(expected)
        assert record["gates"] == names
        assert result_from_dict(record, cost_model) == expected

    @given(case=cases())
    @settings(max_examples=200, deadline=None)
    def test_true_claims_of_reversible_cascades_are_accepted(self, case):
        library, names, _target, _cost, cost_model = case
        truth = true_claim(library, names, cost_model)
        if truth is not None:
            assert _certified(library, names, *truth, cost_model) is not None


class TestPinned:
    PERES = ["V_CB", "F_BA", "V+_CB", "V_CA"]

    def test_not_after_a_two_qubit_gate_is_refused(self):
        library = library_for(3)
        names = ["F_BA", "N_A"]
        # The pattern semantics would accept the cascade; certify only
        # takes a leading NOT layer, the one form every writer emits.
        truth = true_claim(library, names, UNIT_COST)
        assert truth is not None
        with pytest.raises(SpecificationError, match="NOT gate N_A follows"):
            certify(library, names, *truth)

    def test_leading_not_layer_folds_into_the_target(self):
        library = library_for(3)
        target = named.not_layer_permutation(0b101) * named.PERES
        cascade = certify(library, ["N_A", "N_C"] + self.PERES, target, 4)
        assert cascade == Circuit.from_names(self.PERES, 3).permutation()

    def test_weighted_cost_is_summed_under_the_model(self):
        library = library_for(3)
        weighted = CostModel(v_cost=2, vdag_cost=2)
        certify(library, self.PERES, named.PERES, 7, weighted)
        with pytest.raises(SpecificationError, match="cost"):
            certify(library, self.PERES, named.PERES, 4, weighted)
        with pytest.raises(SpecificationError, match="cost"):
            certify(library, self.PERES, named.PERES, 7)

    def test_unreasonable_cascade_is_refused(self):
        library = library_for(3)
        # V_BA leaves B mixed; F_CB then reads it (Definition 1).
        with pytest.raises(SpecificationError, match="reasonable"):
            certify(library, ["V_BA", "F_CB", "V+_BA"], named.PERES, 3)

    def test_unknown_gate_and_mv_not_are_refused(self):
        with pytest.raises(SpecificationError, match="not in the library"):
            certify(library_for(3), ["Q_XY"], named.PERES, 1)
        ternary = library_for(2, 3)
        with pytest.raises(SpecificationError, match="not in the library"):
            certify(ternary, ["N_A"], Permutation.identity(9), 0)

    def test_wrong_target_degree_is_refused(self):
        with pytest.raises(SpecificationError, match="degree"):
            certify(library_for(3), [], Permutation.identity(16), 0)
