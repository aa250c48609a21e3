"""Unit tests for the gate library (repro.gates.library)."""

import pytest

from repro.errors import InvalidGateError
from repro.gates.gate import Gate
from repro.gates.kinds import GateKind
from repro.gates.library import GateLibrary
from repro.mvl.labels import label_space


class TestComposition:
    def test_three_qubits_has_18_gates(self, library3):
        assert len(library3) == 18

    def test_two_qubits_has_6_gates(self, library2):
        assert len(library2) == 6

    def test_four_qubits_has_36_gates(self):
        assert len(GateLibrary(4)) == 36

    def test_kind_breakdown(self, library3):
        kinds = [e.gate.kind for e in library3]
        assert kinds.count(GateKind.V) == 6
        assert kinds.count(GateKind.VDAG) == 6
        assert kinds.count(GateKind.CNOT) == 6

    def test_indices_are_positions(self, library3):
        for position, entry in enumerate(library3.gates):
            assert entry.index == position
            assert library3[position] is entry

    def test_custom_kind_subset(self):
        feynman_only = GateLibrary(3, kinds=(GateKind.CNOT,))
        assert len(feynman_only) == 6

    def test_not_kind_rejected(self):
        with pytest.raises(InvalidGateError):
            GateLibrary(3, kinds=(GateKind.NOT,))

    def test_space_width_mismatch_rejected(self):
        with pytest.raises(InvalidGateError):
            GateLibrary(3, space=label_space(2))


class TestLookup:
    def test_by_name(self, library3):
        entry = library3.by_name("V_BA")
        assert entry.gate == Gate.v(1, 0, 3)

    def test_by_name_unknown(self, library3):
        with pytest.raises(InvalidGateError):
            library3.by_name("V_ZZ")

    def test_entry_for(self, library3):
        gate = Gate.cnot(2, 0, 3)
        assert library3.entry_for(gate).gate == gate

    def test_adjoint_entry(self, library3):
        v = library3.by_name("V_BA")
        assert library3.adjoint_entry(v).name == "V+_BA"
        f = library3.by_name("F_CA")
        assert library3.adjoint_entry(f).name == "F_CA"

    def test_iteration(self, library3):
        assert [e.name for e in library3][:3]


class TestPaperSubLibraries:
    def test_sublibrary_names_match_section3(self, library3):
        subs = library3.sublibrary_names()
        assert set(subs["L_A"]) == {"V_BA", "V_CA", "V+_BA", "V+_CA"}
        assert set(subs["L_B"]) == {"V_AB", "V_CB", "V+_AB", "V+_CB"}
        assert set(subs["L_C"]) == {"V_AC", "V_BC", "V+_AC", "V+_BC"}
        assert set(subs["L_AB"]) == {"F_AB", "F_BA"}
        assert set(subs["L_AC"]) == {"F_AC", "F_CA"}
        assert set(subs["L_BC"]) == {"F_BC", "F_CB"}

    def test_sublibraries_partition_the_library(self, library3):
        names = []
        for gates in library3.sublibrary_names().values():
            names.extend(gates)
        assert sorted(names) == sorted(e.name for e in library3)

    def test_controlled_sublibrary(self, library3):
        entries = library3.controlled_sublibrary(0)
        assert {e.name for e in entries} == {"V_BA", "V_CA", "V+_BA", "V+_CA"}

    def test_feynman_sublibrary(self, library3):
        entries = library3.feynman_sublibrary(1, 2)
        assert {e.name for e in entries} == {"F_BC", "F_CB"}


class TestBannedMasks:
    def test_banned_sets_paper_keys(self, library3):
        banned = library3.banned_sets_paper()
        assert set(banned) == {"N_A", "N_B", "N_C", "N_AB", "N_AC", "N_BC"}

    def test_banned_mask_per_gate_matches_sublibrary(self, library3, space3):
        for entry in library3:
            expected = space3.banned_mask(entry.gate.constrained_wires)
            assert entry.banned_mask == expected

    def test_controlled_gates_share_control_mask(self, library3, space3):
        for control in range(3):
            masks = {
                e.banned_mask for e in library3.controlled_sublibrary(control)
            }
            assert masks == {space3.banned_mask([control])}


class TestSearchView:
    def test_table_is_256_bytes(self, library3):
        for entry in library3:
            assert len(entry.table) == 256

    def test_translate_table_matches_permutation(self, library3):
        entry = library3.by_name("V_BA")
        identity = bytes(range(38))
        assert identity.translate(entry.table) == entry.permutation.images

    def test_circuit_permutation(self, library3):
        a = library3.by_name("V_CB")
        b = library3.by_name("F_BA")
        perm = library3.circuit_permutation([a, b])
        assert perm == a.permutation * b.permutation

    def test_circuit_permutation_empty(self, library3):
        assert library3.circuit_permutation([]).is_identity

    def test_repr(self, library3):
        assert "n_gates=18" in repr(library3)

    def test_library_gate_str(self, library3):
        assert str(library3.by_name("V+_CB")) == "V+_CB"
