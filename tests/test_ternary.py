"""MV synthesis end to end: ternary/quaternary libraries, both backends.

The binary pipeline is pinned by ``test_golden_tables.py``; this module
exercises the radix generalization -- the Di-Wei ternary and
Muthukrishnan-Stroud quaternary digit libraries -- through the same
layers: library construction, cascade search / batch synthesis, the
decomposition backend cross-check, store round-trips with
dimension-naming mismatch errors, and JSON result serialization.
"""

import pytest

from legacy_v1 import encode_v1
from repro.core.batch import BatchSynthesizer
from repro.core.decompose import decompose_target
from repro.core.mce import express, express_all
from repro.core.search import CascadeSearch
from repro.core.store import dump_search, loads_search, read_header
from repro.errors import (
    SpecificationError,
    StoreMismatchError,
)
from repro.gates.library import GateLibrary
from repro.gates.mv import MVGate, mv_library_gates
from repro.gates.quaternary import QUATERNARY_FAMILY, quaternary_library
from repro.gates.ternary import TERNARY_FAMILY, ternary_library
from repro.io import parse_target, result_from_dict, result_to_dict
from repro.mvl.labels import label_space
from repro.perm.permutation import Permutation
from repro.sim.verify import verify_synthesis


@pytest.fixture(scope="module")
def tlib():
    return ternary_library(2)


@pytest.fixture(scope="module")
def tsearch(tlib):
    search = CascadeSearch(tlib, track_parents=True)
    search.extend_to(4)
    return search


@pytest.fixture(scope="module")
def tbatch(tsearch):
    return BatchSynthesizer(tsearch, cost_bound=4)


class TestLibraryConstruction:
    def test_ternary_width2_inventory(self, tlib):
        # 5 non-identity local permutations x 2 wires, then 5 controlled
        # versions x 2 ordered (target, control) pairs.
        assert len(tlib.gates) == 20
        assert tlib.family == TERNARY_FAMILY
        assert tlib.space.radix == 3
        assert tlib.space.size == 9
        costs = [entry.cost for entry in tlib.gates]
        assert costs == [1] * 10 + [2] * 10

    def test_quaternary_width2_inventory(self):
        qlib = quaternary_library(2)
        # 3 shifts + 6 transpositions per wire, controlled per pair.
        assert len(qlib.gates) == 36
        assert qlib.family == QUATERNARY_FAMILY
        assert qlib.space.size == 16

    def test_gate_names_roundtrip(self, tlib):
        for entry in tlib.gates:
            gate = entry.gate
            again = MVGate.from_name(gate.name, 2, 3)
            assert again == gate

    def test_every_gate_is_a_space_permutation(self, tlib):
        space = tlib.space
        for entry in tlib.gates:
            perm = entry.gate.permutation(space)
            assert sorted(perm.images) == list(range(space.size))

    def test_no_banned_sets_in_digit_space(self, tlib):
        # Digit patterns have no mixed values, so nothing is banned and
        # every cascade is a reasonable product.
        assert all(entry.banned_mask == 0 for entry in tlib.gates)
        assert tlib.space.banned_mask([0, 1]) == 0

    def test_library_space_too_wide_is_rejected(self):
        from repro.errors import InvalidGateError

        with pytest.raises(InvalidGateError):
            mv_library_gates(6, 3)  # 3**6 = 729 > 256 labels


class TestSearchBackend:
    def test_express_finds_controlled_gate_at_cost_2(self, tlib):
        gate = MVGate.from_name("CX+1_AB", 2, 3)
        target = gate.permutation(tlib.space)
        result = express(target, tlib, cost_bound=3)
        assert result.cost == 2
        assert verify_synthesis(result)

    def test_express_all_results_verify(self, tlib, tsearch):
        target = parse_target("(1,2,3)", n_qubits=2, radix=3)
        results = express_all(target, tlib, cost_bound=4, search=tsearch)
        assert results
        for result in results:
            assert result.not_mask == 0
            assert verify_synthesis(result)

    def test_batch_matches_express(self, tlib, tsearch, tbatch):
        target = parse_target("(1,4,7)", n_qubits=2, radix=3)
        direct = express(target, tlib, cost_bound=4, search=tsearch)
        batched = tbatch.synthesize(target)
        assert batched.cost == direct.cost
        assert batched.circuit.permutation(tlib.space) == target

    def test_not_layer_enumeration_is_refused(self, tbatch):
        with pytest.raises(SpecificationError):
            tbatch.targets_at_cost(1, include_not_layers=True)


class TestDecompositionBackend:
    @pytest.mark.parametrize(
        "spec", ["(1,2)", "(1,2,3)", "(1,4,7)", "(8,9)", "(1,2)(4,5)(7,8)"]
    )
    def test_cross_checks_search(self, spec, tlib, tbatch):
        target = parse_target(spec, n_qubits=2, radix=3)
        searched = tbatch.synthesize(target)
        decomposed = decompose_target(target, tlib)
        assert decomposed.circuit.permutation(tlib.space) == target
        assert decomposed.cost >= searched.cost

    def test_random_permutations_decompose(self, tlib):
        # A fixed spread of 9-label permutations, including max-length
        # cycles the bound-4 search cannot reach.
        specs = [
            "(1,2,3,4,5,6,7,8,9)",
            "(1,9)(2,8)(3,7)(4,6)",
            "(2,4)(3,7)(6,8)",
        ]
        for spec in specs:
            target = Permutation.from_cycle_string(9, spec)
            result = decompose_target(target, tlib)
            assert result.circuit.permutation(tlib.space) == target
            assert result.cost == sum(
                tlib.by_name(g.name).cost for g in result.circuit.gates
            )

    def test_quaternary_decomposition(self):
        qlib = quaternary_library(2)
        target = Permutation.from_cycle_string(16, "(1,16)(2,15)")
        result = decompose_target(target, qlib)
        assert result.circuit.permutation(qlib.space) == target

    def test_binary_library_is_rejected(self):
        with pytest.raises(SpecificationError):
            decompose_target(
                Permutation.from_cycle_string(8, "(1,2)"), GateLibrary(3)
            )


class TestStoreRoundTrip:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_reopen_preserves_mv_provenance(
        self, tsearch, tlib, version, tmp_path
    ):
        if version == 1:  # legacy: written by the test encoder only
            blob = encode_v1(tsearch)
        else:
            blob = dump_search(tsearch, format_version=version)
        path = tmp_path / f"ternary-v{version}.rpro"
        path.write_bytes(blob)
        header = read_header(path)
        assert header.radix == 3
        assert header.library_family == TERNARY_FAMILY
        reopened = loads_search(blob, tlib)
        assert list(reopened.stats().level_sizes) == [1, 10, 35, 140, 571]

    def test_rebuilt_library_serves_without_explicit_library(
        self, tsearch, tmp_path
    ):
        from repro.io import open_store

        path = tmp_path / "ternary.rpro"
        path.write_bytes(dump_search(tsearch, format_version=2))
        _header, library, search = open_store(path)
        assert library.family == TERNARY_FAMILY
        assert library.space.radix == 3
        batch = BatchSynthesizer(search, cost_bound=4)
        target = parse_target("(8,9)", n_qubits=2, radix=3)
        assert batch.synthesize(target).cost == 2

    def test_radix_mismatch_is_named(self, tsearch):
        blob = dump_search(tsearch, format_version=2)
        with pytest.raises(StoreMismatchError, match="radix mismatch"):
            loads_search(blob, GateLibrary(2))

    def test_radix_mismatch_other_direction(self, library3_store_blob, tlib):
        with pytest.raises(StoreMismatchError, match="radix mismatch"):
            loads_search(library3_store_blob, tlib)

    def test_width_mismatch_is_named(self, tsearch):
        blob = dump_search(tsearch, format_version=2)
        wide = CascadeSearch(ternary_library(3))
        with pytest.raises(StoreMismatchError, match="width mismatch"):
            loads_search(blob, wide.library)

    def test_cross_radix_mv_open_names_radix(self, tsearch):
        blob = dump_search(tsearch, format_version=2)
        with pytest.raises(StoreMismatchError, match="radix mismatch"):
            loads_search(blob, quaternary_library(2))

    def test_family_mismatch_is_named(self, tsearch):
        blob = dump_search(tsearch, format_version=2)
        other = GateLibrary.from_gates(
            mv_library_gates(2, 3), label_space(2, radix=3), "custom-ternary"
        )
        with pytest.raises(StoreMismatchError, match="library mismatch"):
            loads_search(blob, other)


@pytest.fixture(scope="module")
def library3_store_blob():
    search = CascadeSearch(GateLibrary(2), track_parents=True)
    search.extend_to(2)
    return dump_search(search, format_version=2)


class TestResultSerialization:
    def test_mv_record_roundtrips(self, tbatch, tlib):
        target = parse_target("(1,2,3)", n_qubits=2, radix=3)
        result = tbatch.synthesize(target)
        record = result_to_dict(result)
        assert record["radix"] == 3
        again = result_from_dict(record)
        assert again.target == target
        assert again.cost == result.cost
        assert again.circuit.permutation(tlib.space) == target
        assert again.cascade_permutation == target

    def test_binary_record_has_no_radix_key(self):
        library = GateLibrary(3)
        target = parse_target("toffoli")
        result = express(target, library, cost_bound=5)
        record = result_to_dict(result)
        assert "radix" not in record

    def test_tampered_mv_record_fails_loudly(self, tbatch):
        target = parse_target("(8,9)", n_qubits=2, radix=3)
        record = result_to_dict(tbatch.synthesize(target))
        record["cost"] = record["cost"] + 1
        with pytest.raises(SpecificationError):
            result_from_dict(record)

    def test_parse_target_named_catalog_is_binary_only(self):
        with pytest.raises(Exception):
            parse_target("toffoli", n_qubits=2, radix=3)


class TestPlanProjection:
    def test_mv_store_header_caps_projection(self, tsearch, tmp_path):
        from repro.core.plan import plan_resources

        path = tmp_path / "ternary.rpro"
        path.write_bytes(dump_search(tsearch, format_version=2))
        header = read_header(path)
        import math

        plan = plan_resources(6, header=header)
        assert plan.projected_rows <= math.factorial(9)
        assert any("radix-3" in note for note in plan.notes)

    def test_binary_plan_notes_unchanged(self):
        from repro.core.plan import plan_resources

        plan = plan_resources(7)
        assert plan.projected_rows == 689402
        assert any("paper's 3-qubit closure" in n for n in plan.notes)
