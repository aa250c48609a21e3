"""Fuzzing the text-facing parsers: they must reject garbage, not crash.

Every user-facing parser (cycle notation, gate names, pattern strings,
memory budgets, circuit records) either returns a valid object or raises a library error
-- never an unhandled TypeError/IndexError/ValueError from internals.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.core.circuit import Circuit
from repro.core.dedup import parse_budget
from repro.gates.gate import Gate
from repro.io import circuit_from_dict
from repro.mvl.patterns import pattern_from_string
from repro.perm.permutation import Permutation

LIBRARY_ERRORS = (ReproError,)

text = st.text(
    alphabet=st.sampled_from(list("()0123456789,VF+_ABC vx")), max_size=24
)


class TestCycleStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            perm = Permutation.from_cycle_string(8, text)
        except LIBRARY_ERRORS:
            return
        # On success the result must round-trip semantically.
        assert perm.degree == 8
        again = Permutation.from_cycle_string(8, perm.cycle_string())
        assert again == perm

    @given(degree=st.integers(min_value=1, max_value=64), text=text)
    @settings(max_examples=200, deadline=None)
    def test_any_degree(self, degree, text):
        try:
            perm = Permutation.from_cycle_string(degree, text)
        except LIBRARY_ERRORS:
            return
        assert perm.degree == degree


class TestGateNameFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            gate = Gate.from_name(text, 3)
        except LIBRARY_ERRORS:
            return
        assert gate.name == text.strip() or gate.name  # well-formed result

    @given(text=text)
    @settings(max_examples=150, deadline=None)
    def test_circuit_from_names(self, text):
        try:
            circuit = Circuit.from_names(text, 3)
        except LIBRARY_ERRORS:
            return
        assert circuit.n_qubits == 3


class TestPatternStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            pattern = pattern_from_string(text)
        except LIBRARY_ERRORS:
            return
        assert pattern.n_qubits >= 1


budget_text = st.text(
    alphabet=st.sampled_from(list("0123456789.e+- kmgibKMGIBnaftyNAFTY")),
    max_size=16,
)


class TestBudgetStringFuzz:
    @given(text=budget_text)
    @example(text="nan")
    @example(text="inf")
    @example(text="-Infinity")
    @example(text="1e400")
    @example(text="1e308G")
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        """``--dedup-budget`` values: a byte count or a library error."""
        try:
            budget = parse_budget(text)
        except LIBRARY_ERRORS:
            return
        assert isinstance(budget, int) and budget >= 0


class TestScenarioSpecFuzz:
    """Scenario specs are checked-in config: a typo'd field, negative
    rate or unknown op must fail a CI job with a one-line
    SpecificationError, never an internal traceback."""

    _scalar = st.one_of(
        st.none(), st.booleans(),
        st.integers(-10, 10**6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=12),
        st.lists(st.text(max_size=8), max_size=3),
    )

    @given(
        data=st.dictionaries(
            st.sampled_from([
                "name", "seed", "requests", "concurrency", "targets",
                "batch_size", "arrival", "ops", "stores", "params",
                "slo", "rate", "bogus_field",
            ]),
            _scalar,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_top_level_garbage_rejected_cleanly(self, data):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        assert spec.name and spec.requests >= 1

    @given(
        ops=st.dictionaries(
            st.sampled_from([
                "synth", "synth-batch", "cost-table", "healthz",
                "synthh", "", "delete-store",
            ]),
            st.one_of(
                st.integers(-5, 5),
                st.floats(allow_nan=True, allow_infinity=True),
                st.booleans(), st.text(max_size=4),
            ),
            max_size=4,
        ),
        arrival=st.dictionaries(
            st.sampled_from(["shape", "rate", "burst", "pause", "jitter"]),
            st.one_of(
                st.sampled_from(["closed", "steady", "bursty", "poisson"]),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-10, 10),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_ops_and_arrival_tables(self, ops, arrival):
        from repro.scenario import parse_scenario

        data = {
            "name": "fuzz", "targets": ["peres"],
            "ops": ops, "arrival": arrival,
        }
        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        # Accepted specs are internally consistent: known ops only,
        # positive total weight, a legal arrival shape.
        assert all(op in ("synth", "synth-batch", "cost-table",
                          "healthz", "store-info") for op, _w in spec.ops)
        assert any(weight > 0 for _op, weight in spec.ops)
        assert spec.arrival.shape in ("closed", "steady", "bursty")

    @given(targets=st.lists(text, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_target_pool_garbage(self, targets):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario({"name": "fuzz", "targets": targets})
        except LIBRARY_ERRORS:
            return
        assert len(spec.targets) == len(targets)

    @given(
        slo=st.dictionaries(
            st.sampled_from([
                "p50_ms", "p99_ms", "max_error_rate", "max_shed_rate",
                "allowed_error_codes", "p75_ms",
            ]),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-5, 5), st.booleans(),
                st.lists(st.text(max_size=6), max_size=3),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_slo_table_garbage(self, slo):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(
                {"name": "fuzz", "targets": ["peres"], "slo": slo}
            )
        except LIBRARY_ERRORS:
            return
        for bar in (spec.slo.max_error_rate, spec.slo.max_shed_rate):
            assert bar is None or 0 <= bar <= 1


class TestCircuitRecordFuzz:
    @given(
        record=st.fixed_dictionaries(
            {},
            optional={
                "n_qubits": st.one_of(st.integers(-2, 5), st.text(max_size=3)),
                "gates": st.lists(text, max_size=4),
            },
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_records_rejected_cleanly(self, record):
        try:
            circuit = circuit_from_dict(record)
        except LIBRARY_ERRORS:
            return
        assert isinstance(circuit, Circuit)
