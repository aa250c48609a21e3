"""End-to-end verification of synthesis results.

Every claim a synthesis makes is checked at *all three* semantic levels:

1. quaternary (strict product-state simulation -- also proves the cascade
   is *reasonable*, i.e. never relies on a don't-care),
2. permutation (the label-level algebra FMCF/MCE searched over),
3. unitary (exact dyadic matrices -- the physics).

A disagreement at any level is a bug in the library, not a tolerance
issue, because all three representations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.mce import SynthesisResult
from repro.core.probabilistic import ProbabilisticSynthesisResult
from repro.errors import NonBinaryControlError
from repro.gates.library import GateLibrary
from repro.linalg.constants import pattern_state
from repro.mvl.labels import LabelSpace
from repro.mvl.patterns import Pattern, binary_patterns
from repro.perm.permutation import Permutation
from repro.sim.exact import ExactSimulator


@dataclass
class VerificationReport:
    """Outcome of a verification run."""

    passed: bool
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.checks.append(name)
        else:
            self.passed = False
            self.failures.append(f"{name}: {detail}" if detail else name)

    def __bool__(self) -> bool:
        return self.passed


def verify_circuit_against_permutation(
    circuit: Circuit, target: Permutation
) -> VerificationReport:
    """Check a cascade implements a reversible target at all levels."""
    report = VerificationReport(passed=True)
    n = circuit.n_qubits

    # Level 1: strict quaternary simulation.
    try:
        perm = circuit.binary_permutation(strict=True)
        report.record("reasonable-cascade", True)
        report.record(
            "quaternary-permutation",
            perm == target,
            f"got {perm.cycle_string()}, want {target.cycle_string()}",
        )
    except NonBinaryControlError as exc:
        report.record("reasonable-cascade", False, str(exc))
        return report

    # Level 3: exact unitary on every binary basis state.
    simulator = ExactSimulator(n)
    for index, pattern in enumerate(binary_patterns(n)):
        expected_pattern = _binary_pattern(target(index), n)
        ok = simulator.agrees_with_pattern(circuit, pattern, expected_pattern)
        report.record(f"unitary-basis-{index}", ok, f"input {pattern}")
    return report


def _mv_space(result: SynthesisResult) -> LabelSpace | None:
    """The digit label space of an MV result, or None for binary results.

    Binary results always target the ``2**n`` binary patterns; a target
    of degree ``radix**n`` for radix 3/4 identifies the digit space the
    cascade was searched on.
    """
    n = result.circuit.n_qubits
    if result.target.degree == 2**n:
        return None
    from repro.mvl.labels import label_space

    for radix in (3, 4):
        if radix**n == result.target.degree:
            return label_space(n, radix=radix)
    return None


def verify_synthesis(
    result: SynthesisResult, cost_model: CostModel = UNIT_COST
) -> VerificationReport:
    """Verify a :func:`repro.core.mce.express` result.

    Binary results are checked at all three semantic levels (strict
    quaternary simulation, label permutation, exact unitary).  MV
    results live in a single exact representation -- digit permutations
    -- so the checks are the recomputed label permutation against the
    target plus cost consistency.  The claimed cost must equal the
    cascade's cost under *cost_model* (the model the result was
    synthesized under; the NOT layer is free).
    """
    space = _mv_space(result)
    if space is not None:
        report = VerificationReport(passed=True)
        realized = result.circuit.permutation(space)
        report.record(
            "mv-permutation",
            realized == result.target,
            f"got {realized.cycle_string()}, "
            f"want {result.target.cycle_string()}",
        )
        cost = result.circuit.cost(cost_model)
    else:
        report = verify_circuit_against_permutation(
            result.circuit, result.target
        )
        cost = result.two_qubit_circuit.cost(cost_model)
    report.record(
        "cost-consistent",
        cost == result.cost,
        f"cascade cost {cost} vs claimed {result.cost}",
    )
    return report


def verify_probabilistic_synthesis(
    result: ProbabilisticSynthesisResult,
) -> VerificationReport:
    """Verify an :func:`express_probabilistic` result at all levels."""
    report = VerificationReport(passed=True)
    circuit = result.circuit
    n = circuit.n_qubits
    simulator = ExactSimulator(n)
    for index, pattern in enumerate(binary_patterns(n)):
        expected = result.spec.outputs[index]
        try:
            produced = circuit.strict_apply(pattern)
        except NonBinaryControlError as exc:
            report.record(f"reasonable-{index}", False, str(exc))
            continue
        report.record(
            f"quaternary-{index}",
            produced == expected,
            f"got {produced}, want {expected}",
        )
        report.record(
            f"unitary-{index}",
            simulator.run(circuit, pattern) == pattern_state(expected),
            f"exact state mismatch for input {pattern}",
        )
    return report


def verify_gate_representation(
    library: GateLibrary, space: LabelSpace | None = None
) -> VerificationReport:
    """Cross-validate the MV abstraction against the unitary semantics.

    For every library gate and every label pattern on which the gate's
    constrained wires are binary, the exact unitary must map the
    pattern's product state to the product state of the permuted label:
    ``U_g |p> == |g(p)>`` *exactly*.  (On banned patterns the permutation
    uses the don't-care identity convention and no agreement is claimed;
    FMCF's banned masks guarantee those entries are never exercised.)
    """
    report = VerificationReport(passed=True)
    space = space or library.space
    for entry in library.gates:
        gate = entry.gate
        perm = entry.permutation
        for label, pattern in enumerate(space.patterns):
            if any(not pattern[w].is_binary for w in gate.constrained_wires):
                continue
            expected = space.pattern(perm(label))
            in_state = pattern_state(pattern)
            out_state = gate.unitary @ in_state
            report.record(
                f"{gate.name}@{label + 1}",
                out_state == pattern_state(expected),
                f"pattern {pattern}",
            )
    return report


def _binary_pattern(index: int, n_qubits: int) -> Pattern:
    bits = [(index >> (n_qubits - 1 - w)) & 1 for w in range(n_qubits)]
    from repro.mvl.patterns import pattern_from_bits

    return pattern_from_bits(bits)
