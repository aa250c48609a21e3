"""Probabilistic-circuit synthesis (Section 4 of the paper).

Dropping the constraint that outputs are pure states turns the same
search into a synthesizer for *binary-input, quaternary-output* circuits:
after measurement, a V0/V1 output wire is a fair random bit, so these
circuits realize probabilistic combinational functions -- the building
block of the paper's quantum automata, controlled random-number
generators and hidden Markov models.

A :class:`ProbabilisticSpec` assigns one quaternary output pattern to
every binary input pattern; :func:`express_probabilistic` finds a
minimum-cost reasonable cascade realizing the assignment exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import CostBoundExceededError, SpecificationError
from repro.core.circuit import Circuit
from repro.core.cost import CostModel
from repro.core.mce import DEFAULT_COST_BOUND, first_matching_rows, witness_row
from repro.core.search import CascadeSearch, search_for
from repro.gates.library import GateLibrary
from repro.mvl.patterns import (
    Pattern,
    binary_patterns,
    pattern_from_string,
    pattern_measurement_distribution,
)
from repro.mvl.values import Qv
from repro.perm.permutation import Permutation

#: Per-bit distribution alphabet for the convenience constructor:
#: deterministic 0/1, or a fair coin ('?').
_FAIR = "?"


@dataclass(frozen=True)
class ProbabilisticSpec:
    """Binary-input -> quaternary-output specification.

    Attributes:
        outputs: one output :class:`Pattern` per binary input, in input
            order (index = integer value of the input bits, wire 0 most
            significant).
    """

    outputs: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        n = len(self.outputs)
        if n == 0 or n & (n - 1):
            raise SpecificationError("need one output per binary input (2**n)")
        width = self.outputs[0].n_qubits
        if any(p.n_qubits != width for p in self.outputs):
            raise SpecificationError("output patterns have mixed widths")
        if 2**width != n:
            raise SpecificationError(
                f"{n} outputs but patterns have {width} wires"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_strings(cls, outputs: Sequence[str]) -> "ProbabilisticSpec":
        """Parse patterns like ``"1,V0,0"`` (one per binary input)."""
        return cls(tuple(pattern_from_string(s) for s in outputs))

    @classmethod
    def from_bit_distributions(
        cls, rows: Sequence[Sequence[str | int]]
    ) -> "ProbabilisticSpec":
        """Build from per-bit symbols: 0, 1, or '?' for a fair coin.

        A '?' wire is encoded as ``V0`` (``V1`` has the same measurement
        statistics; the synthesizer may realize either).
        """
        patterns = []
        for row in rows:
            values = []
            for symbol in row:
                if symbol in (0, 1, "0", "1"):
                    values.append(Qv(int(symbol)))
                elif symbol == _FAIR:
                    values.append(Qv.V0)
                else:
                    raise SpecificationError(
                        f"bit symbol {symbol!r} is not 0, 1 or '?'"
                    )
            patterns.append(Pattern(values))
        return cls(tuple(patterns))

    @classmethod
    def deterministic(cls, permutation: Permutation, n_qubits: int) -> "ProbabilisticSpec":
        """Wrap a reversible target as a (degenerate) probabilistic spec."""
        inputs = list(binary_patterns(n_qubits))
        return cls(tuple(inputs[permutation(i)] for i in range(len(inputs))))

    # -- queries -----------------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self.outputs[0].n_qubits

    def output_for(self, input_bits: Sequence[int]) -> Pattern:
        index = 0
        for b in input_bits:
            index = index * 2 + (b & 1)
        return self.outputs[index]

    def is_deterministic(self) -> bool:
        """True when every output is a pure binary pattern."""
        return all(p.is_binary for p in self.outputs)

    def measurement_distribution(
        self, input_index: int
    ) -> dict[tuple[int, ...], Fraction]:
        """Exact joint outcome distribution after measuring all wires.

        Wires are independent (the register stays a product state under
        the paper's binary-control discipline), so the joint law is the
        product of per-wire Born distributions.
        """
        return pattern_measurement_distribution(self.outputs[input_index])

    def validate_feasible(self, library: GateLibrary) -> tuple[int, ...]:
        """Check realizability conditions; return target label images.

        Necessary conditions enforced:

        * every output pattern lies in the reduced label space (a pattern
          with no pure 1 -- other than all-zeros -- is unreachable, since
          no reasonable cascade can destroy the last 1);
        * outputs are pairwise distinct (the underlying label map of any
          cascade is a bijection);
        * the all-zero input maps to the all-zero output (nothing can
          fire on the all-zero pattern).
        """
        space = library.space
        if self.n_qubits != library.n_qubits:
            raise SpecificationError("spec width does not match library")
        images = []
        for index, pattern in enumerate(self.outputs):
            if pattern not in space:
                raise SpecificationError(
                    f"output {pattern} for input {index} is outside the "
                    "reachable label space (it has no pure 1)"
                )
            images.append(space.label(pattern))
        if len(set(images)) != len(images):
            raise SpecificationError(
                "outputs are not pairwise distinct; cascades are reversible "
                "at the label level, randomness arises only at measurement"
            )
        if images[0] != 0:
            raise SpecificationError(
                "the all-zero input is fixed by every gate; its output "
                "must be the all-zero pattern"
            )
        return tuple(images)


@dataclass(frozen=True)
class ProbabilisticSynthesisResult:
    """A synthesized probabilistic circuit.

    Attributes:
        spec: the specification realized.
        circuit: the cascade (2-qubit gates only; NOT layers are not used
            here because they would leave the reduced label space).
        cost: quantum cost.
        cascade_permutation: full label permutation of the cascade.
    """

    spec: ProbabilisticSpec
    circuit: Circuit
    cost: int
    cascade_permutation: Permutation

    def __str__(self) -> str:
        return f"{self.circuit} (cost {self.cost})"


def express_probabilistic(
    spec: ProbabilisticSpec,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel | None = None,
    search: CascadeSearch | None = None,
    all_implementations: bool = False,
) -> ProbabilisticSynthesisResult | list[ProbabilisticSynthesisResult]:
    """Synthesize a minimum-cost circuit for a probabilistic spec.

    Searches the same reasonable-cascade levels as MCE but matches the
    prescribed (possibly non-binary) images of the binary labels instead
    of requiring b(S) = S.  Each witness is certified like MCE's
    (:func:`~repro.core.mce.witness_row`).  A *cost_model* of None
    means the shared *search*'s model (unit for a fresh search).

    Raises:
        SpecificationError: the spec is structurally unrealizable, or
            *cost_model* differs from the shared *search*'s model.
        CostBoundExceededError: no realization within *cost_bound*.
        StoreCorruptError: a witness fails certification.
    """
    wanted = bytes(spec.validate_feasible(library))
    search = search_for(
        library, cost_model, search, True, "express_probabilistic()"
    )
    rows = first_matching_rows(search, wanted, cost_bound)
    if not rows:
        raise CostBoundExceededError("probabilistic specification", cost_bound)
    n_binary = library.space.n_binary

    def compare(images: bytes) -> None:
        if images[:n_binary] != wanted:
            raise SpecificationError("the cascade misses the spec's images")

    results = []
    for row in rows if all_implementations else rows[:1]:
        entries, cost, cascade = witness_row(search, row, compare)
        results.append(
            ProbabilisticSynthesisResult(
                spec=spec,
                circuit=Circuit(
                    [entry.gate for entry in entries], library.n_qubits
                ),
                cost=cost,
                cascade_permutation=cascade,
            )
        )
    return results if all_implementations else results[0]
