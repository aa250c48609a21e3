"""MCE -- the paper's Minimum_Cost_Expressing algorithm.

Given a reversible target g (a permutation of the 2**n binary patterns),
produce a minimum-quantum-cost cascade of library gates realizing it,
with an optional *free* layer of NOT gates in front:

1. Normalize by Theorem 2: pick the NOT layer d0 with ``(d0 * g)`` fixing
   the all-zero pattern (``d0`` is the XOR-mask ``g^{-1}(0)``), so the
   remainder lies in G = Stab(all-zeros), the set reachable without NOT.
2. Search B[1], B[2], ... for a cascade permutation b with b(S) = S whose
   restriction to S equals the remainder; the first hit is cost-minimal
   (Theorem 3).
3. Walk the parent pointers to extract the witness cascade.

:func:`certify` is the one verifier every witness passes: it composes
the library's cached gate tables, so checking an answer costs
microseconds whether it is about to leave the server or has just
arrived at a client.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import (
    CostBoundExceededError,
    InvalidValueError,
    SpecificationError,
    StoreCorruptError,
)
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.search import CascadeSearch
from repro.gates.gate import Gate
from repro.gates.library import GateLibrary, LibraryGate
from repro.gates.named import not_layer_permutation
from repro.perm.permutation import Permutation

#: Practical default for the enumeration bound; the paper used cb = 7
#: ("the upper-bound cost that we can apply in a particular computer").
DEFAULT_COST_BOUND = 7


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized implementation of a reversible target.

    Attributes:
        target: the requested permutation of binary patterns.
        circuit: full cascade including the (free) NOT layer, if any.
        cost: quantum cost of the 2-qubit part (the minimal cost).
        not_mask: XOR mask of the leading NOT layer (0 if none).
        cascade_permutation: the label permutation of the 2-qubit part.
    """

    target: Permutation
    circuit: Circuit
    cost: int
    not_mask: int
    cascade_permutation: Permutation

    @property
    def two_qubit_circuit(self) -> Circuit:
        """The cascade without the leading NOT layer."""
        return Circuit(
            tuple(g for g in self.circuit.gates if g.kind.is_two_qubit),
            self.circuit.n_qubits,
        )

    def __str__(self) -> str:
        return f"{self.circuit} (cost {self.cost})"


def _not_layer_gates(mask: int, n_qubits: int) -> tuple[Gate, ...]:
    """NOT gates for every set bit of *mask* (wire 0 = most significant)."""
    gates = []
    for wire in range(n_qubits):
        if (mask >> (n_qubits - 1 - wire)) & 1:
            gates.append(Gate.not_(wire, n_qubits))
    return tuple(gates)


def _check_target(target: Permutation, library: GateLibrary) -> None:
    expected = library.space.n_binary
    if target.degree != expected:
        raise SpecificationError(
            f"target degree {target.degree} != {expected} binary patterns "
            f"of a {library.n_qubits}-qubit register"
        )


def express(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
    allow_not: bool = True,
) -> SynthesisResult:
    """Synthesize one minimum-cost implementation of *target*.

    Args:
        target: permutation of the 2**n binary patterns (degree 2**n).
        library: gate library to draw 2-qubit gates from.
        cost_bound: the paper's ``cb``; the search is abandoned beyond it.
        cost_model: integer gate costs.
        search: reusable parent-tracking search engine (one is created on
            demand; passing a shared engine amortizes the BFS across many
            syntheses, which is how the benchmarks regenerate Table 2 and
            all figures from a single closure).
        allow_not: permit the free NOT layer of Theorem 2.  When False,
            only targets fixing the all-zero pattern are expressible.

    Raises:
        CostBoundExceededError: no realization within *cost_bound*.
        SpecificationError: degree mismatch, or the target needs a NOT
            layer while ``allow_not=False``.
    """
    results = _express_impl(
        target, library, cost_bound, cost_model, search, allow_not, first_only=True
    )
    return results[0]


def express_all(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
    allow_not: bool = True,
) -> list[SynthesisResult]:
    """All minimum-cost implementations distinguishable at the label level.

    Each distinct cascade *permutation* restricting to the target yields
    one witness circuit (the paper reports 2 such implementations for
    Peres and 4 for Toffoli).  Distinct gate orderings realizing the same
    label permutation are represented by a single witness, matching the
    paper's remark that the algorithm "does not intend to find all
    possible implementations".
    """
    return _express_impl(
        target, library, cost_bound, cost_model, search, allow_not, first_only=False
    )


def normalize_target(
    target: Permutation, library: GateLibrary, allow_not: bool = True
) -> tuple[int, Permutation, tuple[Gate, ...]]:
    """Theorem 2 normalization: strip the free NOT layer off a target.

    Returns ``(not_mask, remainder, not_gates)`` where ``remainder``
    fixes the all-zero pattern and ``target = d0(not_mask) * remainder``
    (``d0`` is an involution), so synthesizing the NOT-free remainder
    synthesizes the target.

    Raises:
        SpecificationError: degree mismatch, or the target needs a NOT
            layer while ``allow_not=False``.
    """
    _check_target(target, library)
    if library.space.radix != 2:
        # Theorem 2 is a binary statement: MV libraries have no free NOT
        # layer, so the target is searched for as-is.
        return 0, target, ()
    zero_preimage = target.inverse()(0)
    not_mask = zero_preimage if allow_not else 0
    if not allow_not and zero_preimage != 0:
        raise SpecificationError(
            "target moves the all-zero pattern; it needs a NOT layer "
            "(allow_not=True) since no NOT-free cascade can move it"
        )
    d0 = not_layer_permutation(not_mask, library.n_qubits)
    remainder = d0 * target  # g = d0 * remainder with d0 an involution
    return not_mask, remainder, _not_layer_gates(not_mask, library.n_qubits)


def _not_layer_result(
    target: Permutation,
    library: GateLibrary,
    not_mask: int,
    not_gates: tuple[Gate, ...],
) -> SynthesisResult:
    """The cost-0 result for a target that is (at most) a pure NOT layer."""
    return SynthesisResult(
        target=target,
        circuit=Circuit(not_gates, library.n_qubits),
        cost=0,
        not_mask=not_mask,
        cascade_permutation=Permutation.identity(library.space.size),
    )


@lru_cache(maxsize=8)
def not_gates_by_name(n_qubits: int) -> dict[str, Gate]:
    """The NOT gates of a register, keyed by name (``N_A`` ...)."""
    gates = (Gate.not_(wire, n_qubits) for wire in range(n_qubits))
    return {gate.name: gate for gate in gates}


@lru_cache(maxsize=64)
def _not_layer_images(not_mask: int, n_qubits: int) -> bytes:
    return not_layer_permutation(not_mask, n_qubits).images


def certify(
    library: GateLibrary,
    gates: Sequence[str],
    target: Permutation,
    cost: int,
    cost_model: CostModel = UNIT_COST,
) -> Permutation:
    """Check that a named cascade realizes *target* at *cost*.

    *gates* are gate names in cascade order: an optional leading layer
    of NOTs (``N_B``; binary libraries only) followed by library gates.
    The NOT layer folds into an XOR mask and the library gates compose
    through their cached translate tables, so the check costs
    microseconds.  Before each library gate the images of the binary
    labels must avoid that gate's banned set (Definition 1, the rule
    ``Circuit.strict_apply`` enforces on patterns), and at the end the
    binary labels must map onto binary labels.  Then
    ``not_layer_permutation(mask) * cascade`` restricted to the binary
    labels must equal *target*, and the library gates' costs under
    *cost_model* must sum to *cost*.

    Returns:
        The cascade's label permutation (the library gates only).

    Raises:
        SpecificationError: an unknown gate name, a NOT after a library
            gate, or any failed check.
    """
    not_gates = not_gates_by_name(library.n_qubits)
    binary = library.space.radix == 2
    not_mask = 0
    entries: list[LibraryGate] = []
    for name in gates:
        entry = library.get(name)
        if entry is not None:
            entries.append(entry)
            continue
        gate = not_gates.get(name) if binary else None
        if gate is None:
            raise SpecificationError(f"gate {name!r} is not in the library")
        if entries:
            raise SpecificationError(
                f"NOT gate {name} follows a two-qubit gate; only a leading "
                "NOT layer is free (Theorem 2)"
            )
        not_mask ^= 1 << (library.n_qubits - 1 - gate.target)
    return _certify_entries(
        library, not_mask, entries, target, cost, cost_model
    )


def _certify_entries(
    library: GateLibrary,
    not_mask: int,
    entries: Sequence[LibraryGate],
    target: Permutation,
    cost: int,
    cost_model: CostModel,
) -> Permutation:
    """:func:`certify` for resolved library entries (the server's path)."""
    space = library.space
    n_binary = space.n_binary
    if target.degree != n_binary:
        raise SpecificationError(
            f"target degree {target.degree} != {n_binary} binary labels "
            f"of a {library.n_qubits}-wire register"
        )
    images = bytes(range(space.size))
    total = 0
    for entry in entries:
        banned = entry.banned_bytes
        # Deleting the banned labels shortens the binary labels' images
        # exactly when one of them is banned for this gate.
        head = images[:n_binary]
        if banned and len(head.translate(None, banned)) != n_binary:
            raise SpecificationError(
                f"{entry.name} sees a non-binary value on a control; the "
                "cascade is not a reasonable product (Definition 1)"
            )
        images = images.translate(entry.table)
        total += cost_model.gate_cost(entry.gate.kind)
    realized = images[:n_binary]
    if max(realized) >= n_binary:
        raise SpecificationError(
            "the cascade maps a binary input to a mixed output; it is "
            "probabilistic, not reversible"
        )
    if not_mask:
        # (d0 * cascade)(x) = cascade(x ^ mask), composed as a translate.
        d0 = _not_layer_images(not_mask, library.n_qubits)
        realized = d0.translate(realized.ljust(256, b"\0"))
    if realized != target.images:
        raise SpecificationError(
            f"the circuit realizes {Permutation(realized).cycle_string()}, "
            f"not {target.cycle_string()}"
        )
    if total != cost:
        raise SpecificationError(
            f"claimed cost {cost} disagrees with the cascade's cost {total}"
        )
    return Permutation(images)


def _results_from_rows(
    rows,
    search: CascadeSearch,
    target: Permutation,
    not_mask: int,
    not_gates: tuple[Gate, ...],
    first_only: bool,
) -> list[SynthesisResult]:
    """Turn matching *global closure rows* into certified results.

    Witness extraction walks parent arrays directly by row -- the path
    shared by the level scan here, by
    :class:`~repro.core.batch.BatchSynthesizer` and by the v2 store's
    serialized remainder index (no byte-level lookups, O(cost) per
    witness).  Every witness is certified before it is returned: it
    must realize *target* at its row's cost, and compose to exactly
    the row's stored permutation.

    Raises:
        StoreCorruptError: a witness fails either check -- the closure's
            parent, gate, permutation or index data is corrupted.
    """
    library = search.library
    results = []
    for row in rows:
        row = int(row)
        try:
            indices = search.witness_indices_for_row(row)
            entries = [library.gates[i] for i in indices]
            cost = search.cost_of_row(row)
            cascade = _certify_entries(
                library, not_mask, entries, target, cost, search.cost_model
            )
        except (InvalidValueError, SpecificationError) as exc:
            raise StoreCorruptError(
                f"closure row {row}: witness fails certification: {exc}"
            ) from None
        if cascade.images != search.perm_bytes_at(row):
            raise StoreCorruptError(
                f"closure row {row}: witness does not compose to the "
                "row's stored permutation"
            )
        gates = tuple(entry.gate for entry in entries)
        results.append(
            SynthesisResult(
                target=target,
                circuit=Circuit(not_gates + gates, library.n_qubits),
                cost=cost,
                not_mask=not_mask,
                cascade_permutation=cascade,
            )
        )
        if first_only:
            break
    return results


def _express_impl(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int,
    cost_model: CostModel,
    search: CascadeSearch | None,
    allow_not: bool,
    first_only: bool,
) -> list[SynthesisResult]:
    not_mask, remainder, not_gates = normalize_target(target, library, allow_not)

    if remainder.is_identity:
        return [_not_layer_result(target, library, not_mask, not_gates)]

    if search is None:
        search = CascadeSearch(library, cost_model, track_parents=True)
    elif not search.tracks_parents:
        raise SpecificationError("express() needs a parent-tracking search")

    wanted = remainder.images  # first 2**n bytes of a matching cascade
    for cost in range(1, cost_bound + 1):
        # One vectorized boolean reduction per level instead of a Python
        # scan over every cascade permutation.
        rows = search.find_matching_rows(cost, wanted)
        if rows:
            return _results_from_rows(
                rows, search, target, not_mask, not_gates, first_only
            )
    raise CostBoundExceededError(
        f"permutation {target.cycle_string()}", cost_bound
    )


def minimal_cost(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
) -> int:
    """The minimal quantum cost of a target (convenience wrapper)."""
    return express(
        target, library, cost_bound, cost_model, search
    ).cost
