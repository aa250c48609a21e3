"""The quantum gate library: placed gates + permutations + banned masks.

For n = 3 this is exactly the paper's 18-gate library

    L_A = {V_BA, V_CA, V+_BA, V+_CA}   banned set N_A
    L_B = {V_AB, V_CB, V+_AB, V+_CB}   banned set N_B
    L_C = {V_AC, V_BC, V+_AC, V+_BC}   banned set N_C
    L_AB = {F_AB, F_BA}                banned set N_AB
    L_AC = {F_AC, F_CA}                banned set N_AC
    L_BC = {F_BC, F_CB}                banned set N_BC

Each library entry pre-computes the data the FMCF/MCE search needs per
gate-application: a 256-byte translation table (so cascade extension is
one ``bytes.translate`` call) and the banned-label bitmask implementing
Definition 1's *reasonable product* test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as _wire_pairs

from repro.errors import InvalidGateError
from repro.gates.gate import Gate, wire_letter
from repro.gates.kinds import GateKind
from repro.mvl.labels import LabelSpace, label_space
from repro.perm.permutation import Permutation


@dataclass(frozen=True)
class LibraryGate:
    """A gate bundled with its search-time data.

    Attributes:
        index: position in the library (stable identifier for search).
        gate: the placed gate.
        permutation: its action on the library's label space.
        banned_mask: bitmask of labels forbidden as images of the binary
            inputs when this gate is appended (Definition 1).
        cost: quantum cost of the gate (paper convention: 1).
    """

    index: int
    gate: Gate
    permutation: Permutation
    banned_mask: int
    cost: int

    @property
    def name(self) -> str:
        return self.gate.name

    @cached_property
    def table(self) -> bytes:
        """The 256-byte translate table of the permutation."""
        return self.permutation.table()

    @cached_property
    def banned_bytes(self) -> bytes:
        """The banned labels as bytes, for ``bytes.translate`` deletion."""
        return bytes(
            label
            for label in range(self.permutation.degree)
            if (self.banned_mask >> label) & 1
        )

    def __str__(self) -> str:
        return self.name


class GateLibrary:
    """All placements of the 2-qubit gate alphabet on an n-qubit register.

    Args:
        n_qubits: register width (the paper studies 3; 2 and 4 also work).
        space: label space to represent gates on; defaults to the reduced
            space of Section 3.
        kinds: which 2-qubit kinds to include (default: V, V+, CNOT).

    The NOT gate is deliberately *not* part of the library: following the
    paper, NOT layers are free and are handled algebraically by Theorem 2
    rather than searched over.
    """

    def __init__(
        self,
        n_qubits: int = 3,
        space: LabelSpace | None = None,
        kinds: tuple[GateKind, ...] = (GateKind.V, GateKind.VDAG, GateKind.CNOT),
    ):
        if space is None:
            space = label_space(n_qubits, reduced=True)
        if space.n_qubits != n_qubits:
            raise InvalidGateError(
                f"space has {space.n_qubits} qubits, expected {n_qubits}"
            )
        if any(not kind.is_two_qubit for kind in kinds):
            raise InvalidGateError("the searchable library holds 2-qubit gates only")
        self._space = space
        self._n_qubits = n_qubits
        self._family = "paper"
        entries: list[LibraryGate] = []
        for target, control in _wire_pairs(range(n_qubits), 2):
            for kind in kinds:
                gate = Gate(kind, target, control, n_qubits)
                entries.append(
                    LibraryGate(
                        index=len(entries),
                        gate=gate,
                        permutation=gate.permutation(space),
                        banned_mask=space.banned_mask(gate.constrained_wires),
                        cost=kind.default_cost,
                    )
                )
        self._gates = tuple(entries)
        self._by_name = {entry.name: entry for entry in entries}

    @classmethod
    def from_gates(cls, gates, space: LabelSpace, family: str) -> "GateLibrary":
        """Build a library from pre-placed gates (any radix, any family).

        The radix-generic constructor: *gates* are placed gate objects
        duck-typing the :class:`~repro.gates.gate.Gate` surface (``name``,
        ``kind``, ``n_qubits``, ``permutation(space)``, ``dagger()``,
        ``constrained_wires``).  Entry order is search order and therefore
        pinned by the golden tables of the family; *family* identifies the
        builder for store round-trips (``"paper"`` is the binary default,
        ``"ternary-diwei"`` / ``"quaternary-ms"`` the MV libraries).
        """
        library = cls.__new__(cls)
        library._space = space
        library._n_qubits = space.n_qubits
        library._family = family
        entries: list[LibraryGate] = []
        for gate in gates:
            if gate.n_qubits != space.n_qubits:
                raise InvalidGateError(
                    f"gate {gate.name} spans {gate.n_qubits} wires, "
                    f"space has {space.n_qubits}"
                )
            entries.append(
                LibraryGate(
                    index=len(entries),
                    gate=gate,
                    permutation=gate.permutation(space),
                    banned_mask=space.banned_mask(gate.constrained_wires),
                    cost=gate.kind.default_cost,
                )
            )
        library._gates = tuple(entries)
        library._by_name = {entry.name: entry for entry in entries}
        return library

    # -- access ------------------------------------------------------------------

    @property
    def family(self) -> str:
        """Builder family: ``"paper"`` or an MV library identifier."""
        return getattr(self, "_family", "paper")

    @property
    def space(self) -> LabelSpace:
        """The label space all permutations act on."""
        return self._space

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def gates(self) -> tuple[LibraryGate, ...]:
        """All library entries, in index order."""
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self):
        return iter(self._gates)

    def __getitem__(self, index: int) -> LibraryGate:
        return self._gates[index]

    def by_name(self, name: str) -> LibraryGate:
        """Look up ``V_BA`` / ``V+_AB`` / ``F_CA`` style names."""
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidGateError(
                f"gate {name!r} is not in the library "
                f"({', '.join(sorted(self._by_name))})"
            ) from None

    def get(self, name: str) -> LibraryGate | None:
        """The entry named *name*, or None when the library has none."""
        return self._by_name.get(name)

    def entry_for(self, gate: Gate) -> LibraryGate:
        """The library entry wrapping an equal placed gate."""
        return self.by_name(gate.name)

    def adjoint_entry(self, entry: LibraryGate) -> LibraryGate:
        """The entry of the Hermitian-adjoint gate."""
        return self.entry_for(entry.gate.dagger())

    # -- the paper's sub-libraries ---------------------------------------------------

    def controlled_sublibrary(self, control: int) -> tuple[LibraryGate, ...]:
        """L_control: all V/V+ gates with the given control wire."""
        return tuple(
            e
            for e in self._gates
            if e.gate.kind.is_controlled and e.gate.control == control
        )

    def feynman_sublibrary(self, wire_a: int, wire_b: int) -> tuple[LibraryGate, ...]:
        """L_{ab}: the two Feynman gates on an unordered wire pair."""
        wires = {wire_a, wire_b}
        return tuple(
            e
            for e in self._gates
            if e.gate.kind is GateKind.CNOT
            and {e.gate.target, e.gate.control} == wires
        )

    def sublibrary_names(self) -> dict[str, tuple[str, ...]]:
        """Paper-style table: sub-library label -> gate names.

        For n = 3 reproduces exactly the L_A .. L_BC sets of Section 3.
        """
        table: dict[str, tuple[str, ...]] = {}
        for control in range(self._n_qubits):
            table[f"L_{wire_letter(control)}"] = tuple(
                e.name for e in self.controlled_sublibrary(control)
            )
        for a in range(self._n_qubits):
            for b in range(a + 1, self._n_qubits):
                key = f"L_{wire_letter(a)}{wire_letter(b)}"
                table[key] = tuple(e.name for e in self.feynman_sublibrary(a, b))
        return table

    def banned_sets_paper(self) -> dict[str, tuple[int, ...]]:
        """The banned sets as 1-based label tuples (N_A, ..., N_BC)."""
        out: dict[str, tuple[int, ...]] = {}
        for wire in range(self._n_qubits):
            out[f"N_{wire_letter(wire)}"] = self._space.banned_labels([wire])
        for a in range(self._n_qubits):
            for b in range(a + 1, self._n_qubits):
                key = f"N_{wire_letter(a)}{wire_letter(b)}"
                out[key] = self._space.banned_labels([a, b])
        return out

    def circuit_permutation(self, gates) -> Permutation:
        """Product of library gates in cascade order (apply first to last)."""
        perm = Permutation.identity(self._space.size)
        for entry in gates:
            perm = perm * entry.permutation
        return perm

    def __repr__(self) -> str:
        return (
            f"GateLibrary(n_qubits={self._n_qubits}, "
            f"n_gates={len(self._gates)}, space={self._space!r})"
        )


@lru_cache(maxsize=16)
def library_for(n_qubits: int, radix: int = 2) -> GateLibrary:
    """The shared default library of a register: one instance per key.

    Radix 2 is the paper's V/V+/CNOT library on the reduced label
    space; radix 3 and 4 are the Di & Wei ternary and the
    Muthukrishnan--Stroud quaternary digit libraries.  Libraries are
    immutable, so every caller -- stores, clients, the CLI -- shares
    the instance and its cached gate tables.

    Raises:
        InvalidGateError: an unsupported radix or register width.
    """
    if radix == 2:
        if not 1 <= n_qubits <= 4:
            # Five qubits already exceed the 256-label permutation cap.
            raise InvalidGateError(
                f"the binary library spans 1..4 qubits, not {n_qubits}"
            )
        return GateLibrary(n_qubits)
    if radix == 3:
        from repro.gates.ternary import ternary_library

        return ternary_library(n_qubits)
    if radix == 4:
        from repro.gates.quaternary import quaternary_library

        return quaternary_library(n_qubits)
    raise InvalidGateError(f"no gate library for radix {radix}")
