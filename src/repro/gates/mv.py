"""Radix-generic elementary gates (the Muthukrishnan--Stroud family).

The binary engine's gate alphabet (V / V+ / CNOT) is intrinsically
two-valued: controls fire on the pure value 1 and the square-root-of-NOT
pair only makes sense on qubits.  For qutrits and ququarts the standard
elementary alphabet -- Di & Wei (arXiv:1105.5485) for the ternary case,
following Muthukrishnan & Stroud -- is instead built from *local digit
permutations*:

* **single-qudit gates**: any permutation of the digit alphabet
  ``0..r-1`` applied to one wire.  For r = 3 Di & Wei's five non-trivial
  ops are the two cyclic shifts ``X+1`` / ``X+2`` and the three
  transpositions ``X01`` / ``X02`` / ``X12``.
* **controlled gates**: the Muthukrishnan--Stroud two-qudit primitive --
  apply the local op to the target wire iff the control wire carries the
  *top* digit ``r-1``.

Costs follow Di & Wei's convention: a single-qudit gate costs 1, a
controlled gate costs 2 (it takes two two-qudit interactions to realize
the MS primitive in their construction).

These gates duck-type the :class:`~repro.gates.gate.Gate` surface the
engine consumes -- ``name`` / ``kind`` / ``n_qubits`` /
``permutation(space)`` / ``dagger()`` / ``constrained_wires`` -- so the
cascade search, the stores and the serving tier work unchanged on top of
a digit :class:`~repro.mvl.labels.LabelSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidGateError
from repro.gates.gate import wire_letter
from repro.mvl.labels import LabelSpace
from repro.perm.permutation import Permutation


def _op_name(images: tuple[int, ...]) -> str:
    """Canonical name of a local digit permutation.

    Cyclic shifts render as ``X+k``, transpositions as ``Xij``; any other
    permutation falls back to the explicit image string (``X[201]``).
    """
    r = len(images)
    if all(images[v] == (v + images[0]) % r for v in range(r)) and images[0]:
        return f"X+{images[0]}"
    moved = [v for v in range(r) if images[v] != v]
    if len(moved) == 2 and images[moved[0]] == moved[1]:
        return f"X{moved[0]}{moved[1]}"
    return "X[" + "".join(str(v) for v in images) + "]"


def _op_images(name: str, radix: int) -> tuple[int, ...]:
    """Inverse of :func:`_op_name` for the named families."""
    if name.startswith("X+"):
        shift = int(name[2:])
        return tuple((v + shift) % radix for v in range(radix))
    if name.startswith("X[") and name.endswith("]"):
        return tuple(int(c) for c in name[2:-1])
    if name.startswith("X") and len(name) == 3:
        i, j = int(name[1]), int(name[2])
        images = list(range(radix))
        images[i], images[j] = j, i
        return tuple(images)
    raise InvalidGateError(f"unknown local op name {name!r}")


@dataclass(frozen=True)
class MVGateKind:
    """A member of the radix-r gate alphabet.

    Plays the role :class:`~repro.gates.kinds.GateKind` plays for binary
    gates: it carries the local digit permutation, whether the gate is
    the controlled (MS) variant, and the Di & Wei cost convention.  It is
    deliberately *not* an enum -- the alphabet is parameterized by radix
    -- but exposes the same properties the engine dispatches on, and
    identity checks against ``GateKind`` members are safely False.
    """

    images: tuple[int, ...]
    controlled: bool
    radix: int

    def __post_init__(self) -> None:
        if len(self.images) != self.radix or set(self.images) != set(
            range(self.radix)
        ):
            raise InvalidGateError(
                f"local op {self.images} is not a permutation of "
                f"0..{self.radix - 1}"
            )

    @property
    def name(self) -> str:
        return ("C" if self.controlled else "") + _op_name(self.images)

    #: GateKind-compatible alias (``kind.value`` renders gate names).
    @property
    def value(self) -> str:
        return self.name

    @property
    def is_two_qubit(self) -> bool:
        return self.controlled

    @property
    def is_controlled(self) -> bool:
        return self.controlled

    @property
    def default_cost(self) -> int:
        """Di & Wei costs: single-qudit 1, Muthukrishnan--Stroud 2."""
        return 2 if self.controlled else 1

    @property
    def adjoint_kind(self) -> "MVGateKind":
        inverse = [0] * self.radix
        for v, image in enumerate(self.images):
            inverse[image] = v
        return MVGateKind(tuple(inverse), self.controlled, self.radix)


@dataclass(frozen=True)
class MVGate:
    """A placed radix-r gate; duck-types :class:`~repro.gates.gate.Gate`.

    Args:
        kind: the alphabet member (local op + controlled flag).
        target: the wire the local op acts on.
        control: the MS control wire (fires on digit ``r-1``), or None.
        n_qubits: register width.
    """

    kind: MVGateKind
    target: int
    control: int | None
    n_qubits: int

    def __post_init__(self) -> None:
        if self.kind.controlled != (self.control is not None):
            raise InvalidGateError(
                f"kind {self.kind.name} and control wire disagree"
            )
        wires = [self.target] + ([] if self.control is None else [self.control])
        for wire in wires:
            if not 0 <= wire < self.n_qubits:
                raise InvalidGateError(
                    f"wire {wire} out of range for {self.n_qubits} wires"
                )
        if self.control == self.target:
            raise InvalidGateError("control and target must differ")

    @classmethod
    def from_name(cls, name: str, n_qubits: int, radix: int) -> "MVGate":
        """Parse ``X+1_A`` / ``X01_B`` / ``CX12_BA`` style names."""
        try:
            kind_text, wires = name.split("_")
            controlled = kind_text.startswith("C")
            images = _op_images(kind_text[1:] if controlled else kind_text, radix)
            kind = MVGateKind(images, controlled, radix)
            target = ord(wires[0]) - ord("A")
            if controlled:
                if len(wires) != 2:
                    raise ValueError
                control: int | None = ord(wires[1]) - ord("A")
            else:
                if len(wires) != 1:
                    raise ValueError
                control = None
        except (ValueError, IndexError):
            raise InvalidGateError(f"cannot parse MV gate name {name!r}") from None
        return cls(kind, target, control, n_qubits)

    @property
    def name(self) -> str:
        """``X01_B`` (single) or ``CX+1_BA`` (target wire, then control)."""
        if self.control is None:
            return f"{self.kind.name}_{wire_letter(self.target)}"
        return (
            f"{self.kind.name}_"
            f"{wire_letter(self.target)}{wire_letter(self.control)}"
        )

    def __str__(self) -> str:
        return self.name

    @property
    def constrained_wires(self) -> tuple[int, ...]:
        """Empty: digit spaces carry no mixed values, so nothing is banned."""
        return ()

    def dagger(self) -> "MVGate":
        return MVGate(
            self.kind.adjoint_kind, self.target, self.control, self.n_qubits
        )

    def apply(self, pattern) -> tuple[int, ...]:
        """Act on a digit tuple (MS semantics: fire on control == r-1)."""
        values = tuple(int(v) for v in pattern)
        if self.control is not None and values[self.control] != self.kind.radix - 1:
            return values
        out = list(values)
        out[self.target] = self.kind.images[out[self.target]]
        return tuple(out)

    def permutation(self, space: LabelSpace) -> Permutation:
        """The gate as a permutation of a digit label space."""
        if space.n_qubits != self.n_qubits or space.radix != self.kind.radix:
            raise InvalidGateError(
                f"gate {self.name} (radix {self.kind.radix}, "
                f"{self.n_qubits} wires) does not act on {space!r}"
            )
        return Permutation.from_images(space.images_from_map(self.apply))


def local_ops(radix: int) -> tuple[tuple[int, ...], ...]:
    """The elementary local-op alphabet for a radix, in library order.

    Cyclic shifts first (``X+1 .. X+(r-1)``), then transpositions in
    lexicographic order.  For r = 3 this is exactly Di & Wei's five
    elementary single-qutrit gates; for r = 4 the same two families (3
    shifts + 6 transpositions) generate S4 and keep the alphabet closed
    under inversion, which the search's adjoint back-edge filter uses.
    """
    ops: list[tuple[int, ...]] = []
    for shift in range(1, radix):
        ops.append(tuple((v + shift) % radix for v in range(radix)))
    for i in range(radix):
        for j in range(i + 1, radix):
            images = list(range(radix))
            images[i], images[j] = j, i
            ops.append(tuple(images))
    return tuple(ops)


def mv_library_gates(width: int, radix: int) -> tuple[MVGate, ...]:
    """All placements of the radix alphabet on a *width*-wire register.

    Order (pinned by the golden tables): every single-qudit op on every
    wire first (cost-1 block), then every controlled op on every ordered
    (target, control) pair (cost-2 block).
    """
    if radix**width > 256:
        raise InvalidGateError(
            f"radix {radix} width {width} needs {radix**width} labels; "
            "closure rows hold one byte per label, capping the degree at 256"
        )
    gates: list[MVGate] = []
    for target in range(width):
        for images in local_ops(radix):
            gates.append(
                MVGate(MVGateKind(images, False, radix), target, None, width)
            )
    for target in range(width):
        for control in range(width):
            if control == target:
                continue
            for images in local_ops(radix):
                gates.append(
                    MVGate(MVGateKind(images, True, radix), target, control, width)
                )
    return tuple(gates)
