"""Immutable permutations on {0, ..., n-1}, bytes-backed for speed.

Composition convention (matches the paper): ``a * b`` means *apply a
first, then b* -- the natural reading of a gate cascade ``a; b``.  In
image terms ``(a * b)(x) = b(a(x))``.

The image array is stored as ``bytes`` so that the product is a single
``bytes.translate`` call and permutations hash/compare at C speed; this
is what makes the cost-7 closure of the paper (about 7 * 10**5 distinct
cascades) take seconds in pure Python.  Domains up to 256 points are
supported, far beyond the 38 labels of the 3-qubit space (n = 4 qubits
needs 176).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import InvalidPermutationError

_MAX_DEGREE = 256
#: The paper's 1-based label of every point, as cycle-notation text.
_LABELS = tuple(str(point + 1) for point in range(_MAX_DEGREE))
# Cache of identity translation tails, keyed by degree.
_TAILS: dict[int, bytes] = {}


def pack_images(images: "Sequence[bytes]", degree: int):
    """Stack raw image arrays into one ``(n, degree)`` uint8 ndarray.

    The bulk bytes->array adapter used by the vectorized search kernel
    and the v2 closure store: one contiguous buffer copy instead of a
    Python-level loop per permutation.
    """
    import numpy as np

    n = len(images)
    if n == 0:
        return np.empty((0, degree), dtype=np.uint8)
    return np.frombuffer(b"".join(images), dtype=np.uint8).reshape(n, degree)


def unpack_images(array) -> list[bytes]:
    """Split an ``(n, degree)`` uint8 ndarray back into image bytes.

    Inverse of :func:`pack_images`; one ``tobytes`` plus C-level slicing,
    so materializing a 5e5-row level costs tenths of a second, not
    minutes.
    """
    n, degree = array.shape
    blob = array.tobytes()
    return [blob[i : i + degree] for i in range(0, n * degree, degree)]


def _tail(degree: int) -> bytes:
    tail = _TAILS.get(degree)
    if tail is None:
        tail = bytes(range(degree, _MAX_DEGREE))
        _TAILS[degree] = tail
    return tail


def _valid(images: Sequence[int] | bytes) -> bytes:
    """*images* as bytes, if they form a permutation of their length."""
    try:
        data = bytes(images)
    except (TypeError, ValueError):
        raise InvalidPermutationError(
            f"images {images!r} are not a sequence of labels 0..255"
        ) from None
    degree = len(data)
    if degree == 0 or degree > _MAX_DEGREE:
        raise InvalidPermutationError(
            f"degree must be 1..{_MAX_DEGREE}, got {degree}"
        )
    seen = bytearray(degree)
    for x in data:
        if x >= degree or seen[x]:
            raise InvalidPermutationError(
                f"images {list(data)} do not form a permutation"
            )
        seen[x] = 1
    return data


class Permutation:
    """A permutation of ``{0, ..., degree-1}``.

    Create with :meth:`from_images`, :meth:`from_cycles` or
    :meth:`identity`.  Instances are immutable and hashable.
    """

    __slots__ = ("_images", "_table")

    def __init__(
        self, images: Sequence[int] | bytes, _table: bytes | None = None
    ):
        # bytes are the internal fast path and must already be valid;
        # anything else is checked and converted, so a permutation
        # compares and hashes the same however it was built.
        self._images = images if isinstance(images, bytes) else _valid(images)
        # The 256-byte translate table is built lazily (many permutations
        # in BFS frontiers are never used as right factors).
        self._table = _table

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_images(cls, images: Sequence[int] | bytes) -> "Permutation":
        """Build from an image array: ``images[x]`` is the image of x."""
        return cls(_valid(images))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        """The identity permutation on *degree* points."""
        if degree == 0 or degree > _MAX_DEGREE:
            raise InvalidPermutationError(f"bad degree {degree}")
        return cls(bytes(range(degree)))

    @classmethod
    def from_cycles(
        cls, degree: int, cycles: Iterable[Iterable[int]], one_based: bool = True
    ) -> "Permutation":
        """Build from disjoint cycles.

        Args:
            degree: domain size.
            cycles: iterable of cycles; each cycle lists points in order.
            one_based: interpret points as the paper's 1-based labels
                (default) rather than 0-based indices.
        """
        offset = 1 if one_based else 0
        end = degree + offset
        # images[label] is the 0-based image of *label*; with 1-based
        # labels, slot 0 is padding that the result drops.
        images = bytearray(offset) + bytearray(range(degree))
        seen = bytearray(end)
        for cycle in cycles:
            prev = None
            for p in cycle:
                if not offset <= p < end:
                    raise InvalidPermutationError(
                        f"cycle point {p} out of range for degree {degree}"
                    )
                if seen[p]:
                    raise InvalidPermutationError(
                        f"point {p} appears in two cycles"
                    )
                seen[p] = 1
                # Each point maps to the next; the last one to the first.
                if prev is None:
                    first = p
                else:
                    images[prev] = p - offset
                prev = p
            if prev is not None:
                images[prev] = first - offset
        return cls(bytes(images[offset:]))

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        """The swap of 0-based points *a* and *b*."""
        images = list(range(degree))
        images[a], images[b] = images[b], images[a]
        return cls.from_images(images)

    # -- core accessors --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Size of the domain."""
        return len(self._images)

    @property
    def images(self) -> bytes:
        """The raw image array (``images[x]`` = image of x)."""
        return self._images

    def table(self) -> bytes:
        """The 256-byte translation table used for fast right-composition."""
        if self._table is None:
            self._table = self._images + _tail(len(self._images))
        return self._table

    def __call__(self, point: int) -> int:
        """Image of a 0-based point."""
        return self._images[point]

    def apply_paper(self, paper_point: int) -> int:
        """Image using the paper's 1-based labels on both sides."""
        return self._images[paper_point - 1] + 1

    # -- group operations --------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Cascade product: apply ``self`` first, then ``other``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise InvalidPermutationError("degree mismatch in product")
        return Permutation(self._images.translate(other.table()))

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        inv = bytearray(len(self._images))
        for x, y in enumerate(self._images):
            inv[y] = x
        return Permutation(bytes(inv))

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g`` (relabeling of points by g)."""
        return g.inverse() * self * g

    def power(self, exponent: int) -> "Permutation":
        """Integer power (negative exponents use the inverse)."""
        if exponent < 0:
            return self.inverse().power(-exponent)
        result = Permutation.identity(self.degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- structure ------------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self._images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 0-based tuples (fixed points omitted by default)."""
        seen = bytearray(self.degree)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = 1
            point = self._images[start]
            while point != start:
                cycle.append(point)
                seen[point] = 1
                point = self._images[point]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_structure(self) -> dict[int, int]:
        """Map cycle length -> count (including fixed points)."""
        structure: dict[int, int] = {}
        for cycle in self.cycles(include_fixed=True):
            structure[len(cycle)] = structure.get(len(cycle), 0) + 1
        return structure

    def order(self) -> int:
        """Multiplicative order (lcm of cycle lengths)."""
        from math import lcm

        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return lcm(*lengths) if lengths else 1

    def parity(self) -> int:
        """0 for even, 1 for odd permutations."""
        swaps = sum(len(c) - 1 for c in self.cycles())
        return swaps % 2

    def support(self) -> tuple[int, ...]:
        """The 0-based points moved by the permutation."""
        return tuple(x for x, y in enumerate(self._images) if x != y)

    def fixes(self, points: Iterable[int]) -> bool:
        """True if every point in *points* is mapped into the same set."""
        pts = set(points)
        return {self._images[p] for p in pts} == pts

    def image_of_set(self, points: Iterable[int]) -> frozenset[int]:
        """The image f(S) of a set of 0-based points."""
        return frozenset(self._images[p] for p in points)

    def restricted(self, points: Sequence[int]) -> "Permutation":
        """The paper's ``RestrictedPerm(b, S)``.

        Given an invariant set *points* (b(S) = S), return the permutation
        induced on those points, renumbered 0..len(points)-1 in the order
        given.

        Raises:
            InvalidPermutationError: if the set is not invariant.
        """
        index = {p: i for i, p in enumerate(points)}
        images = []
        for p in points:
            image = self._images[p]
            if image not in index:
                raise InvalidPermutationError(
                    f"set {list(points)} is not invariant (point {p} maps "
                    f"to {image})"
                )
            images.append(index[image])
        return Permutation.from_images(images)

    def extended(self, degree: int) -> "Permutation":
        """Embed into a larger domain, fixing all new points."""
        if degree < self.degree:
            raise InvalidPermutationError("cannot shrink a permutation")
        return Permutation(self._images + bytes(range(self.degree, degree)))

    # -- equality / hashing -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation.from_cycles({self.degree}, {self.cycle_string()!r})"

    # -- paper-style cycle notation ------------------------------------------------------

    def cycle_string(self) -> str:
        """Cycle notation with the paper's 1-based labels, e.g. ``(5,7,6,8)``."""
        images = self._images
        seen = bytearray(len(images))
        parts = []
        for start, point in enumerate(images):
            if point == start or seen[start]:
                continue
            cycle = [_LABELS[start]]
            while point != start:
                seen[point] = 1
                cycle.append(_LABELS[point])
                point = images[point]
            parts.append("(" + ",".join(cycle) + ")")
        return "".join(parts) or "()"

    @classmethod
    def from_cycle_string(cls, degree: int, text: str) -> "Permutation":
        """Parse paper-style cycle notation, e.g. ``"(3,7,4,8)"``."""
        text = text.strip().replace(" ", "")
        if text in ("()", ""):
            return cls.identity(degree)
        if not (text.startswith("(") and text.endswith(")")):
            raise InvalidPermutationError(f"bad cycle string {text!r}")
        try:
            cycles = [
                list(map(int, chunk.split(",")))
                for chunk in text[1:-1].split(")(")
            ]
        except ValueError:
            raise InvalidPermutationError(f"bad cycle string {text!r}") from None
        return cls.from_cycles(degree, cycles, one_based=True)
