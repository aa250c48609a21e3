"""FMCF -- the paper's Finding_Minimum_Cost_Circuits algorithm.

Computes ``G[k]``: the set of all binary-input/binary-output reversible
circuits whose *minimal* quantum cost (without NOT gates) is exactly k.
Implementation follows the paper's pseudocode:

    A[k] = cascades of cost <= k           (the search's seen-set)
    B[k] = A[k] - A[k-1]                   (the search's level k)
    pre_G[k] = {RestrictedPerm(b, S) : b in B[k], b(S) = S}
    G[k] = pre_G[k] - G[k-1] - ... - G[1]

plus Theorem 2's corollary |S8[k]| = 2**n * |G[k]| for the table row that
includes free NOT layers.

The loop is one grouping: the remainder index maps each restriction
to its first cost and matching rows, and :func:`group_by_cost` reads
the G[k] classes off it.  The batch synthesizer serves from the same
index, and the closure store embeds it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.cost import CostModel
from repro.core.search import CascadeSearch, SearchStats, search_for
from repro.gates.library import GateLibrary
from repro.perm.permutation import Permutation


@dataclass
class CostTable:
    """The result of FMCF up to a cost bound.

    Attributes:
        cost_bound: the paper's ``cb``.
        classes: ``classes[k]`` is G[k] as a list of degree-2**n
            permutations of the binary patterns (``classes[0]`` is the
            identity singleton).
        b_sizes: |B[k]| per level (cascade permutations of cost k).
        a_sizes: |A[k]| cumulative.
        n_qubits: register width.
    """

    cost_bound: int
    n_qubits: int
    classes: list[list[Permutation]]
    b_sizes: list[int]
    a_sizes: list[int]
    stats: SearchStats | None = None
    _cost_index: dict[Permutation, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._cost_index = {
            perm: k for k, members in enumerate(self.classes) for perm in members
        }

    @property
    def g_sizes(self) -> list[int]:
        """|G[k]| for k = 0..cb -- the first row of the paper's Table 2."""
        return [len(members) for members in self.classes]

    @property
    def s8_sizes(self) -> list[int]:
        """|S8[k]| = 2**n * |G[k]| -- the second row of Table 2.

        By Theorem 2, composing with the 2**n free NOT layers maps G[k]
        bijectively onto the cost-k elements of the full symmetric group
        on binary patterns.
        """
        factor = 2**self.n_qubits
        return [factor * size for size in self.g_sizes]

    def cost_of(self, target: Permutation) -> int | None:
        """Minimal NOT-free cost of a reversible target, if within bound."""
        return self._cost_index.get(target)

    def members(self, cost: int) -> list[Permutation]:
        """G[cost] as a list of permutations."""
        return self.classes[cost]

    def total_synthesized(self) -> int:
        """Total reversible functions covered: sum of |G[k]|."""
        return sum(self.g_sizes)


#: Remainder images -> (minimal cost, global rows of the matching
#: cascades at that cost, in row order).
RemainderIndex = dict[bytes, tuple[int, Sequence[int]]]


def build_remainder_index(
    search: CascadeSearch, cost_bound: int
) -> RemainderIndex:
    """Group the S-fixing rows of levels ``1..cost_bound`` by remainder.

    Keys come in FMCF's discovery order, each with its first cost and
    every matching row at that cost.  Level 0 is skipped, so the
    identity sits at its first non-trivial cost (3 at 3 qubits).
    """
    index: RemainderIndex = {}
    for cost in range(1, cost_bound + 1):
        rows, remainders = search.s_fixing_rows(cost)
        width = remainders.shape[1]
        blob = remainders.tobytes()
        for row, at in zip(rows, range(0, len(blob), width)):
            remainder = blob[at : at + width]
            hit = index.get(remainder)
            if hit is None:
                index[remainder] = (cost, [row])
            elif hit[0] == cost:
                hit[1].append(row)
    return index


def remainder_index(search: CascadeSearch, cost_bound: int) -> RemainderIndex:
    """*search*'s index to *cost_bound*: the attached one if it reaches
    that far (see :meth:`CascadeSearch.attach_remainder_index`), else
    :func:`build_remainder_index`."""
    attached = search.attached_remainder_index
    if attached is None or attached[0] < cost_bound:
        return build_remainder_index(search, cost_bound)
    bound, index = attached
    if bound == cost_bound:
        return index
    return {key: hit for key, hit in index.items() if hit[0] <= cost_bound}


def group_by_cost(
    search: CascadeSearch,
    index: RemainderIndex,
    cost_bound: int,
    paper_pseudocode: bool = False,
) -> CostTable:
    """The :class:`CostTable` of *search*'s remainder *index*.

    G[k] is the index's cost-k keys in index order, and G[0] the
    identity, whose indexed entry joins a later class only with
    *paper_pseudocode* (see :func:`find_minimum_cost_circuits`).
    """
    identity = Permutation.identity(search.library.space.n_binary)
    skip = None if paper_pseudocode else identity.images
    classes = [[identity]] + [[] for _ in range(cost_bound)]
    for remainder, (cost, _rows) in index.items():
        if cost <= cost_bound and remainder != skip:
            classes[cost].append(Permutation.from_images(remainder))
    stats = search.stats()
    return CostTable(
        cost_bound=cost_bound,
        n_qubits=search.library.n_qubits,
        classes=classes,
        b_sizes=list(stats.level_sizes[: cost_bound + 1]),
        a_sizes=list(stats.a_sizes[: cost_bound + 1]),
        stats=stats,
    )


def find_minimum_cost_circuits(
    library: GateLibrary,
    cost_bound: int = 7,
    cost_model: CostModel | None = None,
    search: CascadeSearch | None = None,
    paper_pseudocode: bool = False,
) -> CostTable:
    """Run FMCF up to *cost_bound* (the paper used cb = 7).

    Args:
        library: the gate library (paper: 18 gates on 3 qubits).
        cost_bound: highest cost level to enumerate.
        cost_model: integer gate costs; None means the shared
            *search*'s model, or the unit model for a fresh search.
        search: optionally reuse an existing search engine; a fresh
            engine without parent tracking is created otherwise.
        paper_pseudocode: reproduce the published pseudocode *verbatim*,
            which subtracts G[k-1] ... G[1] but **not** G[0] = {()}.  The
            identity function is then re-counted at the first level where
            a non-trivial cascade restricts to it (cost 3, e.g.
            ``F_BA * V_BA * V_BA``), reproducing the paper's |G[3]| = 52.
            With the default False, G[k] is exactly the set of functions
            of *minimal* cost k (identity has cost 0), giving 51.

    Returns:
        A :class:`CostTable` with the G[k] classes and level sizes.

    Raises:
        SpecificationError: *cost_model* differs from the shared
            *search*'s model.
    """
    search = search_for(
        library, cost_model, search, False, "find_minimum_cost_circuits()"
    )
    search.extend_to(cost_bound)
    index = remainder_index(search, cost_bound)
    return group_by_cost(search, index, cost_bound, paper_pseudocode)
