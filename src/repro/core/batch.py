"""Batch synthesis: many MCE queries against one shared closure.

:func:`repro.core.mce.express` matches the remainder against the
B[1], B[2], ... levels for every call (one vectorized comparison per
level).  When many targets are synthesized against the same closure --
the precompute-then-serve workflow of ``repro precompute`` /
``repro synth --store`` -- the closure is fixed, so the *remainder
index* of :mod:`repro.core.fmcf` (minimal cost and matching cascade
rows per NOT-free reversible function) is built once and every query
becomes a dictionary lookup.

:class:`BatchSynthesizer` is that index.  It wraps any expanded
:class:`CascadeSearch` -- freshly computed or loaded from a store -- and
answers:

* single targets (:meth:`synthesize`, :meth:`synthesize_all`) with
  results identical to :func:`express` / :func:`express_all`,
* explicit batches (:meth:`synthesize_many`),
* the "everything up to the bound" modes of FMCF:
  :meth:`synthesize_level` emits one result per G[k] (or S8[k]) member
  and :meth:`cost_table` rebuilds the paper's Table 2 from the index
  through FMCF's own grouping, without re-scanning the closure.

The index maps remainders to *global closure rows* rather than raw
permutation bytes, so it serializes compactly (the v2 and v3 stores
embed it; see :mod:`repro.core.store`) and witness extraction walks
parent arrays without any byte-level lookup.  When a search arrives
from a store with the index already attached
(:meth:`CascadeSearch.attach_remainder_index`), construction does no
closure scan at all -- the store open plus first query costs
milliseconds instead of seconds.

Against a compressed v3 store the row accessors used here resolve
through lazy per-level chunks: each index hit or witness walk touches
one level of one section, which is decompressed on first touch and
held in the process-wide section cache
(:func:`repro.core.store.section_cache_stats`).  Queries therefore
stay O(levels touched), not O(store size), at any closure depth --
the same contract the memory-mapped v2 layout gives, paid in one
decompression instead of one page fault.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import (
    CostBoundExceededError,
    SpecificationError,
    StoreCorruptError,
)
from repro.core.fmcf import (
    CostTable,
    RemainderIndex,
    group_by_cost,
    remainder_index,
)
from repro.core.mce import (
    DEFAULT_COST_BOUND,
    SynthesisResult,
    _not_layer_result,
    _results_from_rows,
    certify_row,
    normalize_target,
)
from repro.core.search import CascadeSearch
from repro.gates.named import not_layer_permutation
from repro.perm.permutation import Permutation

class BatchSynthesizer:
    """O(1)-per-query synthesis against one shared expanded closure.

    Args:
        search: the closure to serve from.  It is extended to
            *cost_bound* on construction if needed; a search loaded from
            a store at that bound is served as-is, with no re-expansion.
        cost_bound: highest cost the index covers.  Defaults to the
            search's already-expanded bound -- including a deliberate
            bound of 0 for a store-loaded search -- or the paper's
            ``cb = 7`` for a fresh, never-expanded search.

    Witness extraction (:meth:`synthesize` and friends) needs a
    parent-tracking search; counting-only stores still support
    :meth:`minimal_cost`, :meth:`targets_at_cost` and :meth:`cost_table`.

    **Thread safety.**  After construction the index itself is never
    mutated, and every query method only *reads*: the remainder
    dictionary, the wrapped search's row accessors and the library.
    Two caveats keep that from being a blanket guarantee:

    * call :meth:`CascadeSearch.freeze` on the wrapped search (or
      :meth:`warm`, which does it for you and exercises every query
      path once) before sharing an instance across threads;
    * the search must not be extended or re-optioned while queries are
      in flight -- freezing makes those operations raise instead of
      racing.  For a search holding a vector engine the freeze also
      releases the expansion scratch buffers, so a serving process
      never holds them idle; the sharded dedup table stays alive (row
      lookups read it).

    Lazy v3 chunk decompression needs no extra care: the section cache
    is lock-protected and keyed by file identity, so concurrent threads
    (and reloads swapping in a replacement store at the same path) read
    consistent bytes.

    This is the contract the long-lived service (:mod:`repro.server`)
    relies on: one frozen, warmed ``BatchSynthesizer`` serves every
    query, and a store reload builds a *new* instance on another thread
    and atomically swaps the reference rather than mutating the old
    one.
    """

    def __init__(self, search: CascadeSearch, cost_bound: int | None = None):
        if cost_bound is None:
            if search.expanded_to or search.was_restored:
                cost_bound = search.expanded_to
            else:
                cost_bound = DEFAULT_COST_BOUND
        search.extend_to(cost_bound)
        self._search = search
        self._library = search.library
        self._cost_bound = cost_bound
        self._index = remainder_index(search, cost_bound)
        n_binary = self._library.space.n_binary
        self._identity_images = Permutation.identity(n_binary).images
        # Cost levels up to this one passed certify_members().
        self._certified_to = 0

    def warm(self) -> "BatchSynthesizer":
        """Freeze the search and pre-touch every query path once.

        Materializes all lazily-built state (see
        :meth:`CascadeSearch.freeze`) and runs one representative query
        per code path -- an index lookup, a witness extraction and a
        cost-table scan -- so the first real query after ``warm()``
        hits only immutable, already-faulted-in structures.  Safe to
        call more than once; returns ``self`` for chaining.
        """
        self._search.freeze()
        if self._search.tracks_parents:
            for remainder, (_cost, rows) in self._index.items():
                if remainder != self._identity_images:
                    # One witness walk faults in the parent arrays.
                    self._search.witness_indices_for_row(int(rows[0]))
                    break
        self.cost_table(min(1, self._cost_bound))
        return self

    # -- introspection -----------------------------------------------------------------

    @property
    def search(self) -> CascadeSearch:
        return self._search

    @property
    def cost_bound(self) -> int:
        return self._cost_bound

    @property
    def remainder_index(self) -> RemainderIndex:
        """The (read-only) remainder index; the v2 store serializes this."""
        return self._index

    def __len__(self) -> int:
        """Distinct NOT-free reversible functions the index can serve."""
        # The identity is served at cost 0 even though its first
        # non-trivial cascade appears deeper in the closure.
        return len(self._index) + (
            self._identity_images not in self._index
        )

    # -- single-target queries ----------------------------------------------------------

    def witness_rows(self, remainder: bytes) -> Sequence[int] | None:
        """The closure rows whose witnesses realize a NOT-free remainder.

        *remainder* is the remainder's image bytes (see
        :func:`~repro.core.mce.strip_not_layer`).  Returns the rows at
        its minimal cost, in row order, or None when no cascade within
        the bound realizes it.

        Raises:
            SpecificationError: the closure tracks no parents, so it has
                no witnesses.
        """
        if not self._search.tracks_parents:
            raise SpecificationError(
                "closure was computed without parent tracking; it can "
                "answer costs but not witness circuits"
            )
        hit = self._index.get(remainder)
        return None if hit is None else hit[1]

    def synthesize(
        self, target: Permutation, allow_not: bool = True
    ) -> SynthesisResult:
        """One minimum-cost implementation; equals :func:`express`."""
        return self._synthesize_impl(target, allow_not, first_only=True)[0]

    def synthesize_all(
        self, target: Permutation, allow_not: bool = True
    ) -> list[SynthesisResult]:
        """All label-level implementations; equals :func:`express_all`."""
        return self._synthesize_impl(target, allow_not, first_only=False)

    def _synthesize_impl(
        self, target: Permutation, allow_not: bool, first_only: bool
    ) -> list[SynthesisResult]:
        not_mask, remainder, not_gates = normalize_target(
            target, self._library, allow_not
        )
        if remainder.is_identity:
            return [
                _not_layer_result(target, self._library, not_mask, not_gates)
            ]
        rows = self.witness_rows(remainder.images)
        if rows is None:
            raise CostBoundExceededError(
                f"permutation {target.cycle_string()}", self._cost_bound
            )
        return _results_from_rows(
            rows, self._search, target, not_mask, not_gates, first_only
        )

    def certify_members(self, cost_bound: int) -> None:
        """Certify one witness of every indexed function up to *cost_bound*.

        The check behind a served cost table's members: each function's
        first witness must realize it at exactly its indexed minimal
        cost (and compose to its row's stored permutation).  The index
        and the frozen closure never change, so each cost level is
        certified once per instance.  A counting-only closure has no
        witnesses and passes as indexed.

        Raises:
            StoreCorruptError: a witness fails certification or costs
                other than its function's indexed cost.
        """
        done = self._certified_to
        if cost_bound <= done or not self._search.tracks_parents:
            return
        for remainder, (cost, rows) in self._index.items():
            if not done < cost <= cost_bound or (
                remainder == self._identity_images
            ):
                continue
            target = Permutation(remainder)
            witness_cost = certify_row(self._search, rows[0], 0, target)[1]
            if witness_cost != cost:
                raise StoreCorruptError(
                    f"{target.cycle_string()} is indexed at cost {cost} "
                    f"but its witness costs {witness_cost}"
                )
        self._certified_to = cost_bound

    def minimal_cost(self, target: Permutation, allow_not: bool = True) -> int:
        """Minimal quantum cost of a target, without witness extraction."""
        _not_mask, remainder, _gates = normalize_target(
            target, self._library, allow_not
        )
        if remainder.is_identity:
            return 0
        hit = self._index.get(remainder.images)
        if hit is None:
            raise CostBoundExceededError(
                f"permutation {target.cycle_string()}", self._cost_bound
            )
        return hit[0]

    # -- batch queries ------------------------------------------------------------------

    def synthesize_many(
        self, targets: Iterable[Permutation], allow_not: bool = True
    ) -> list[SynthesisResult]:
        """One result per target, in input order.

        Raises on the first unsynthesizable target; pre-check with
        :meth:`minimal_cost` to triage a mixed batch.
        """
        return [self.synthesize(target, allow_not) for target in targets]

    def targets_at_cost(
        self, cost: int, include_not_layers: bool = False
    ) -> list[Permutation]:
        """All reversible functions of minimal NOT-free cost *cost*.

        With ``include_not_layers``, each G[cost] member is composed with
        every free NOT layer, enumerating the paper's S8[cost] coset
        (``2**n`` targets per member, Theorem 2).
        """
        members = self.cost_table(cost).members(cost)
        if not include_not_layers:
            return members
        if self._library.space.radix != 2:
            raise SpecificationError(
                "NOT layers are a binary (Theorem 2) notion; MV libraries "
                "have none, call targets_at_cost(include_not_layers=False)"
            )
        n_qubits = self._library.n_qubits
        layers = [
            not_layer_permutation(mask, n_qubits)
            for mask in range(2**n_qubits)
        ]
        return [layer * member for member in members for layer in layers]

    def synthesize_level(
        self, cost: int, include_not_layers: bool = False
    ) -> list[SynthesisResult]:
        """Synthesize every G[cost] (or S8[cost]) member -- FMCF, vectorized.

        One witness-backed result per target; by Theorem 3 each comes out
        at exactly minimal cost *cost* (quantum cost of the 2-qubit part).
        """
        return self.synthesize_many(
            self.targets_at_cost(cost, include_not_layers)
        )

    def cost_table(self, cost_bound: int | None = None) -> CostTable:
        """The paper's Table 2 rebuilt from the index (FMCF equivalent).

        Produces the same :class:`CostTable` as
        :func:`find_minimum_cost_circuits` (default semantics, identity
        in G[0]) without re-scanning the closure levels.
        """
        if cost_bound is None:
            cost_bound = self._cost_bound
        if not 0 <= cost_bound <= self._cost_bound:
            raise SpecificationError(
                f"cost bound {cost_bound} outside the indexed range "
                f"0..{self._cost_bound}"
            )
        return group_by_cost(self._search, self._index, cost_bound)
