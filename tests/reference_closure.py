"""The byte-level reference closure the vector engine is tested against.

This is the seed algorithm, kept as an independent oracle: one
``bytes.translate`` per candidate, a set for dedup, and Python lists for
the levels.  It expands gate-major -- each library gate in index order
runs over its whole source level (``cost - gate cost``), rows in
discovery order -- which is the order the vector engine commits in, so
both produce identical levels, discovery order, parents and gates.

The result is an ordinary :class:`~repro.core.search.CascadeSearch`
restored from a :class:`~repro.core.search.SearchArrays` snapshot, so
tests query it like any search (and extending it past *cost_bound*
hands the closure to the vector engine).
"""

from time import perf_counter

import numpy as np

from repro.core.cost import UNIT_COST
from repro.core.kernel import mask_word_count
from repro.core.search import CascadeSearch, SearchArrays
from repro.perm.permutation import pack_images


def reference_arrays(
    library, cost_bound, cost_model=UNIT_COST, track_parents=True
):
    """The closure to *cost_bound* as a snapshot, built by the seed loop."""
    started = perf_counter()
    degree, n_binary = library.space.size, library.space.n_binary

    def mask_of(perm):
        # Images of distinct labels are distinct bits: sum == OR.
        return sum(1 << image for image in perm[:n_binary])

    gates = [
        (entry.table, entry.banned_mask,
         cost_model.gate_cost(entry.gate.kind), entry.index)
        for entry in library.gates
    ]
    identity = bytes(range(degree))
    levels = [[(identity, mask_of(identity))]]
    offsets = [0, 1]
    seen = {identity}
    parents, gate_column = [-1], [-1]
    for cost in range(1, cost_bound + 1):
        frontier = []
        for table, banned, gate_cost, gate_index in gates:
            if gate_cost > cost:
                continue
            source = cost - gate_cost
            for row, (perm, mask) in enumerate(levels[source], offsets[source]):
                if mask & banned:
                    continue
                product = perm.translate(table)
                if product in seen:
                    continue
                seen.add(product)
                frontier.append((product, mask_of(product)))
                parents.append(row)
                gate_column.append(gate_index)
        levels.append(frontier)
        offsets.append(offsets[-1] + len(frontier))

    perms = pack_images([perm for level in levels for perm, _ in level], degree)
    words = mask_word_count(degree)
    # Split the scalar masks into u64 words here rather than calling the
    # engine's compute_masks, so the oracle's masks are independent.
    scalar = [mask for level in levels for _, mask in level]
    masks = np.empty((len(scalar), words), dtype=np.uint64)
    for w in range(words):
        masks[:, w] = np.fromiter(
            ((mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for mask in scalar),
            dtype=np.uint64, count=len(scalar),
        )
    return SearchArrays(
        expanded_to=cost_bound,
        degree=degree,
        n_binary=n_binary,
        mask_words=words,
        level_offsets=np.array(offsets, dtype=np.int64),
        perms=perms,
        masks=masks,
        parents=np.array(parents, dtype=np.int32) if track_parents else None,
        gates=np.array(gate_column, dtype=np.int32) if track_parents else None,
        elapsed_seconds=perf_counter() - started,
    )


def reference_search(
    library, cost_bound, cost_model=UNIT_COST, track_parents=True
):
    """A search over :func:`reference_arrays`, queryable like any other."""
    arrays = reference_arrays(library, cost_bound, cost_model, track_parents)
    return CascadeSearch.from_arrays(library, arrays, cost_model)
