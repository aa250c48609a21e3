"""Workload inputs and the correctness oracle.

* Target pools: level k holds the S8[k] coset -- every reversible
  function of minimal two-qubit cost k, each composed with every NOT
  layer (Table 2's |S8[k]| on three qubits).
* Request streams: drawn from a seeded RNG, equal weight per cost
  level and uniform within a level, written to a file before the run.
* Oracle: each served circuit is multiplied out gate by gate as a
  dense unitary with ``repro.sim.statevector``; it must be
  the permutation matrix of the requested target, and its two-qubit
  gate count must equal the level the target was drawn from.  It
  shares no code with the closure search or the permutation classes
  the server answers with.
"""

from __future__ import annotations

import functools
import json
import random
import re
from pathlib import Path

import numpy as np

#: Paper Table 2: |S8[k]| for k = 0..7 on three qubits.
TABLE2_S8 = [8, 48, 192, 408, 672, 1248, 3184, 4320]
#: Closure level sizes |B[k]| of the unit-cost library.
GOLDEN_B = {
    (3, 7): [1, 18, 162, 1017, 5364, 25761, 118888, 538191],
    (4, 5): [1, 36, 684, 9354, 104850, 1038114],
}
#: Coset sizes 2**n * |G[k]| on four qubits, pinned from the seed code.
GOLDEN_POOLS = {
    (3, 7): TABLE2_S8,
    (4, 5): [16, 192, 1536, 8672, 34464, 108864],
}
BATCH_SIZE = 32


def target_pools(store: str) -> list[list[str]]:
    """Per cost level, the cycle strings of the level's NOT-layer coset."""
    from repro.core.batch import BatchSynthesizer
    from repro.io import open_store

    header, _library, search = open_store(store)
    batch = BatchSynthesizer(search)
    return [
        sorted(p.cycle_string()
               for p in batch.targets_at_cost(k, include_not_layers=True))
        for k in range(header.expanded_to + 1)
    ]


def write_stream(
    path: Path, pools: list[list[str]], seed: int,
    shapes: list[tuple[float, int]],
) -> list[list[dict]]:
    """Generate and write one request stream per ``(batch share, length)``.

    Each request is ``{"op", "targets", "levels"}``: a single ``synth``
    or a ``synth-batch`` of :data:`BATCH_SIZE` targets.  A batch share
    of ``1 / m`` puts one batch at a seeded place in each block of ``m``
    requests, so every stretch of a stream carries the same mix.  The
    same arguments always give the same bytes.
    """
    rng = random.Random(seed)
    streams: list[list[dict]] = []
    for batch_share, length in shapes:
        block = round(1 / batch_share) if batch_share else 1
        stream = []
        for i in range(length):
            if i % block == 0:
                slot = rng.randrange(block)
            batch = batch_share > 0 and i % block == slot
            levels = [rng.randrange(len(pools))
                      for _ in range(BATCH_SIZE if batch else 1)]
            stream.append({
                "op": "synth-batch" if batch else "synth",
                "targets": [rng.choice(pools[k]) for k in levels],
                "levels": levels,
            })
        streams.append(stream)
    with open(path, "w") as handle:
        for conn, stream in enumerate(streams):
            for request in stream:
                handle.write(json.dumps({"conn": conn, **request},
                                        separators=(",", ":")) + "\n")
    return streams


# -- oracle -----------------------------------------------------------------------------

_CYCLE = re.compile(r"\(([0-9,]+)\)")


def target_matrix(cycles: str, dim: int) -> np.ndarray:
    """Permutation matrix of 1-based cycle notation on *dim* basis states."""
    image = list(range(dim))
    for body in _CYCLE.findall(cycles):
        points = [int(p) - 1 for p in body.split(",")]
        for a, b in zip(points, points[1:] + points[:1]):
            image[a] = b
    matrix = np.zeros((dim, dim))
    matrix[image, range(dim)] = 1.0
    return matrix


@functools.lru_cache(maxsize=None)
def _gate_unitary(name: str, n_qubits: int) -> np.ndarray:
    from repro.core.circuit import Circuit
    from repro.sim.statevector import gate_unitary_numpy

    return gate_unitary_numpy(Circuit.from_names([name], n_qubits).gates[0])


def circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """``circuit_unitary_numpy`` of the named cascade, gate matrices cached.

    The same per-gate unitaries multiplied in the same order, so equal
    to ``repro.sim.statevector.circuit_unitary_numpy`` of the circuit
    (``perfbench/selftest.py`` checks this); the cache keeps checking a
    long run's distinct answers fast.
    """
    unitary = np.eye(2**n_qubits, dtype=np.complex128)
    for name in gates:
        unitary = _gate_unitary(name, n_qubits) @ unitary
    return unitary


def oracle(n_qubits: int, spec: str, level: int, record: dict) -> bool:
    """Whether *record* is a correct answer for *spec* drawn at *level*."""
    from repro.errors import ReproError

    gates = list(record.get("gates", ()))
    if record.get("target") != spec or record.get("cost") != level:
        return False
    if sum(1 for name in gates if not name.startswith("N_")) != level:
        return False
    try:
        unitary = circuit_unitary(gates, n_qubits)
    except ReproError:
        return False
    return bool(np.allclose(unitary, target_matrix(spec, 2**n_qubits),
                            atol=1e-9))


def corrupt(record: dict, gate_names: list[str], position: int) -> dict:
    """The record with one gate replaced by the next gate of the library."""
    gates = list(record["gates"])
    two_qubit = [i for i, name in enumerate(gates) if not name.startswith("N_")]
    i = two_qubit[position % len(two_qubit)]
    gates[i] = gate_names[(gate_names.index(gates[i]) + 1) % len(gate_names)]
    return {**record, "gates": gates}
