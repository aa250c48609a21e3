"""Gate model: quantum gates, their permutation representations, libraries.

* :mod:`repro.gates.kinds` -- the gate alphabet (V, V+, CNOT, NOT).
* :mod:`repro.gates.gate` -- a placed gate on named wires, with both its
  exact unitary and its label-permutation semantics.
* :mod:`repro.gates.library` -- the paper's 18-gate library (for 3 qubits)
  with banned masks, plus the general n-qubit construction and the
  shared per-``(n_qubits, radix)`` default libraries (``library_for``).
* :mod:`repro.gates.truth_table` -- quaternary truth tables (Table 1).
* :mod:`repro.gates.named` -- classic reversible targets (Toffoli, Peres,
  Fredkin, the g1..g4 family) as permutations of the binary patterns.
"""

from repro.gates.kinds import GateKind
from repro.gates.gate import Gate
from repro.gates.library import GateLibrary, LibraryGate, library_for
from repro.gates.truth_table import TruthTable
from repro.gates import named

__all__ = [
    "GateKind",
    "Gate",
    "GateLibrary",
    "LibraryGate",
    "library_for",
    "TruthTable",
    "named",
]
