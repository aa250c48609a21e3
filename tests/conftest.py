"""Shared fixtures: expensive objects built once per test session.

The cascade search and FMCF closures are deterministic and immutable
once extended, so sharing them across tests is safe and keeps the suite
fast (the full cost-7 closure alone visits ~6.9e5 permutations).

Marker convention (registered in pyproject.toml):

* ``slow`` -- multi-second tests (exhaustive sweeps, end-to-end example
  scripts).  Deselected by the default ``addopts``; run them with
  ``pytest -m slow`` or everything with ``pytest --override-ini addopts=``.
* ``benchmark`` -- timing-sensitive performance assertions (the
  ``benchmarks/`` harness).  Same treatment, so a loaded CI machine
  cannot flake the functional tier.
"""

from __future__ import annotations

import pytest

from repro.baselines.nct import NCTLibrary, NCTSynthesizer
from repro.core.cost import CostModel
from repro.core.fmcf import find_minimum_cost_circuits
from repro.core.search import CascadeSearch
from repro.gates.library import GateLibrary
from repro.mvl.labels import label_space


@pytest.fixture(scope="session")
def space3():
    """The paper's reduced 38-label space for 3 qubits."""
    return label_space(3, reduced=True)


@pytest.fixture(scope="session")
def space3_full():
    return label_space(3, reduced=False)


@pytest.fixture(scope="session")
def space2_full():
    """The 16-label space of Table 1."""
    return label_space(2, reduced=False)


@pytest.fixture(scope="session")
def library3():
    """The paper's 18-gate library on 3 qubits."""
    return GateLibrary(3)


@pytest.fixture(scope="session")
def library2():
    return GateLibrary(2)


@pytest.fixture(scope="session")
def search3(library3):
    """A shared parent-tracking search; tests extend it as needed."""
    return CascadeSearch(library3, track_parents=True)


@pytest.fixture(scope="session")
def weighted_search3(library3):
    """A parent-tracking search to cost 7 with CNOT three times a V."""
    search = CascadeSearch(
        library3, CostModel(v_cost=1, vdag_cost=1, cnot_cost=3)
    )
    search.extend_to(7)
    return search


@pytest.fixture(scope="session")
def batch3(search3):
    """Batch synthesis index over the shared closure at the paper's cb = 7."""
    from repro.core.batch import BatchSynthesizer

    return BatchSynthesizer(search3, cost_bound=7)


@pytest.fixture(scope="session")
def cost_table5(library3, search3):
    """FMCF to cost 5 (covers Toffoli); fast."""
    return find_minimum_cost_circuits(library3, cost_bound=5, search=search3)


@pytest.fixture(scope="session")
def cost_table7(library3, search3):
    """The paper's full cb = 7 table."""
    return find_minimum_cost_circuits(library3, cost_bound=7, search=search3)


@pytest.fixture(scope="session")
def nct_synthesizer():
    """Complete optimal-NCT BFS table on 3 wires (40320 functions)."""
    return NCTSynthesizer(NCTLibrary(3))
