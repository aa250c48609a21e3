"""Witness certification: every failure it catches, and an oracle.

:func:`repro.core.mce.witness_row` is the one check every witness
passes before it leaves the process: MCE, ``BatchSynthesizer``,
Section 4, the server and ``repro store verify`` all go through it.
It walks a closure row's parent pointers, composes the gates' tables
under Definition 1, checks the row's cost and the target, and compares
the result with the row's stored permutation.

``TestCorruptedWitness`` damages one closure row in each way the
arrays can be damaged and pins the exact ``StoreCorruptError`` message,
on a live search (the engine's strided row store), a memory-mapped v2
store and a chunk-compressed v3 store; a served batch entry must carry
``STORE_CORRUPT``.  ``TestResultFromDict`` pins the client-side
``SpecificationError`` of each bad record.  ``TestWitnessOracle``
checks ``certify_row``'s ``(entries, cost, cascade)`` against a walk
and a product of ``Permutation`` objects that share no code with
``core/mce.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.batch import BatchSynthesizer
from repro.core.cost import UNIT_COST
from repro.core.mce import certify_row
from repro.core.search import CascadeSearch
from repro.core.store import open_store, save_search
from repro.errors import SpecificationError, StoreCorruptError
from repro.gates import named
from repro.gates.library import GateLibrary
from repro.io import result_from_dict, result_to_dict
from repro.perm.permutation import Permutation
from repro.server.service import StoreState, execute_query

KINDS = ("live", "v2", "v3")
#: Toffoli's first witness row in the 3-qubit cost-5 closure, its
#: parent, and the closure's row count.
ROW, PARENT, N_ROWS = 11894, 5302, 32323
WALK = ["V+_CB", "V+_CA", "F_AB", "V_CA", "F_AB"]


def _corrupted(kind: str, tmp_path, edit=None) -> CascadeSearch:
    """A 3-qubit cost-5 closure of *kind* with *edit* applied to its arrays.

    A live search is edited in place (its arrays are views of the
    engine's row store); a stored one is written from an edited copy,
    so the damage sits in the file's sections, not in the index.
    """
    search = CascadeSearch(GateLibrary(3))
    search.extend_to(5)
    if kind == "live":
        if edit is not None:
            edit(search.export_arrays())
        return search
    arrays = search.export_arrays()
    copy = type(arrays)(**{
        **vars(arrays),
        "perms": np.array(arrays.perms),
        "parents": np.array(arrays.parents),
        "gates": np.array(arrays.gates),
    })
    if edit is not None:
        edit(copy)
    damaged = CascadeSearch.from_arrays(search.library, copy, validate=False)
    path = tmp_path / f"{kind}.rpro"
    save_search(damaged, path, format_version=int(kind[1]))
    return open_store(path)[2]


def _set(name: str, row: int, value: int):
    def edit(arrays):
        getattr(arrays, name)[row] = value
    return edit


def _flip_perm_byte(arrays):
    # A non-binary label's image: the S-image (and so the index) holds.
    arrays.perms[ROW, 20] ^= 1


def _failure(detail: str) -> str:
    return f"closure row {ROW}: witness fails certification: {detail}"


WALK_BROKEN = _failure(
    "parent walk exceeds the closure bound; the parent arrays are corrupted"
)

#: (case id, edit, exact StoreCorruptError message).
CORRUPTIONS = [
    ("parent-out-of-range", _set("parents", ROW, N_ROWS + 7), WALK_BROKEN),
    ("parent-negative", _set("parents", ROW, -2), WALK_BROKEN),
    ("parent-cycle", _set("parents", ROW, ROW), WALK_BROKEN),
    ("gate-out-of-range", _set("gates", ROW, 18), WALK_BROKEN),
    ("gate-swapped-wrong-target", _set("gates", ROW, 5),
     _failure("the circuit realizes (2,6)(3,7,8), not (7,8)")),
    ("gate-swapped-mixed-output", _set("gates", ROW, 0),
     _failure("the cascade maps a binary input to a mixed output; it is "
              "probabilistic, not reversible")),
    ("gate-swapped-definition-1", _set("gates", PARENT, 3),
     _failure("V_AC sees a non-binary value on a control; the cascade is "
              "not a reasonable product (Definition 1)")),
    ("perm-byte-flipped", _flip_perm_byte,
     f"closure row {ROW}: witness does not compose to the row's stored "
     "permutation"),
    ("cost-mismatch", _set("parents", ROW, 0),
     _failure("claimed cost 5 disagrees with the cascade's cost 1")),
]


def _state(search: CascadeSearch) -> StoreState:
    batch = BatchSynthesizer(search).warm()
    return StoreState(
        path="<test>", header=None, library=search.library, batch=batch,
        cost_bound=batch.cost_bound, table=batch.cost_table(),
        gate_names=tuple(entry.name for entry in search.library.gates),
    )


class TestCorruptedWitness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_clean_row_certifies(self, kind, tmp_path):
        search = _corrupted(kind, tmp_path)
        entries, cost, _cascade = certify_row(search, ROW, 0, named.TOFFOLI)
        assert [entry.name for entry in entries] == WALK
        assert cost == 5
        assert search.n_rows() == N_ROWS

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "edit,message",
        [case[1:] for case in CORRUPTIONS],
        ids=[case[0] for case in CORRUPTIONS],
    )
    def test_exact_message(self, kind, edit, message, tmp_path):
        search = _corrupted(kind, tmp_path, edit)
        with pytest.raises(StoreCorruptError) as info:
            certify_row(search, ROW, 0, named.TOFFOLI)
        assert str(info.value) == message
        with pytest.raises(StoreCorruptError) as info:
            BatchSynthesizer(search).synthesize(named.TOFFOLI)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "edit,message",
        [case[1:] for case in CORRUPTIONS],
        ids=[case[0] for case in CORRUPTIONS],
    )
    def test_served_batch_entry_is_store_corrupt(
        self, kind, edit, message, tmp_path
    ):
        state = _state(_corrupted(kind, tmp_path, edit))
        reply = execute_query(
            state, "synth-batch", {"targets": ["toffoli", "(1,2)"]}
        )
        assert reply["results"][0] == {
            "ok": False,
            "error": {"code": "STORE_CORRUPT", "message": message},
        }
        assert reply["failures"] >= 1


class TestResultFromDict:
    """Each bad record is refused with its exact ``SpecificationError``."""

    PERES = ["V_CB", "F_BA", "V_CA", "V+_CB"]

    def record(self, **changes):
        record = {"n_qubits": 3, "gates": list(self.PERES),
                  "target": named.PERES.cycle_string(), "cost": 4,
                  "not_mask": 0}
        record.update(changes)
        return record

    def test_good_record_round_trips(self):
        result = result_from_dict(self.record())
        assert result_to_dict(result) == self.record()

    @pytest.mark.parametrize("changes,message", [
        ({"gates": ["V_CB", "Q_XY"]}, "gate 'Q_XY' is not in the library"),
        ({"gates": ["V_CB", "N_A", "F_BA"]},
         "NOT gate N_A follows a two-qubit gate; only a leading NOT "
         "layer is free (Theorem 2)"),
        ({"cost": 5}, "claimed cost 5 disagrees with the cascade's cost 4"),
        ({"target": "(7,8)"},
         f"the circuit realizes {named.PERES.cycle_string()}, not (7,8)"),
        ({"not_mask": 2},
         "stored not_mask 2 disagrees with the circuit's NOT layer (mask 0)"),
    ], ids=["unknown-gate", "late-not", "wrong-cost", "wrong-target",
            "wrong-not-mask"])
    def test_exact_message(self, changes, message):
        with pytest.raises(SpecificationError) as info:
            result_from_dict(self.record(**changes))
        assert str(info.value) == message

    def test_malformed_record(self):
        with pytest.raises(SpecificationError, match="malformed result"):
            result_from_dict(json.loads('{"n_qubits": 3}'))


def oracle_witness(search: CascadeSearch, parents, gates, row: int):
    """``(entries, cost, cascade)`` of a row, without ``core/mce.py``.

    Walks the *parents* and *gates* columns (plain ndarrays), checks
    Definition 1 on each binary label's image before every gate, and
    multiplies the gates' ``Permutation`` objects.
    """
    library = search.library
    chain = []
    while row:
        chain.append(library.gates[int(gates[row])])
        row = int(parents[row])
    chain.reverse()
    cascade = Permutation.identity(library.space.size)
    for entry in chain:
        for label in range(library.space.n_binary):
            assert not (entry.banned_mask >> cascade(label)) & 1
        cascade = cascade * entry.permutation
    cost = sum(search.cost_model.gate_cost(e.gate.kind) for e in chain)
    return chain, cost, cascade


def _check_every_indexed_row(search: CascadeSearch) -> int:
    batch = BatchSynthesizer(search)
    arrays = search.export_arrays()
    parents, gates = np.asarray(arrays.parents), np.asarray(arrays.gates)
    checked = 0
    for remainder, (cost, rows) in batch.remainder_index.items():
        target = Permutation(remainder)
        for row in rows:
            got = certify_row(search, int(row), 0, target)
            want = oracle_witness(search, parents, gates, int(row))
            assert got == want
            assert got[1] == cost
            assert got[2].images[: len(remainder)] == remainder
            checked += 1
    return checked


@pytest.fixture(scope="module")
def closures(tmp_path_factory):
    """Live, v2 and v3 3-qubit closures to cost 5."""
    live = CascadeSearch(GateLibrary(3), UNIT_COST)
    live.extend_to(5)
    out = {"live": live}
    for version in (2, 3):
        path = tmp_path_factory.mktemp("oracle") / f"v{version}.rpro"
        save_search(live, path, format_version=version)
        out[f"v{version}"] = open_store(path)[2]
    return out


class TestWitnessOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_row_up_to_cost_5(self, closures, kind):
        assert _check_every_indexed_row(closures[kind]) == 801

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_row_of_the_cost_7_store(self, kind, tmp_path):
        search = CascadeSearch(GateLibrary(3))
        search.extend_to(7)
        if kind != "live":
            path = tmp_path / f"{kind}.rpro"
            save_search(search, path, format_version=int(kind[1]))
            search = open_store(path)[2]
        assert len(BatchSynthesizer(search).remainder_index) == 1260
        _check_every_indexed_row(search)
