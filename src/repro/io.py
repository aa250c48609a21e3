"""Serialization: circuits, targets, batches and synthesis results.

Downstream users need to persist synthesized cascades and reload them
without re-running the search.  The format is deliberately plain:

.. code-block:: json

    {
      "n_qubits": 3,
      "gates": ["V_CB", "F_BA", "V_CA", "V+_CB"],
      "target": "(5,7,6,8)",
      "cost": 4
    }

Gate names are the paper-style names (``V_BA``/``V+_AB``/``F_CA``/``N_B``)
already used everywhere else in the library, and targets use 1-based
cycle notation on the binary patterns, so files stay readable next to
the paper.

Two heavier persistence layers build on this module:

* batch target files (:func:`load_targets`) -- one named target or cycle
  string per line -- and batch result files
  (:func:`save_batch_results` / :func:`load_batch_results`), feeding the
  ``repro synth --batch`` workflow;
* the binary closure store of :mod:`repro.core.store`, re-exported here
  (:func:`save_search` / :func:`load_search` / :func:`open_store` /
  :func:`read_header` / :func:`verify_store` / :func:`migrate_store`)
  so ``repro.io`` is the one-stop persistence facade.  Stores are
  written in the memory-mapped v2 format (opened in O(queries touched),
  remainder index included) or the chunk-compressed v3 format
  (``--format-version 3``: same data, zstd/zlib-compressed sections,
  decompressed on touch); legacy v1 files stay readable and
  :func:`migrate_store` rewrites any version as any other.

:func:`load_access_log` parses the NDJSON request log ``repro serve
--access-log`` writes (one structured record per served request).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.errors import (
    InvalidGateError,
    InvalidPermutationError,
    SpecificationError,
)
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.mce import (
    SynthesisResult,
    certified_cascade,
    not_gates_by_name,
)
from repro.core.store import (  # noqa: F401  (re-exported persistence facade)
    StoreHeader,
    load_search,
    migrate_store,
    open_store,
    read_header,
    save_search,
    verify_store,
)
from repro.gates import named
from repro.gates.library import library_for
from repro.perm.permutation import Permutation
from repro.telemetry.logwriter import rotated_access_logs


def resolve_cost_bound(
    requested: int | None, available: int, what: str
) -> int:
    """Resolve a requested cost bound against what an artifact covers.

    The one shared rule for everything that answers from a precomputed
    closure -- ``--store`` CLI paths, server startup, per-query server
    bounds: ``None`` means "whatever is available", anything deeper
    than *available* is refused with the remedy spelled out.

    Raises:
        SpecificationError: *requested* exceeds *available*.
    """
    if requested is None:
        return available
    if requested > available:
        raise SpecificationError(
            f"{what} only covers cost <= {available}; re-run "
            f"`repro precompute --cost-bound {requested}` to go deeper"
        )
    return requested


def circuit_to_dict(circuit: Circuit) -> dict[str, Any]:
    """Plain-dict form of a circuit."""
    return {
        "n_qubits": circuit.n_qubits,
        "gates": list(circuit.names()),
    }


def circuit_from_dict(data: dict[str, Any]) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output.

    Records carrying a non-binary ``radix`` key rebuild through the MV
    gate parser (``X01_B`` / ``CX+1_AB`` names); everything else takes
    the paper-name path unchanged.

    Raises:
        SpecificationError: on missing keys or malformed gate names.
    """
    try:
        n_qubits = int(data["n_qubits"])
        gates = list(data["gates"])
        radix = int(data.get("radix", 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(f"malformed circuit record: {exc}") from None
    if n_qubits < 1:
        raise SpecificationError(f"bad register width {n_qubits}")
    try:
        if radix != 2:
            from repro.gates.mv import MVGate

            return Circuit(
                tuple(
                    MVGate.from_name(name, n_qubits, radix) for name in gates
                ),
                n_qubits,
            )
        return Circuit.from_names(gates, n_qubits)
    except InvalidGateError as exc:
        raise SpecificationError(str(exc)) from None


def _result_radix(result: SynthesisResult) -> int:
    """Wire radix of a result, derived from its target degree.

    Binary results target the ``2**n`` binary patterns; MV results
    target the full ``radix**n`` digit space.
    """
    n = result.circuit.n_qubits
    degree = result.target.degree
    if degree == 2**n:
        return 2
    for radix in (3, 4):
        if radix**n == degree:
            return radix
    raise SpecificationError(
        f"target degree {degree} matches no supported radix on "
        f"{n} wires"
    )


def result_record(
    n_qubits: int,
    radix: int,
    gates: Sequence[str],
    target: str,
    cost: int,
    not_mask: int,
) -> dict[str, Any]:
    """The result-record shape: the one writer of every result dict.

    *gates* are gate names in cascade order and *target* is the target's
    cycle string.  MV records additionally carry their ``radix``;
    binary records omit it.  :func:`result_to_dict` and the server's
    query path both write through here, so a saved and a served record
    of the same answer are the same bytes.
    """
    record: dict[str, Any] = {"n_qubits": n_qubits, "gates": list(gates)}
    if radix != 2:
        record["radix"] = radix
    record["target"] = target
    record["cost"] = cost
    record["not_mask"] = not_mask
    return record


def result_to_dict(result: SynthesisResult) -> dict[str, Any]:
    """Plain-dict form of a synthesis result (circuit + provenance)."""
    return result_record(
        result.circuit.n_qubits,
        _result_radix(result),
        result.circuit.names(),
        result.target.cycle_string(),
        result.cost,
        result.not_mask,
    )


def result_from_dict(
    data: dict[str, Any], cost_model: CostModel = UNIT_COST
) -> SynthesisResult:
    """Rebuild a full :class:`SynthesisResult` from a result record.

    The inverse of :func:`result_to_dict`, certified on the way in: the
    gate names are looked up in the shared library of the record's
    ``(n_qubits, radix)`` (:func:`~repro.gates.library.library_for`)
    and :func:`~repro.core.mce.certified_cascade` (the checks of
    :func:`~repro.core.mce.certify`) composes the library's cached gate
    tables to prove that the circuit realizes the stored target at
    the stored cost under *cost_model* (the store's model -- ``repro
    synth --store`` passes its header's, ``--server`` the one
    ``store-info`` reports), and a stored ``not_mask`` must match the
    circuit's leading NOT gates.  This is how ``repro synth --server`` turns
    the service's JSON records back into first-class results, so a
    corrupted or malicious response cannot smuggle in a wrong circuit;
    the server certifies every witness the same way before sending it.

    Raises:
        SpecificationError: malformed record or failed certification.
    """
    try:
        n_qubits = int(data["n_qubits"])
        names = [str(name) for name in data["gates"]]
        radix = int(data.get("radix", 2))
        cost = int(data["cost"])
        claimed_mask = data.get("not_mask")
        claimed_mask = None if claimed_mask is None else int(claimed_mask)
        library = library_for(n_qubits, radix)
        # n_binary is 2**n on binary registers, radix**n on digit ones.
        target = Permutation.from_cycle_string(
            library.space.n_binary, str(data["target"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(f"malformed result record: {exc}") from None
    not_mask, entries, images = certified_cascade(
        library, names, target, cost, cost_model
    )
    if claimed_mask is not None and claimed_mask != not_mask:
        raise SpecificationError(
            f"stored not_mask {claimed_mask} disagrees with the circuit's "
            f"NOT layer (mask {not_mask})"
        )
    # The certified names are a leading layer of NOTs, then the entries.
    not_gates = not_gates_by_name(n_qubits)
    gates = [not_gates[name] for name in names[: len(names) - len(entries)]]
    gates += [entry.gate for entry in entries]
    return SynthesisResult(
        target=target,
        circuit=Circuit(gates, n_qubits),
        cost=cost,
        not_mask=not_mask,
        cascade_permutation=Permutation(images),
    )


def result_circuit_from_dict(
    data: dict[str, Any], cost_model: CostModel = UNIT_COST
) -> tuple[Circuit, Permutation]:
    """Rebuild and certify (circuit, target) from a result record.

    See :func:`result_from_dict`: a corrupted or hand-edited file fails
    loudly instead of silently returning a wrong circuit.

    Raises:
        SpecificationError: if the circuit does not realize the stored
            target at the stored cost.
    """
    result = result_from_dict(data, cost_model)
    return result.circuit, result.target


def save_result(result: SynthesisResult, path: str | Path) -> None:
    """Write a synthesis result to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def load_result(path: str | Path) -> tuple[Circuit, Permutation]:
    """Load and re-verify a synthesis result from a JSON file."""
    data = json.loads(Path(path).read_text())
    return result_circuit_from_dict(data)


# -- batch files -----------------------------------------------------------------------


def parse_target(text: str, n_qubits: int = 3, radix: int = 2) -> Permutation:
    """Resolve a target spec: a named target or paper cycle notation.

    Named targets (``toffoli``, ``peres``, ``fredkin``, ``g2`` ...) are
    the 3-qubit catalog of :mod:`repro.gates.named`; anything else is
    parsed as 1-based cycle notation on the ``radix**n_qubits`` labels,
    e.g. ``"(5,7,6,8)"``.  The named catalog is binary-only.
    """
    key = text.strip().lower()
    if radix == 2 and n_qubits == 3 and key in named.TARGETS:
        return named.TARGETS[key]
    return Permutation.from_cycle_string(radix**n_qubits, text)


def load_targets(
    path: str | Path, n_qubits: int = 3, radix: int = 2
) -> list[tuple[str, Permutation]]:
    """Read a batch target file: one target spec per line.

    Blank lines and ``#`` comment lines are skipped.  Returns
    ``(original text, permutation)`` pairs in file order.

    Raises:
        SpecificationError: on an unparseable line (with its number).
    """
    pairs: list[tuple[str, Permutation]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        spec = line.split("#", 1)[0].strip()
        if not spec:
            continue
        try:
            pairs.append((spec, parse_target(spec, n_qubits, radix)))
        except InvalidPermutationError as exc:
            raise SpecificationError(
                f"{path}:{lineno}: bad target {spec!r}: {exc}"
            ) from None
    return pairs


def _parse_access_record(
    path: str | Path, lineno: int, line: str
) -> dict[str, Any]:
    """One NDJSON access-log line as a validated record dict."""
    required = ("op", "store", "queue_wait_ms", "execute_ms", "total_ms",
                "outcome")
    try:
        record = json.loads(line)
    except ValueError:
        raise SpecificationError(
            f"{path}:{lineno}: access-log line is not valid JSON"
        ) from None
    if not isinstance(record, dict):
        raise SpecificationError(
            f"{path}:{lineno}: access-log record must be a JSON object"
        )
    missing = [key for key in required if key not in record]
    if missing:
        raise SpecificationError(
            f"{path}:{lineno}: access-log record is missing "
            + ", ".join(missing)
        )
    return record


def load_access_log(
    path: str | Path, strict: bool = True, rotated: bool = False
):
    """Parse a ``repro serve --access-log`` NDJSON file, streaming.

    One record per request, in arrival order; blank lines are skipped.
    The file is read line by line, never whole -- access logs of
    long-lived servers outgrow RAM comfort long before the closure
    store does.  Each record carries at least ``op``, ``store``,
    ``queue_wait_ms``, ``execute_ms``, ``total_ms`` and ``outcome``
    (``"ok"`` or a structured error code).

    With ``rotated=True`` the whole rotated set is read in arrival
    order (``path.N`` ... ``path.1``, then ``path`` itself -- see
    :func:`rotated_access_logs`), returning one combined record list.

    A crashed -- or still-running -- writer can leave a partial final
    line, and a crash *during rotation* can leave one at the end of any
    file in a rotated set.  With ``strict=True`` (the default) any
    malformed line raises; with ``strict=False`` the return value
    becomes ``(records, tail)`` where a malformed line at the end of a
    file is tolerated and described by *tail* (a dict with ``path``,
    ``lineno``, ``reason`` and the truncated ``text``; ``None`` when
    every file ended cleanly).  *tail* describes the most recent
    truncation; when several files were truncated, its ``truncations``
    key lists them all, oldest first.  Malformed lines *before* the
    final line of their file are real corruption and raise in both
    modes, since rotation only ever happens between whole lines.

    Raises:
        SpecificationError: a line is not a JSON object or a record is
            missing one of the required fields (with its line number) --
            for any line under ``strict=True``, for lines before the
            end of their file otherwise.
    """
    paths = rotated_access_logs(path) if rotated else [Path(path)]
    records: list[dict[str, Any]] = []
    truncations: list[dict[str, Any]] = []
    for file_path in paths:
        pending: tuple[int, str, SpecificationError] | None = None
        with open(file_path, encoding="utf-8", errors="replace") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                if pending is not None:
                    # The bad line was not the final one after all.
                    raise pending[2]
                try:
                    records.append(
                        _parse_access_record(file_path, lineno, line)
                    )
                except SpecificationError as exc:
                    if strict:
                        raise
                    pending = (lineno, line, exc)
        if pending is not None:
            lineno, line, exc = pending
            truncations.append({
                "path": str(file_path),
                "lineno": lineno,
                "reason": str(exc),
                "text": line.rstrip("\n"),
            })
    if strict:
        return records
    tail = None
    if truncations:
        tail = dict(truncations[-1])
        tail["truncations"] = truncations
    return records, tail


def save_batch_results(
    results: list[SynthesisResult], path: str | Path
) -> None:
    """Write many synthesis results to one JSON file (a list of records)."""
    records = [result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def load_batch_results(
    path: str | Path,
) -> list[tuple[Circuit, Permutation]]:
    """Load and re-verify a batch result file.

    Raises:
        SpecificationError: if the file is not a list of result records
            or any record fails re-verification.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise SpecificationError(
            "batch result file must hold a JSON list of result records"
        )
    return [result_circuit_from_dict(record) for record in data]
