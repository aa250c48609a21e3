"""Unit tests for JSON persistence (repro.io)."""

import json

import pytest

from repro.errors import SpecificationError
from repro.core.circuit import Circuit
from repro.core.mce import express
from repro.gates import named
from repro.io import (
    circuit_from_dict,
    circuit_to_dict,
    load_result,
    result_from_dict,
    result_to_dict,
    result_circuit_from_dict,
    save_result,
)


class TestCircuitRoundTrip:
    def test_roundtrip(self):
        circuit = Circuit.from_names("V_CB F_BA V_CA V+_CB", 3)
        assert circuit_from_dict(circuit_to_dict(circuit)) == circuit

    def test_with_not_gates(self):
        circuit = Circuit.from_names("N_A F_BA", 3)
        assert circuit_from_dict(circuit_to_dict(circuit)) == circuit

    def test_missing_keys(self):
        with pytest.raises(SpecificationError):
            circuit_from_dict({"gates": ["F_BA"]})

    def test_bad_gate_name(self):
        with pytest.raises(SpecificationError):
            circuit_from_dict({"n_qubits": 3, "gates": ["Q_XY"]})


class TestResultRoundTrip:
    def test_save_and_load(self, tmp_path, library3, search3):
        result = express(named.PERES, library3, search=search3)
        path = tmp_path / "peres.json"
        save_result(result, path)
        circuit, target = load_result(path)
        assert circuit == result.circuit
        assert target == named.PERES

    def test_record_fields(self, library3, search3):
        result = express(named.TOFFOLI, library3, search=search3)
        record = result_to_dict(result)
        assert record["cost"] == 5
        assert record["target"] == "(7,8)"
        assert record["not_mask"] == 0
        assert len(record["gates"]) == 5

    def test_tampered_target_rejected(self, library3, search3):
        result = express(named.PERES, library3, search=search3)
        record = result_to_dict(result)
        record["target"] = "(7,8)"  # lie: claim it's a Toffoli
        with pytest.raises(SpecificationError):
            result_circuit_from_dict(record)

    def test_tampered_cost_rejected(self, library3, search3):
        result = express(named.PERES, library3, search=search3)
        record = result_to_dict(result)
        record["cost"] = 3
        with pytest.raises(SpecificationError):
            result_circuit_from_dict(record)

    def test_probabilistic_circuit_rejected(self):
        record = {
            "n_qubits": 3,
            "gates": ["V_BA"],
            "target": "()",
            "cost": 1,
        }
        with pytest.raises(SpecificationError):
            result_circuit_from_dict(record)

    def test_file_is_valid_json(self, tmp_path, library3, search3):
        result = express(named.G3, library3, search=search3)
        path = tmp_path / "g3.json"
        save_result(result, path)
        data = json.loads(path.read_text())
        assert data["target"] == "(3,4)(5,7)(6,8)"

    def test_not_layer_result_roundtrip(self, tmp_path, library3, search3):
        target = named.not_layer_permutation(0b110) * named.PERES
        result = express(target, library3, search=search3)
        path = tmp_path / "shifted.json"
        save_result(result, path)
        circuit, loaded_target = load_result(path)
        assert loaded_target == target
        assert circuit.binary_permutation() == target

    def test_tampered_not_mask_rejected(self, library3, search3):
        target = named.not_layer_permutation(0b110) * named.PERES
        record = result_to_dict(express(target, library3, search=search3))
        assert record["not_mask"] == 0b110
        assert result_from_dict(record).not_mask == 0b110
        record["not_mask"] = 0b011  # the circuit's NOT layer is 0b110
        with pytest.raises(SpecificationError, match="not_mask"):
            result_from_dict(record)


class TestBatchFiles:
    def test_parse_target_named_and_cycles(self):
        from repro.io import parse_target

        assert parse_target("toffoli") == named.TOFFOLI
        assert parse_target("  PERES ") == named.PERES
        assert parse_target("(5,7,6,8)") == named.PERES

    def test_load_targets_skips_blanks_and_comments(self, tmp_path):
        from repro.io import load_targets

        path = tmp_path / "targets.txt"
        path.write_text("# header\n\ntoffoli\n(7,8)  # trailing comment\n")
        pairs = load_targets(path)
        assert [spec for spec, _ in pairs] == ["toffoli", "(7,8)"]
        assert pairs[0][1] == named.TOFFOLI

    def test_load_targets_bad_line_reports_lineno(self, tmp_path):
        from repro.io import load_targets

        path = tmp_path / "targets.txt"
        path.write_text("toffoli\nnot-a-target\n")
        with pytest.raises(SpecificationError, match=":2:"):
            load_targets(path)

    def test_batch_results_roundtrip(self, tmp_path, library3, search3):
        from repro.io import load_batch_results, save_batch_results

        results = [
            express(named.TARGETS[k], library3, search=search3)
            for k in ("peres", "toffoli")
        ]
        path = tmp_path / "batch.json"
        save_batch_results(results, path)
        loaded = load_batch_results(path)
        assert len(loaded) == 2
        for (circuit, target), result in zip(loaded, results):
            assert target == result.target
            assert circuit.binary_permutation() == target

    def test_batch_results_must_be_a_list(self, tmp_path):
        from repro.io import load_batch_results

        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(SpecificationError):
            load_batch_results(path)


def access_record(op="synth", outcome="ok"):
    return {
        "op": op, "store": "main", "queue_wait_ms": 0.1,
        "execute_ms": 1.0, "total_ms": 1.2, "outcome": outcome,
    }


class TestAccessLogTailTolerance:
    """load_access_log on logs a live or crashed writer left behind:
    a partial final line must be tolerable (strict=False) without
    hiding real mid-file corruption."""

    def _write(self, tmp_path, *lines):
        path = tmp_path / "access.ndjson"
        path.write_text("".join(lines))
        return path

    def test_clean_log_has_no_tail(self, tmp_path):
        from repro.io import load_access_log

        path = self._write(
            tmp_path,
            json.dumps(access_record()) + "\n",
            json.dumps(access_record(op="healthz")) + "\n",
        )
        records, tail = load_access_log(path, strict=False)
        assert [r["op"] for r in records] == ["synth", "healthz"]
        assert tail is None

    def test_truncated_final_line_strict_raises(self, tmp_path):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        path = self._write(tmp_path, full, full[: len(full) // 2])
        with pytest.raises(SpecificationError, match=":2:"):
            load_access_log(path)

    def test_truncated_final_line_tolerated_and_reported(self, tmp_path):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        partial = full[: len(full) // 2]
        path = self._write(tmp_path, full, full, partial)
        records, tail = load_access_log(path, strict=False)
        assert len(records) == 2
        assert tail["lineno"] == 3
        assert tail["text"] == partial
        assert "JSON" in tail["reason"]

    def test_malformed_middle_line_raises_in_both_modes(self, tmp_path):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        path = self._write(tmp_path, full, "garbage\n", full)
        with pytest.raises(SpecificationError, match=":2:"):
            load_access_log(path)
        with pytest.raises(SpecificationError, match=":2:"):
            load_access_log(path, strict=False)

    def test_final_record_missing_fields_reported(self, tmp_path):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        path = self._write(tmp_path, full, '{"op": "synth"}\n')
        records, tail = load_access_log(path, strict=False)
        assert len(records) == 1
        assert tail["lineno"] == 2
        assert "missing" in tail["reason"]

    def test_trailing_blank_lines_are_not_a_tail(self, tmp_path):
        from repro.io import load_access_log

        path = self._write(
            tmp_path, json.dumps(access_record()) + "\n", "\n\n"
        )
        records, tail = load_access_log(path, strict=False)
        assert len(records) == 1 and tail is None

    def test_truncated_tail_in_rotated_file_tolerated(self, tmp_path):
        """A crash *during rotation* can truncate the final line of a
        non-final rotated file; strict=False must survive it and name
        the file in the tail info instead of failing the whole replay."""
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        partial = full[: len(full) // 2]
        base = tmp_path / "access.ndjson"
        (tmp_path / "access.ndjson.1").write_text(full + full + partial)
        base.write_text(full)
        # Still corruption under strict=True ...
        with pytest.raises(SpecificationError, match=":3:"):
            load_access_log(base, rotated=True)
        # ... but lenient mode keeps every whole record from every file.
        records, tail = load_access_log(base, strict=False, rotated=True)
        assert len(records) == 3
        assert tail["path"].endswith("access.ndjson.1")
        assert tail["lineno"] == 3
        assert tail["text"] == partial
        assert len(tail["truncations"]) == 1

    def test_truncations_in_several_files_all_surfaced(self, tmp_path):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        partial = full[: len(full) // 2]
        base = tmp_path / "access.ndjson"
        (tmp_path / "access.ndjson.1").write_text(full + partial)
        base.write_text(full + partial)
        records, tail = load_access_log(base, strict=False, rotated=True)
        assert len(records) == 2
        # tail describes the most recent truncation (the active file)
        assert tail["path"].endswith("access.ndjson")
        assert [t["path"].endswith(".1") for t in tail["truncations"]] \
            == [True, False]

    def test_mid_file_corruption_in_rotated_file_still_raises(
        self, tmp_path
    ):
        from repro.io import load_access_log

        full = json.dumps(access_record()) + "\n"
        base = tmp_path / "access.ndjson"
        (tmp_path / "access.ndjson.1").write_text(full + "garbage\n" + full)
        base.write_text(full)
        with pytest.raises(SpecificationError, match=":2:"):
            load_access_log(base, strict=False, rotated=True)

    def test_log_is_streamed_not_slurped(self, tmp_path, monkeypatch):
        """The parser must read line by line, never the whole file."""
        from pathlib import Path

        from repro.io import load_access_log

        path = self._write(
            tmp_path, json.dumps(access_record()) + "\n"
        )

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("access log slurped via read_text")

        monkeypatch.setattr(Path, "read_text", boom)
        assert len(load_access_log(path)) == 1
