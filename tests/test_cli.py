"""Unit tests for the command-line interface (repro.cli)."""

import argparse
import socket

import pytest

from legacy_v1 import write_v1
from repro.cli import _build_parser, main
from repro.core.search import CascadeSearch
from repro.gates.library import GateLibrary


def _legacy_v1_store(path, cost_bound):
    """A v1 store of the paper's 3-qubit closure (the CLI only reads v1)."""
    search = CascadeSearch(GateLibrary(3))
    search.extend_to(cost_bound)
    return write_v1(search, path)


class TestTable1:
    def test_prints_permutation(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "(3,7,4,8)" in out
        assert "V0" in out


class TestTable2:
    def test_small_bound(self, capsys):
        assert main(["table2", "--cost-bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "|G[k]|" in out
        assert "24" in out

    def test_paper_pseudocode_flag(self, capsys):
        assert main(["table2", "--cost-bound", "3", "--paper-pseudocode"]) == 0
        out = capsys.readouterr().out
        assert "52" in out


class TestSynth:
    def test_named_target(self, capsys):
        assert main(["synth", "peres"]) == 0
        out = capsys.readouterr().out
        assert "cost 4" in out
        assert "verified" in out

    def test_cycle_notation_target(self, capsys):
        assert main(["synth", "(7,8)", "--cost-bound", "5"]) == 0
        out = capsys.readouterr().out
        assert "cost 5" in out

    def test_all_flag(self, capsys):
        assert main(["synth", "peres", "--all"]) == 0
        out = capsys.readouterr().out
        assert "2 implementation(s)" in out

    def test_bad_target_is_clean_error(self, capsys):
        assert main(["synth", "notagate"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_cost_bound_exceeded_is_clean_error(self, capsys):
        assert main(["synth", "toffoli", "--cost-bound", "3"]) == 1
        err = capsys.readouterr().err
        assert "cost" in err


class TestStoreWorkflow:
    """The precompute-then-serve loop: precompute / store-info / synth / table2."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("store") / "closure.rpro")
        assert main(["precompute", path, "--cost-bound", "5"]) == 0
        return path

    def test_precompute_reports_closure(self, store_path, capsys):
        assert main(["store-info", store_path]) == 0
        out = capsys.readouterr().out
        assert "cost bound 5" in out
        assert "32323 cascades" in out
        assert "parents tracked" in out

    def test_synth_from_store(self, store_path, capsys):
        assert main(["synth", "toffoli", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "no re-expansion" in out
        assert "cost 5" in out and "verified" in out

    def test_synth_all_from_store(self, store_path, capsys):
        assert main(["synth", "peres", "--all", "--store", store_path]) == 0
        assert "2 implementation(s)" in capsys.readouterr().out

    def test_batch_from_store(self, store_path, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("toffoli\nperes  # a comment\n\n(7,8)\n")
        save = tmp_path / "results.json"
        assert main([
            "synth", "--store", store_path,
            "--batch", str(targets), "--save", str(save),
        ]) == 0
        out = capsys.readouterr().out
        assert "3/3 synthesized" in out
        from repro.io import load_batch_results

        assert len(load_batch_results(save)) == 3

    def test_batch_reports_out_of_bound_targets(self, store_path, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("(1,5,3)(2,7,8)(4,6)\ntoffoli\n")
        assert main(["synth", "--store", store_path, "--batch", str(targets)]) == 1
        out = capsys.readouterr().out
        assert "no realization" in out
        assert "1/2 synthesized" in out

    def test_failed_verification_exits_nonzero(
        self, store_path, capsys, monkeypatch
    ):
        """An answer that prints "-> FAILED" must not exit 0."""
        import dataclasses

        from repro.core.batch import BatchSynthesizer
        from repro.gates import named

        synthesize = BatchSynthesizer.synthesize

        def peres_circuit_for(self, target, **kwargs):
            result = synthesize(self, named.TARGETS["peres"], **kwargs)
            return dataclasses.replace(result, target=target)

        monkeypatch.setattr(BatchSynthesizer, "synthesize", peres_circuit_for)
        assert main(["synth", "toffoli", "--store", store_path]) == 1
        assert "-> FAILED" in capsys.readouterr().out

    def test_table2_from_store(self, store_path, capsys):
        assert main(["table2", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "|G[k]|" in out
        assert "precomputed" in out

    @pytest.mark.parametrize(
        "flags, g_row",
        [
            (["--cost-bound", "5"], "1 6 24 51 84 156"),
            (["--cost-bound", "4", "--paper-pseudocode"], "1 6 24 52 84"),
        ],
        ids=["plain", "paper-pseudocode"],
    )
    def test_table2_store_matches_live(self, store_path, capsys, flags, g_row):
        def table_rows(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            # The closure line names the source and its timing.
            return [
                line for line in out.splitlines()
                if not line.startswith("closure:")
            ]

        live = table_rows(["table2", *flags])
        assert table_rows(["table2", "--store", store_path, *flags]) == live
        assert f"|G[k]| {g_row}" in [" ".join(line.split()) for line in live]

    def test_store_respects_explicit_cost_bound(self, store_path, capsys):
        # toffoli costs 5; a bound-1 query against a bound-5 store must
        # refuse, exactly like the live search would.
        assert main([
            "synth", "toffoli", "--store", store_path, "--cost-bound", "1",
        ]) == 1
        assert "cost <= 1" in capsys.readouterr().err

    def test_store_refuses_bound_beyond_its_own(self, store_path, capsys):
        assert main([
            "synth", "toffoli", "--store", store_path, "--cost-bound", "9",
        ]) == 1
        err = capsys.readouterr().err
        assert "only covers cost <= 5" in err and "precompute" in err
        assert main([
            "table2", "--store", store_path, "--cost-bound", "9",
        ]) == 1
        assert "only covers cost <= 5" in capsys.readouterr().err

    def test_four_qubit_store_single_target(self, capsys, tmp_path):
        path = str(tmp_path / "closure4.rpro")
        assert main([
            "precompute", path, "--qubits", "4", "--cost-bound", "2",
        ]) == 0
        capsys.readouterr()
        # F_DC on 4 wires: degree-16 cycle spec, resolvable only if the
        # store's own library (not the 3-qubit default) parses targets.
        assert main([
            "synth", "(3,4)(7,8)(11,12)(15,16)", "--store", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "minimal quantum cost 1" in out and "verified" in out

    def test_synth_requires_target_or_batch(self, capsys):
        assert main(["synth"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_corrupt_store_is_clean_error(self, store_path, capsys, tmp_path):
        from pathlib import Path

        corrupt = tmp_path / "corrupt.rpro"
        data = bytearray(Path(store_path).read_bytes())
        data[-1] ^= 0xFF
        corrupt.write_bytes(bytes(data))
        assert main(["synth", "toffoli", "--store", str(corrupt)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStoreMaintenance:
    """The `repro store ...` group and `precompute --extend`."""

    @pytest.fixture(scope="class")
    def v2_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("maint") / "closure.rpro")
        assert main(["precompute", path, "--cost-bound", "4"]) == 0
        return path

    def test_store_info_reports_v2_layout(self, v2_path, capsys):
        assert main(["store", "info", v2_path]) == 0
        out = capsys.readouterr().out
        assert "format 2" in out
        assert "memory-mapped" in out
        assert "remainder index" in out

    def test_store_verify_passes(self, v2_path, capsys):
        assert main(["store", "verify", v2_path]) == 0
        assert "sha256 verified" in capsys.readouterr().out

    def test_store_verify_catches_corruption(self, v2_path, capsys, tmp_path):
        from pathlib import Path

        data = bytearray(Path(v2_path).read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.rpro"
        bad.write_bytes(bytes(data))
        assert main(["store", "verify", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_extend_deepens_an_existing_store(self, v2_path, capsys):
        assert main([
            "precompute", v2_path, "--extend", "--cost-bound", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "extending" in out and "from cost 4 to 5" in out
        assert main(["store", "info", v2_path]) == 0
        assert "cost bound 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [[], ["--no-parents"]], ids=["parents", "no-parents"]
    )
    def test_extend_writes_a_fresh_precomputes_bytes(
        self, flags, capsys, tmp_path
    ):
        """Replaying a cost-4 store into the engine and extending it to
        5 stores the payload and index of a fresh cost-5 precompute."""
        from repro.core.store import read_header

        extended = str(tmp_path / "extended.rpro")
        fresh = str(tmp_path / "fresh.rpro")
        assert main(["precompute", extended, "--cost-bound", "4", *flags]) == 0
        assert main([
            "precompute", extended, "--extend", "--cost-bound", "5", *flags,
        ]) == 0
        assert main(["precompute", fresh, "--cost-bound", "5", *flags]) == 0
        capsys.readouterr()
        ours, theirs = read_header(extended), read_header(fresh)
        assert ours.expanded_to == theirs.expanded_to == 5
        assert ours.payload_sha256 == theirs.payload_sha256
        assert ours.index_sha256 == theirs.index_sha256

    def test_extend_refuses_mismatched_flags(self, v2_path, capsys):
        assert main([
            "precompute", v2_path, "--extend", "--cost-bound", "5",
            "--cnot-cost", "2",
        ]) == 1
        assert "refusing to extend" in capsys.readouterr().err

    def test_migrate_v1_store(self, capsys, tmp_path):
        old = str(_legacy_v1_store(tmp_path / "old.rpro", 3))
        new = str(tmp_path / "new.rpro")
        assert main(["store", "migrate", old, new]) == 0
        out = capsys.readouterr().out
        assert "(format 1)" in out and "format 2" in out
        assert main(["synth", "swap_ab", "--store", new]) == 0
        assert "cost 3" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", [["precompute", "x.rpro"],
                                      ["store", "migrate", "a", "b"]])
    def test_format_version_1_is_not_writable(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--format-version", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_extend_at_or_below_bound_is_a_noop(self, v2_path, capsys):
        assert main([
            "precompute", v2_path, "--extend", "--cost-bound", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "nothing to extend" in out
        assert "extended" not in out

    def test_extend_refuses_no_parents_on_parent_store(
        self, v2_path, capsys
    ):
        assert main([
            "precompute", v2_path, "--extend", "--cost-bound", "5",
            "--no-parents",
        ]) == 1
        assert "counting-only" in capsys.readouterr().err

    def test_extend_counting_only_store_needs_explicit_flag(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "np.rpro")
        assert main([
            "precompute", path, "--cost-bound", "3", "--no-parents",
        ]) == 0
        capsys.readouterr()
        assert main(["precompute", path, "--extend", "--cost-bound", "4"]) == 1
        assert "counting-only" in capsys.readouterr().err
        assert main([
            "precompute", path, "--extend", "--cost-bound", "4",
            "--no-parents",
        ]) == 0


#: `store info` / `store shards` output for a 3-qubit cost-4 store, as
#: printed before the layout moved onto the store's span table (the
#: path, the expansion time and v3's zlib-dependent stored sizes are
#: filled in per run).
_INFO_HEAD = """\
{path}: closure store, format {version}
  library: 3 qubits, 38 labels (reduced=True, ordering=value), kinds V/VDAG/CNOT
  library fingerprint: 2752c6945708ba39b6a34e23554f2b232e832f7e0e252bdac7bfec3a9a516d82
  cost model: V=1 V+=1 CNOT=1 NOT=0 (free)
  written by: repro {repro_version} (vector kernel)
  closure: cost bound 4, 6562 cascades, parents tracked
  levels |B[k]|: [1, 18, 162, 1017, 5364]
  expansion time: {elapsed}
"""
_INFO_TAIL = """\
  remainder index: 166 reversible functions, 285 minimal-cost witnesses (serialized; no closure scan on open)
  dedup shards: 64 x 1024 slots, max 128 rows/shard (in-RAM; `repro store shards` for the full layout)
"""
_INFO_LAYOUT = {
    2: """\
  layout: memory-mapped v2 (8-aligned sections, O(queries touched) open)
  sections: perms@0+249356, masks@249360+52496, parents@301856+26248, gates@328104+26248, rkeys@354352+1328, rcosts@355680+664, rindptr@356344+1336, rmatches@357680+1140
""",
    3: """\
  layout: chunk-compressed v3 (zlib codec, decompress-on-touch)
  chunks: 24 spans over 8 sections, {stored_mb} MB compressed / 0.4 MB raw ({ratio})
""",
}
_SHARDS_LEVELS = """\
{path}: closure store, format {version}
level  first row  rows
-----  ---------  ----
0      0          1   
1      1          18  
2      19         162 
3      181        1017
4      1198       5364
"""
_SHARDS_SECTIONS = {
    2: """\
section   offset  bytes 
--------  ------  ------
perms     0       249356
masks     249360  52496 
parents   301856  26248 
gates     328104  26248 
rkeys     354352  1328  
rcosts    355680  664   
rindptr   356344  1336  
rmatches  357680  1140  
""",
    3: """\
section   chunks  stored bytes  raw bytes
--------  ------  ------------  ---------
perms     5       {perms:<12}  249356   
masks     5       {masks:<12}  52496    
parents   5       {parents:<12}  26248    
gates     5       {gates:<12}  26248    
rkeys     1       {rkeys:<12}  1328     
rcosts    1       {rcosts:<12}  664      
rindptr   1       {rindptr:<12}  1336     
rmatches  1       {rmatches:<12}  1140     
""",
}
_SHARDS_TAIL = """\
dedup shards (recorded by the vector engine): 64 shards, 1024 slots each
  rows/shard: min 79, max 128, total 6562
  table bytes at load<=1/4: 524288 (--dedup-budget below this spills to disk)
"""


class TestStoreLayoutOutput:
    """`store info` and `store shards` print a v2 and a v3 store's
    layout exactly as they did when each read its own header fields."""

    @pytest.fixture(scope="class", params=[2, 3], ids=["v2", "v3"])
    def store(self, request, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("layout") / "closure.rpro")
        args = ["precompute", path, "--cost-bound", "4"]
        if request.param == 3:
            args += ["--format-version", "3", "--codec", "zlib"]
        assert main(args) == 0
        return path, request.param

    def _fields(self, path, version):
        import repro
        from repro.io import read_header

        header = read_header(path)
        fields = {
            "path": path,
            "version": version,
            "repro_version": repro.__version__,
            "elapsed": f"{header.elapsed_seconds:.2f}s",
        }
        if version == 3:
            stored = {
                name: sum(s for (_, s, _) in spans)
                for name, spans in header.chunks.items()
            }
            total = sum(stored.values())
            raw = sum(r for spans in header.chunks.values() for *_, r in spans)
            fields.update(stored)
            fields["stored_mb"] = f"{total / 1e6:.1f}"
            fields["ratio"] = f"{total / raw:.2f}x"
        return fields

    def test_store_info(self, store, capsys):
        path, version = store
        capsys.readouterr()
        assert main(["store", "info", path]) == 0
        expected = _INFO_HEAD + _INFO_LAYOUT[version] + _INFO_TAIL
        out = capsys.readouterr().out
        assert out == expected.format(**self._fields(path, version))

    def test_store_shards(self, store, capsys):
        path, version = store
        capsys.readouterr()
        assert main(["store", "shards", path]) == 0
        expected = _SHARDS_LEVELS + _SHARDS_SECTIONS[version] + _SHARDS_TAIL
        out = capsys.readouterr().out
        assert out == expected.format(**self._fields(path, version))


class TestOtherCommands:
    def test_banned_sets(self, capsys):
        assert main(["banned-sets"]) == 0
        out = capsys.readouterr().out
        assert "N_A" in out and "F_CB" in out

    def test_peres_family(self, capsys):
        assert main(["peres-family"]) == 0
        out = capsys.readouterr().out
        assert "60" in out and "24" in out
        assert "g1" in out

    def test_verify_gates(self, capsys):
        assert main(["verify-gates"]) == 0
        out = capsys.readouterr().out
        assert "372" in out

    def test_rng(self, capsys):
        assert main(["rng", "--bits", "16", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "16 quantum-random bits" in out

    # Rebuilds the complete optimal-NCT table (40320 functions): `slow`
    # tier (marker convention in tests/conftest.py).
    @pytest.mark.slow
    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "peres" in out and "saving" in out

    def test_identities(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out
        assert "cnot-emulation" in out
        assert "48 commuting pairs" in out

    def test_save_and_load_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "peres.json")
        assert main(["synth", "peres", "--save", path]) == 0
        capsys.readouterr()
        assert main(["load", path]) == 0
        out = capsys.readouterr().out
        assert "(5,7,6,8)" in out and "re-verified" in out

    def test_load_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["load", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_load_tampered_file_is_clean_error(self, capsys, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n_qubits": 3,
            "gates": ["F_BA"],
            "target": "(7,8)",
            "cost": 1,
        }))
        assert main(["load", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_synth_reports_depth(self, capsys):
        assert main(["synth", "peres"]) == 0
        assert "depth 4" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestParallelPrecompute:
    """`repro precompute --dedup-budget/--shard-bits/...` and `repro store
    shards`."""

    @pytest.fixture(scope="class")
    def parallel_store(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("par") / "closure.rpro")
        assert main([
            "precompute", path, "--cost-bound", "4", "--shard-bits", "4",
            "--dedup-budget", "0",
        ]) == 0
        return path

    def test_parallel_precompute_reports_shards(
        self, parallel_store, capsys
    ):
        assert main(["store", "info", parallel_store]) == 0
        out = capsys.readouterr().out
        assert "dedup shards: 16 x" in out

    def test_parallel_store_verifies_and_serves(
        self, parallel_store, capsys
    ):
        assert main(["store", "verify", parallel_store]) == 0
        capsys.readouterr()
        assert main(["synth", "peres", "--store", parallel_store]) == 0
        assert "cost 4" in capsys.readouterr().out

    def test_store_shards_recorded_layout(self, parallel_store, capsys):
        assert main(["store", "shards", parallel_store]) == 0
        out = capsys.readouterr().out
        assert "recorded by the vector engine" in out
        assert "level" in out and "perms" in out
        assert "total 6562" in out

    def test_store_shards_projected_layout(self, capsys, tmp_path):
        # The reference oracle has no dedup table, so a store saved from
        # it records no layout and `store shards` projects one.
        from reference_closure import reference_search
        from repro.gates.library import GateLibrary
        from repro.io import save_search

        path = str(tmp_path / "seq.rpro")
        save_search(reference_search(GateLibrary(3), 3), path)
        assert main(["store", "shards", path]) == 0
        assert "no recorded shard layout" in capsys.readouterr().out
        assert main(["store", "shards", path, "--bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "projected from the stored rows at --bits 3" in out
        assert "total 1198" in out

    def test_store_shards_v1_needs_migration(self, capsys, tmp_path):
        path = str(_legacy_v1_store(tmp_path / "v1.rpro", 2))
        assert main(["store", "shards", path, "--bits", "2"]) == 0
        assert "legacy v1 store" in capsys.readouterr().out

    def test_engine_flags_use_vector_kernel(self, capsys, tmp_path):
        path = str(tmp_path / "imp.rpro")
        assert main([
            "precompute", path, "--cost-bound", "3", "--dedup-budget", "64M",
        ]) == 0
        out = capsys.readouterr().out
        assert "dedup table:" in out and "[1, 18, 162, 1017]" in out
        from repro.io import read_header

        assert read_header(path).kernel == "vector"

    def test_default_precompute_reports_dedup_table(self, capsys, tmp_path):
        path = str(tmp_path / "default.rpro")
        assert main(["precompute", path, "--cost-bound", "3"]) == 0
        out = capsys.readouterr().out
        assert "dedup table: 64 shards x" in out and "jobs" not in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, capsys, tmp_path, jobs):
        """The worker-pool flag is gone: argparse refuses ``--jobs`` on
        both verbs that used to take it, whatever its value."""
        path = tmp_path / "jobs.rpro"
        for argv in (
            ["precompute", str(path), "--cost-bound", "3", "--jobs", jobs],
            ["plan", "--cost-bound", "3", "--jobs", jobs],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--jobs" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("kernel", ["parallel", "translate"])
    def test_parallel_kernel_name_is_gone(self, capsys, tmp_path, kernel):
        """``--kernel`` went with the last alternative kernel: argparse
        refuses the flag, whatever it names, and writes nothing."""
        path = tmp_path / "p.rpro"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "precompute", str(path), "--cost-bound", "3",
                "--kernel", kernel,
            ])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err
        assert not path.exists()

    def test_budget_spill_reported(self, capsys, tmp_path):
        path = str(tmp_path / "spill.rpro")
        assert main([
            "precompute", path, "--cost-bound", "4", "--shard-bits", "3",
            "--dedup-budget", "16K",
        ]) == 0
        out = capsys.readouterr().out
        assert "disk-backed" in out

    def test_checkpoint_resume_via_cli(self, capsys, tmp_path):
        store = str(tmp_path / "ck.rpro")
        ckdir = str(tmp_path / "ckpt")
        assert main([
            "precompute", store, "--cost-bound", "3",
            "--checkpoint-dir", ckdir,
        ]) == 0
        capsys.readouterr()
        deeper = str(tmp_path / "ck2.rpro")
        assert main([
            "precompute", deeper, "--cost-bound", "4",
            "--checkpoint-dir", ckdir,
        ]) == 0
        out = capsys.readouterr().out
        assert f"resumed checkpoint {ckdir} at cost 3" in out
        assert "[1, 18, 162, 1017, 5364]" in out
        assert main(["store", "verify", deeper]) == 0

    def test_parallel_extend(self, capsys, tmp_path):
        path = str(tmp_path / "pe.rpro")
        assert main(["precompute", path, "--cost-bound", "3"]) == 0
        capsys.readouterr()
        assert main([
            "precompute", path, "--extend", "--cost-bound", "4",
            "--shard-bits", "3", "--dedup-budget", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "(vector kernel)" in out
        assert "[1, 18, 162, 1017, 5364]" in out


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("argv", [
    ["store", "info", "{missing}"],
    ["store", "verify", "{missing}"],
    ["synth", "toffoli", "--store", "{missing}"],
    ["synth", "--batch", "{missing}"],
    ["plan", "{missing}"],
    ["serve", "{missing}", "--port", "0"],
    ["replay", "{missing}", "--server", "127.0.0.1:1"],
    ["precompute", "{missing}/out.rpro", "--cost-bound", "1"],
    ["synth", "toffoli", "--server", "127.0.0.1:{closed_port}"],
], ids=[
    "store-info", "store-verify", "synth-store", "synth-batch", "plan",
    "serve", "replay", "precompute-dir", "synth-server",
])
def test_os_errors_are_clean_errors(argv, capsys, tmp_path):
    """A missing file, directory or server is one `error:` line, exit 1."""
    fill = {"missing": tmp_path / "missing", "closed_port": _closed_port()}
    assert main([arg.format(**fill) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("parent", ["missing", "a-file"])
def test_precompute_checks_out_dir_before_expanding(
    parent, capsys, tmp_path, monkeypatch
):
    (tmp_path / "a-file").write_text("")

    def no_expansion(self, *args, **kwargs):
        raise AssertionError("expanded before checking the output dir")

    monkeypatch.setattr(CascadeSearch, "extend_to", no_expansion)
    out = tmp_path / parent / "x.rpro"
    assert main(["precompute", str(out), "--cost-bound", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_negative_retries_is_a_clean_error(capsys, tmp_path):
    log = tmp_path / "access.ndjson"
    log.write_text("")
    argv = ["replay", str(log), "--server", "127.0.0.1:1", "--retries", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: retries must be >= 0\n"


#: Every leaf verb's arguments: option strings (or a positional's
#: dest), then ``=default`` unless None, then ``{choices}`` if any.
SURFACE = {
    "table1": "",
    "table2": "--cost-bound --paper-pseudocode=False --store",
    "synth": (
        "target --all=False --cost-bound --save --store --batch "
        "--server --store-alias"
    ),
    "serve": (
        "stores --store-dir --host='127.0.0.1' --port --unix "
        "--no-tcp=False --cost-bound --fault-seed=0 --access-log "
        "--access-log-max-bytes --access-log-keep --drain-timeout "
        "--fault"
    ),
    "fleet serve": (
        "stores --store-dir --host='127.0.0.1' --port --unix "
        "--no-tcp=False --cost-bound --fault-seed=0 --replicas=2 "
        "--run-dir --ops-log --retries --attempt-timeout "
        "--max-inflight --min-healthy --restart-budget --fault"
    ),
    "fleet status": "address --json=False",
    "precompute": (
        "--format-version{2,3} --codec{auto,zstd,zlib,raw} out "
        "--cost-bound=7 --qubits=3 --radix=2{2,3,4} "
        "--no-parents=False --v-cost=1 --vdag-cost=1 --cnot-cost=1 "
        "--extend=False --dedup-budget --shard-bits --checkpoint-dir "
        "--progress=False --progress-log"
    ),
    "store-info": "file",
    "store info": "file",
    "store shards": "file --bits",
    "store verify": "file",
    "store migrate": (
        "--format-version{2,3} --codec{auto,zstd,zlib,raw} src dst"
    ),
    "plan": "store --cost-bound=7 --memory --json=False",
    "load": (
        "file --server --seed --requests --concurrency --timing=False "
        "--retries=0 --dry-run=False --json --no-slo=False"
    ),
    "replay": (
        "log --server --golden --no-rotated=False --strict=False "
        "--timing=False --speed=1.0 --limit --retries=0 --json"
    ),
    "tail": (
        "logs --trace --json=False --follow=False --interval=2.0 "
        "--no-rotated=False"
    ),
    "identities": "",
    "peres-family": "",
    "banned-sets": "",
    "compare": "",
    "verify-gates": "",
    "rng": "--bits=32 --seed",
}


def _surface(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _surface(child, path + (name,))
            return
    tokens = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        token = "/".join(action.option_strings) or action.dest
        if action.default is not None:
            token += f"={action.default!r}"
        if action.choices is not None:
            token += "{" + ",".join(map(str, action.choices)) + "}"
        tokens.append(token)
    yield " ".join(path), tokens


def test_parser_surface_is_pinned():
    """No verb gains, loses or re-defaults a flag unnoticed (help text
    is free to change)."""
    surface = {
        verb: sorted(tokens) for verb, tokens in _surface(_build_parser())
    }
    assert surface == {
        verb: sorted(spec.split()) for verb, spec in SURFACE.items()
    }
