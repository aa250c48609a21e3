"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from legacy_v1 import write_v1
from repro.cli import main
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

    def test_table2_from_store(self, store_path, capsys):
        assert main(["table2", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "|G[k]|" in out
        assert "precomputed" in out

    def test_table2_store_rejects_paper_pseudocode(self, store_path, capsys):
        code = main(["table2", "--store", store_path, "--paper-pseudocode"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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

    def test_translate_kernel_precompute_matches(self, capsys, tmp_path):
        path = str(tmp_path / "tk.rpro")
        assert main([
            "precompute", path, "--cost-bound", "3", "--kernel", "translate",
        ]) == 0
        out = capsys.readouterr().out
        assert "[1, 18, 162, 1017]" in out

    def test_extend_honors_kernel_flag(self, capsys, tmp_path):
        path = str(tmp_path / "ek.rpro")
        assert main(["precompute", path, "--cost-bound", "3"]) == 0
        capsys.readouterr()
        assert main([
            "precompute", path, "--extend", "--cost-bound", "4",
            "--kernel", "translate",
        ]) == 0
        out = capsys.readouterr().out
        assert "(translate kernel)" in out
        assert "[1, 18, 162, 1017, 5364]" in out

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
        with pytest.raises(FileNotFoundError):
            main(["load", str(tmp_path / "nope.json")])

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
    """`repro precompute --jobs/--dedup-budget/...` and `repro store shards`."""

    @pytest.fixture(scope="class")
    def parallel_store(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("par") / "closure.rpro")
        assert main([
            "precompute", path, "--cost-bound", "4", "--jobs", "2",
            "--shard-bits", "4",
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
        # The translate kernel has no dedup table, so its store records
        # no layout and `store shards` projects one.
        path = str(tmp_path / "seq.rpro")
        assert main([
            "precompute", path, "--cost-bound", "3", "--kernel", "translate",
        ]) == 0
        capsys.readouterr()
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
        assert "dedup table: 64 shards x" in out and "jobs 1" in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, capsys, tmp_path, jobs):
        path = tmp_path / "jobs.rpro"
        assert main([
            "precompute", str(path), "--cost-bound", "3", "--jobs", jobs,
        ]) == 1
        assert "jobs must be a positive integer" in capsys.readouterr().err
        assert not path.exists()

    def test_parallel_kernel_name_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "precompute", str(tmp_path / "p.rpro"), "--cost-bound", "3",
                "--kernel", "parallel",
            ])

    def test_parallel_flags_refuse_other_kernels(self, capsys, tmp_path):
        path = str(tmp_path / "bad.rpro")
        assert main([
            "precompute", path, "--cost-bound", "3", "--jobs", "2",
            "--kernel", "translate",
        ]) == 1
        assert "vector-kernel options" in capsys.readouterr().err

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
            "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "(vector kernel)" in out
        assert "[1, 18, 162, 1017, 5364]" in out
