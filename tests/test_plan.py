"""Unit tests for the precompute resource planner (repro.core.plan)."""

import pytest

from repro.core.dedup import MAX_SHARD_BITS
from repro.errors import InvalidValueError
from repro.core.plan import (
    ResourcePlan,
    available_memory_bytes,
    plan_resources,
    project_rows,
)


class TestProjection:
    def test_paper_closure_sizes_within_table(self):
        # With no store, the paper's exact |A[k]| values are returned.
        assert project_rows(0) == 1
        assert project_rows(5) == 32323
        assert project_rows(7) == 689402

    def test_extrapolation_past_known_levels(self):
        # Levels 8+ grow at the last observed ratio, so the projection
        # is strictly larger than the known bound-7 closure.
        assert project_rows(8) > project_rows(7)
        assert project_rows(9) > project_rows(8)

    def test_store_level_sizes_seed_projection(self):
        # A bound-2 store's exact sizes, extrapolated at ratio 9.
        sizes = (1, 18, 162)
        assert project_rows(2, sizes) == 181
        assert project_rows(3, sizes) == 181 + 1458

    def test_flat_levels_never_shrink(self):
        assert project_rows(4, (10, 5)) >= 15 + 2 * 5

    def test_bound_below_known_levels_truncates(self):
        # A bound-5 store planned at bound 3 counts only |A[3]|, not
        # every stored level.
        sizes = (1, 18, 162, 1017, 5364, 25761)
        assert project_rows(3, sizes) == 1198
        assert project_rows(5, sizes) == 32323

    def test_negative_bound_refused(self):
        with pytest.raises(InvalidValueError, match="non-negative"):
            project_rows(-1)
        with pytest.raises(InvalidValueError, match="non-negative"):
            plan_resources(-1, memory_bytes=1 << 33)


class TestPlanResources:
    def test_shard_bits_follow_slab_size_only(self):
        # Small closures fit one slab; no per-core shard floor applies.
        assert plan_resources(3, memory_bytes=1 << 33).shard_bits == 0
        assert plan_resources(7, memory_bytes=1 << 33).shard_bits == 1

    def test_shard_bits_clamped_to_engine_maximum(self):
        plan = plan_resources(12, memory_bytes=1 << 38)
        assert plan.shard_bits <= MAX_SHARD_BITS

    def test_budget_covers_table_when_ram_allows(self):
        plan = plan_resources(7, memory_bytes=8 << 30)
        assert plan.dedup_budget_bytes == plan.table_bytes
        assert not plan.spills

    def test_tight_ram_halves_budget_and_spills(self):
        plan = plan_resources(7, memory_bytes=32 << 20)
        assert plan.dedup_budget_bytes == (32 << 20) // 2
        assert plan.spills
        assert any("spill" in note for note in plan.notes)

    def test_unknown_ram_budgets_full_table(self):
        plan = plan_resources(5, memory_bytes=None)
        # only possible when detection fails; simulate by calling the
        # sizing path directly with an explicit None
        assert isinstance(plan, ResourcePlan)

    def test_command_round_trips_through_parse_budget(self):
        from repro.core.dedup import parse_budget

        plan = plan_resources(7, memory_bytes=8 << 30)
        assert parse_budget(plan.dedup_budget_text) == (
            plan.dedup_budget_bytes
        )
        assert "--jobs" not in plan.command()
        assert f"--shard-bits {plan.shard_bits}" in plan.command()

    def test_as_dict_is_json_ready(self):
        import json

        plan = plan_resources(7, memory_bytes=8 << 30)
        payload = json.loads(json.dumps(plan.as_dict()))
        assert payload["cost_bound"] == 7
        assert payload["projected_rows"] == 689402

    def test_store_header_seeds_plan(self, library3, tmp_path):
        from repro.core.search import CascadeSearch
        from repro.core.store import read_header, save_search

        search = CascadeSearch(library3, track_parents=True)
        search.extend_to(3)
        path = tmp_path / "seed.rpro"
        save_search(search, path)
        plan = plan_resources(
            5, header=read_header(path), memory_bytes=8 << 30
        )
        assert plan.projected_rows > search.total_seen()
        assert any("bound-3 store" in note for note in plan.notes)

    def test_store_plan_below_its_bound(self, library3, tmp_path, capsys):
        """`repro plan STORE --cost-bound K` under the store's bound
        projects the exact |A[K]| from the recorded levels."""
        from repro.cli import main
        from repro.core.search import CascadeSearch
        from repro.core.store import read_header, save_search

        search = CascadeSearch(library3, track_parents=True)
        search.extend_to(5)
        path = tmp_path / "bound5.rpro"
        save_search(search, path)
        search.close()
        plan = plan_resources(
            3, header=read_header(path), memory_bytes=8 << 30
        )
        assert plan.projected_rows == 1198
        assert main(["plan", str(path), "--cost-bound", "3"]) == 0
        assert "projected closure: 1198 cascades" in capsys.readouterr().out

    def test_cli_refuses_negative_bound(self, capsys):
        """`repro plan --cost-bound -1` fails like `repro precompute`
        does instead of planning a run precompute would refuse."""
        from repro.cli import main

        assert main(["plan", "--cost-bound", "-1"]) == 1
        err = capsys.readouterr().err
        assert "cost bound must be non-negative" in err

    def test_recorded_shard_skew_contributes(self, library3, tmp_path):
        from repro.core.search import CascadeSearch
        from repro.core.store import read_header, save_search

        search = CascadeSearch(library3, track_parents=True)
        search.extend_to(3)
        path = tmp_path / "sharded.rpro"
        save_search(search, path)
        search.close()
        header = read_header(path)
        assert header.shards
        plan = plan_resources(
            5, header=header, memory_bytes=8 << 30
        )
        assert any("skew" in note for note in plan.notes)


class TestAvailableMemory:
    def test_detection_returns_positive_or_none(self):
        detected = available_memory_bytes()
        assert detected is None or detected > 0
