"""Unit tests for the precompute resource planner (repro.core.plan)."""

import pytest

from repro.core.dedup import MAX_SHARD_BITS
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


class TestPlanResources:
    def test_leaves_one_core_for_the_coordinator(self):
        assert plan_resources(5, cpus=8, memory_bytes=1 << 33).jobs == 7
        assert plan_resources(5, cpus=2, memory_bytes=1 << 33).jobs == 2
        assert plan_resources(5, cpus=1, memory_bytes=1 << 33).jobs == 1

    def test_explicit_jobs_override(self):
        assert plan_resources(5, cpus=8, jobs=3,
                              memory_bytes=1 << 33).jobs == 3

    def test_enough_shards_for_the_jobs(self):
        plan = plan_resources(7, cpus=8, memory_bytes=1 << 33)
        assert (1 << plan.shard_bits) >= plan.jobs

    def test_shard_bits_clamped_to_engine_maximum(self):
        plan = plan_resources(12, cpus=64, memory_bytes=1 << 38)
        assert plan.shard_bits <= MAX_SHARD_BITS

    def test_budget_covers_table_when_ram_allows(self):
        plan = plan_resources(7, cpus=4, memory_bytes=8 << 30)
        assert plan.dedup_budget_bytes == plan.table_bytes
        assert not plan.spills

    def test_tight_ram_halves_budget_and_spills(self):
        plan = plan_resources(7, cpus=4, memory_bytes=32 << 20)
        assert plan.dedup_budget_bytes == (32 << 20) // 2
        assert plan.spills
        assert any("spill" in note for note in plan.notes)

    def test_unknown_ram_budgets_full_table(self):
        plan = plan_resources(5, cpus=4, memory_bytes=None)
        # only possible when detection fails; simulate by calling the
        # sizing path directly with an explicit None
        assert isinstance(plan, ResourcePlan)

    def test_command_round_trips_through_parse_budget(self):
        from repro.core.dedup import parse_budget

        plan = plan_resources(7, cpus=8, memory_bytes=8 << 30)
        assert parse_budget(plan.dedup_budget_text) == (
            plan.dedup_budget_bytes
        )
        assert f"--jobs {plan.jobs}" in plan.command()
        assert f"--shard-bits {plan.shard_bits}" in plan.command()

    def test_as_dict_is_json_ready(self):
        import json

        plan = plan_resources(7, cpus=8, memory_bytes=8 << 30)
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
            5, header=read_header(path), cpus=4, memory_bytes=8 << 30
        )
        assert plan.projected_rows > search.total_seen()
        assert any("bound-3 store" in note for note in plan.notes)

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
            5, header=header, cpus=4, memory_bytes=8 << 30
        )
        assert any("skew" in note for note in plan.notes)


class TestAvailableMemory:
    def test_detection_returns_positive_or_none(self):
        detected = available_memory_bytes()
        assert detected is None or detected > 0
