"""Scenario engine tests: specs, seeded streams, runs, replay, chaos.

Pins the subsystem's three contracts:

* **Stream determinism** -- one seed, one stream: op sequence, targets
  and store selectors are identical across runs (and across the CLI's
  ``repro load --dry-run``), with a golden prefix pinned so drift in
  the RNG consumption order is caught, not just nondeterminism.
* **Replay fidelity** -- an access log recorded from a golden run
  replays with zero outcome mismatches and zero result-byte diffs
  against the same store, including across a rotated log set.
* **Chaos invisibility** -- a scenario driven at a fleet whose
  preferred replica crashes mid-run finishes with zero client-visible
  errors.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.client import ServeClient
from repro.errors import ProtocolError, SpecificationError
from repro.fleet.manager import BackgroundFleet
from repro.fleet.router import HashRing
from repro.fleet.supervisor import GuardRails
from repro.gates.library import GateLibrary
from repro.io import rotated_access_logs
from repro import scenario
from repro.server import BackgroundServer

BOUND = 4
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
CHECKED_IN = (
    "steady_interactive", "bursty_batch", "hotkey_skew",
    "mixed_multistore", "pathological_cost_bounds",
)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(BOUND)
    save_search(search, path)
    return str(path)


@pytest.fixture(scope="module")
def steady():
    return scenario.load_scenario(SCENARIO_DIR / "steady_interactive.toml")


class TestCheckedInSpecs:
    @pytest.mark.parametrize("name", CHECKED_IN)
    def test_parses_and_name_matches_filename(self, name):
        spec = scenario.load_scenario(SCENARIO_DIR / f"{name}.toml")
        assert spec.name == name
        assert spec.requests >= 1
        # Every spec carries SLO bars (the point of the library).
        assert spec.slo.max_error_rate is not None \
            or spec.slo.p99_ms is not None

    def test_at_least_three_shapes_for_bench(self):
        assert len(CHECKED_IN) >= 3

    def test_json_specs_load_too(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({
            "name": "mini", "requests": 3, "targets": ["peres"],
        }))
        spec = scenario.load_scenario(path)
        assert spec.name == "mini" and spec.ops == (("synth", 1.0),)


class TestSpecValidation:
    def _base(self, **overrides):
        data = {"name": "x", "targets": ["peres"]}
        data.update(overrides)
        return data

    def test_unknown_top_level_field(self):
        with pytest.raises(SpecificationError, match="unknown scenario"):
            scenario.parse_scenario(self._base(rps=10))

    def test_unknown_op(self):
        with pytest.raises(SpecificationError, match="unknown op"):
            scenario.parse_scenario(self._base(ops={"synthh": 1}))

    def test_negative_weight(self):
        with pytest.raises(SpecificationError, match=">= 0"):
            scenario.parse_scenario(self._base(ops={"synth": -1}))

    def test_all_zero_weights(self):
        with pytest.raises(SpecificationError, match="all be zero"):
            scenario.parse_scenario(self._base(ops={"synth": 0}))

    def test_bad_arrival_shape(self):
        with pytest.raises(SpecificationError, match="arrival.shape"):
            scenario.parse_scenario(
                self._base(arrival={"shape": "poisson"})
            )

    def test_steady_needs_positive_rate(self):
        with pytest.raises(SpecificationError, match="rate"):
            scenario.parse_scenario(
                self._base(arrival={"shape": "steady", "rate": 0})
            )

    def test_bad_target_named(self):
        with pytest.raises(SpecificationError, match="bad target"):
            scenario.parse_scenario(self._base(targets=["not-a-perm"]))

    def test_synth_without_targets(self):
        with pytest.raises(SpecificationError, match="targets"):
            scenario.parse_scenario({"name": "x", "ops": {"synth": 1}})

    def test_healthz_only_needs_no_targets(self):
        spec = scenario.parse_scenario(
            {"name": "x", "ops": {"healthz": 1}}
        )
        assert spec.targets == ()

    def test_slo_rate_above_one(self):
        with pytest.raises(SpecificationError, match="<= 1"):
            scenario.parse_scenario(
                self._base(slo={"max_error_rate": 1.5})
            )

    def test_non_table_spec(self):
        with pytest.raises(SpecificationError, match="must be a table"):
            scenario.parse_scenario([1, 2, 3])

    def test_bool_is_not_a_count(self):
        with pytest.raises(SpecificationError, match="integer"):
            scenario.parse_scenario(self._base(requests=True))

    def test_find_scenario_unknown_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SpecificationError, match="no such scenario"):
            scenario.find_scenario("nonexistent")

    def test_find_scenario_by_library_name(self, monkeypatch):
        monkeypatch.chdir(SCENARIO_DIR.parent)
        spec = scenario.find_scenario("steady_interactive")
        assert spec.name == "steady_interactive"

    def test_bad_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x\n")
        with pytest.raises(SpecificationError, match=".toml or .json"):
            scenario.load_scenario(path)


class TestStreamDeterminism:
    def test_same_seed_same_stream(self, steady):
        assert scenario.generate(steady, seed=7) \
            == scenario.generate(steady, seed=7)

    def test_different_seed_different_stream(self, steady):
        first = scenario.generate(steady, seed=7)
        second = scenario.generate(steady, seed=8)
        assert [r.params for r in first] != [r.params for r in second]

    def test_golden_prefix_pinned(self, steady):
        """The exact head of the steady stream at seed 7: catches any
        change to RNG consumption order, not just nondeterminism."""
        plan = scenario.generate(steady, seed=7, requests=4)
        assert [(r.op, r.params.get("target")) for r in plan] == [
            ("synth", "g2"), ("synth", "peres"),
            ("synth", "cnot_ba"), ("synth", "cnot_cb"),
        ]
        assert [r.at_s for r in plan] == [0.0, 0.0025, 0.005, 0.0075]

    def test_bursty_offsets(self):
        spec = scenario.load_scenario(SCENARIO_DIR / "bursty_batch.toml")
        plan = scenario.generate(spec, requests=26)
        offsets = sorted({r.at_s for r in plan})
        assert offsets == [0.0, 0.1, 0.2]
        assert all(
            r.at_s == (r.index // spec.arrival.burst) * spec.arrival.pause
            for r in plan
        )

    def test_hotkey_skew_weights_stores(self):
        spec = scenario.load_scenario(SCENARIO_DIR / "hotkey_skew.toml")
        plan = scenario.generate(spec)
        stores = [r.store for r in plan]
        assert set(stores) == {"deep", "shallow"}
        assert stores.count("deep") > 2 * stores.count("shallow")

    def test_batch_requests_carry_batch_size_targets(self):
        spec = scenario.load_scenario(SCENARIO_DIR / "bursty_batch.toml")
        plan = scenario.generate(spec, requests=20)
        batches = [r for r in plan if r.op == "synth-batch"]
        assert batches
        assert all(
            len(r.params["targets"]) == spec.batch_size for r in batches
        )

    def test_cli_dry_run_is_deterministic(self, capsys, monkeypatch):
        monkeypatch.chdir(SCENARIO_DIR.parent)
        argv = ["load", "steady_interactive", "--dry-run",
                "--seed", "7", "--requests", "12"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = [json.loads(line) for line in first.splitlines()]
        assert len(lines) == 12
        assert lines[0] == {
            "index": 0, "at_s": 0.0, "op": "synth", "store": None,
            "params": {"target": "g2"},
        }


class TestScenarioRuns:
    def test_steady_run_counts_latencies_and_slo(self, store_path, steady):
        with BackgroundServer(store_path) as server:
            plan, samples, wall_s = scenario.run_scenario(
                steady, server.address_text, seed=3, requests=30,
                concurrency=2,
            )
        assert len(plan) == len(samples) == 30
        report = scenario.scenario_report(steady, samples, wall_s, seed=3)
        assert report["requests"] == 30 and report["ok"] == 30
        assert report["errors"] == {} and report["shed"] == 0
        assert report["latency_ms"]["p50"] > 0
        assert report["throughput_rps"] > 0
        assert report["slo_pass"], report["slo_violations"]

    def test_pathological_errors_are_the_allowed_class(self, store_path):
        spec = scenario.load_scenario(
            SCENARIO_DIR / "pathological_cost_bounds.toml"
        )
        with BackgroundServer(store_path) as server:
            _plan, samples, wall_s = scenario.run_scenario(
                spec, server.address_text, requests=25, concurrency=2,
            )
        stats = scenario.summarize(samples, wall_s)
        # The over-tight bound *did* produce structured errors ...
        assert stats["errors"].get("cost-bound-exceeded", 0) > 0
        assert scenario.report.error_rate(stats) > 0
        # ... and the SLO allows exactly that class, nothing else.
        assert scenario.check_slo(spec.slo, stats) == []
        assert set(stats["errors"]) == {"cost-bound-exceeded"}

    def test_multistore_skew_routes_by_alias(self, store_path):
        spec = scenario.load_scenario(SCENARIO_DIR / "hotkey_skew.toml")
        stores = [f"deep={store_path}", f"shallow={store_path}"]
        with BackgroundServer(stores) as server:
            _plan, samples, _wall = scenario.run_scenario(
                spec, server.address_text, requests=40, concurrency=2,
            )
        assert all(sample.outcome == "ok" for sample in samples)
        hit = [sample.store for sample in samples]
        assert hit.count("deep") > hit.count("shallow") > 0

    def test_slo_violation_fails_cli_exit_code(self, store_path, tmp_path):
        """An impossible p50 bar must turn into exit code 1 (and not
        with --no-slo)."""
        spec_path = tmp_path / "impossible.toml"
        spec_path.write_text(
            'name = "impossible"\nrequests = 5\ntargets = ["peres"]\n'
            "[slo]\np50_ms = 0.0001\n"
        )
        with BackgroundServer(store_path) as server:
            argv = ["load", str(spec_path), "--server",
                    server.address_text]
            assert main(argv) == 1
            assert main(argv + ["--no-slo"]) == 0


class TestReplay:
    def _record_run(self, store_path, tmp_path, **server_kwargs):
        """Drive a golden batch through a logging server; return log."""
        log = str(tmp_path / "access.ndjson")
        steady = scenario.load_scenario(
            SCENARIO_DIR / "steady_interactive.toml"
        )
        with BackgroundServer(
            store_path, access_log=log, **server_kwargs
        ) as server:
            scenario.run_scenario(
                steady, server.address_text, seed=11, requests=40,
                concurrency=1,
            )
        return log

    def test_golden_replay_zero_diffs_across_rotated_set(
        self, store_path, tmp_path
    ):
        log = self._record_run(
            store_path, tmp_path,
            access_log_max_bytes=4096, access_log_keep=8,
        )
        # Rotation actually happened: the trace spans several files.
        assert len(rotated_access_logs(log)) > 1
        records, tail = scenario.load_trace(log)
        assert tail is None and len(records) == 40
        _by_alias, golden = scenario.parse_golden_specs([store_path])
        with BackgroundServer(store_path) as server:
            report = scenario.replay(
                records, server.address_text, default_golden=golden,
            )
        assert report["replayed"] == 40
        assert report["outcome_mismatches"] == 0
        assert report["result_byte_diffs"] == 0
        assert report["byte_checked"] > 30  # every non-healthz op
        assert report["clean"]

    def test_cli_replay_roundtrip_and_op_sequence(
        self, store_path, tmp_path, capsys
    ):
        """CLI end to end, plus the op-sequence pin: a concurrency-1
        run's access log replays the planned stream in order."""
        log = self._record_run(store_path, tmp_path)
        steady = scenario.load_scenario(
            SCENARIO_DIR / "steady_interactive.toml"
        )
        plan = scenario.generate(steady, seed=11, requests=40)
        records, _tail = scenario.load_trace(log)
        assert [r["op"] for r in records] == [p.op for p in plan]
        out = str(tmp_path / "replay.json")
        with BackgroundServer(store_path) as server:
            rc = main([
                "replay", log, "--server", server.address_text,
                "--golden", store_path, "--json", out,
            ])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(Path(out).read_text())
        assert report["clean"] and report["result_byte_diffs"] == 0

    def test_unresolved_store_error_replays_as_reproduced(
        self, store_path, tmp_path
    ):
        """A request naming a store the server lacks is logged with
        that selector, so replay re-sends it and reproduces the error
        instead of answering from the sole store."""
        log = str(tmp_path / "access.ndjson")
        with BackgroundServer(store_path, access_log=log) as server:
            with ServeClient(server.address_text) as client:
                with pytest.raises(ProtocolError):
                    client.synth("peres", store="deep")
        records, _tail = scenario.load_trace(log)
        assert [(r["store"], r["outcome"]) for r in records] == [
            ("deep", "protocol"),
        ]
        with BackgroundServer(store_path) as server:
            report = scenario.replay(records, server.address_text)
        assert report["replayed"] == report["errors"] == 1
        assert report["outcome_mismatches"] == 0 and report["clean"]

    def test_outcome_drift_is_reported_and_fails(
        self, store_path, tmp_path, capsys
    ):
        """A log claiming an error for a target the store serves fine
        must surface as an outcome mismatch and exit code 1."""
        log = tmp_path / "forged.ndjson"
        log.write_text(json.dumps({
            "op": "synth", "store": None, "queue_wait_ms": 0,
            "execute_ms": 1, "total_ms": 1,
            "outcome": "cost-bound-exceeded",
            "params": {"target": "peres"},
        }) + "\n")
        with BackgroundServer(store_path) as server:
            rc = main([
                "replay", str(log), "--server", server.address_text,
                "--no-rotated",
            ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 outcome mismatches" in out

    def test_params_less_records_are_skipped_not_fatal(
        self, store_path, tmp_path
    ):
        """Logs from before params-bearing records still replay: query
        records without params are counted, not crashed on."""
        log = tmp_path / "old-format.ndjson"
        base = {"queue_wait_ms": 0, "execute_ms": 1, "total_ms": 1,
                "outcome": "ok"}
        log.write_text(
            json.dumps({"op": "synth", "store": None, **base}) + "\n"
            + json.dumps({"op": "healthz", "store": None, **base}) + "\n"
        )
        with BackgroundServer(store_path) as server:
            report = scenario.replay(
                scenario.load_trace(log, rotated=False)[0],
                server.address_text,
            )
        assert report["skipped_no_params"] == 1
        assert report["replayed"] == 1  # the healthz needs no params
        assert report["clean"]

    def test_truncated_rotated_tail_does_not_kill_replay(
        self, store_path, tmp_path
    ):
        """The satellite fix end to end: a crash-truncated non-final
        rotated file still replays, with the tail surfaced."""
        record = {"op": "healthz", "store": None, "queue_wait_ms": 0,
                  "execute_ms": 1, "total_ms": 1, "outcome": "ok"}
        line = json.dumps(record) + "\n"
        log = tmp_path / "access.ndjson"
        (tmp_path / "access.ndjson.1").write_text(line + line[:20])
        log.write_text(line)
        records, tail = scenario.load_trace(log)
        assert len(records) == 2
        assert tail["path"].endswith(".1")
        with BackgroundServer(store_path) as server:
            report = scenario.replay(records, server.address_text)
        assert report["replayed"] == 2 and report["clean"]


class TestScenarioAgainstFleet:
    def test_chaos_crash_mid_scenario_zero_client_errors(
        self, store_path, steady
    ):
        """The acceptance bar: kill the preferred replica mid-scenario;
        the run completes with zero client-visible errors and the
        router's shed/failover machinery stays inside the fleet."""
        ring = HashRing()
        ring.add("backend-0")
        ring.add("backend-1")
        crash_index = int(ring.order("")[0].rsplit("-", 1)[1])
        with BackgroundFleet(
            store_path,
            replicas=2,
            port=0,
            faults={crash_index: "exit-after:8"},
            interval=0.2,
            guardrails=GuardRails(min_healthy=1, cooldown_s=0.3),
        ) as fleet:
            _plan, samples, wall_s = scenario.run_scenario(
                steady, fleet.address_text, seed=5, requests=64,
                concurrency=4, retries=2,
            )
            health = scenario.snapshot(fleet.address_text)
        assert len(samples) == 64
        bad = [s for s in samples if s.outcome != "ok"]
        assert bad == [], f"client-visible errors: {bad}"
        report = scenario.scenario_report(
            steady, samples, wall_s, seed=5, server_health=health,
        )
        assert report["server"]["role"] == "router"
        assert report["errors"] == {} and report["shed"] == 0

    def test_snapshot_carries_fleet_state(self, store_path):
        with BackgroundFleet(
            store_path, replicas=2, port=0, interval=5.0
        ) as fleet:
            payload = scenario.snapshot(fleet.address_text)
        assert payload["role"] == "router"
        assert set(payload["backends"]) == {"backend-0", "backend-1"}
        for info in payload["backends"].values():
            assert {"breaker", "inflight", "max_inflight"} <= set(info)
