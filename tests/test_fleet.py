"""Fleet tests: ring, breaker, router, supervisor, and chaos e2e.

Unit-tests the consistent-hash ring (stability under member loss), the
circuit breaker's state machine against a fake clock, the supervisor's
propose/verify stages against fake managers, then proves the whole
fleet end to end: a 2-replica fleet returns byte-identical results to
a single server, killing the preferred replica mid-64-call-run loses
nothing and the ops log shows the full detect -> restart -> recovered
-> readmit story, and a saturated single-replica fleet sheds with
``FLEET_OVERLOADED`` instead of queueing without bound.  Also the
client-retry and access-log-rotation satellites.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.client import ServeClient, _open_socket
from repro.core.batch import BatchSynthesizer
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.errors import FleetOverloadedError, InvalidValueError, ServerError
from repro.fleet.manager import BackgroundFleet, FleetManager
import repro.fleet.router as router_module
from repro.fleet.router import CircuitBreaker, HashRing, RouterService
from repro.fleet import supervisor as supervisor_module
from repro.fleet.supervisor import Finding, GuardRails, Proposal, Supervisor
from repro.gates.library import GateLibrary
from repro.io import load_access_log, open_store, result_to_dict
from repro.server import BackgroundServer, parse_endpoint
from repro.server.protocol import decode_request_line

BOUND = 4


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(BOUND)
    save_search(search, path)
    return str(path)


@pytest.fixture(scope="module")
def reference(store_path):
    _header, _library, search = open_store(store_path)
    return BatchSynthesizer(search)


@pytest.fixture(scope="module")
def fleet(store_path):
    with BackgroundFleet(
        store_path, replicas=2, port=0, interval=0.3
    ) as handle:
        yield handle


def _raw_exchange(address: str, data: bytes, until: bytes | None = None):
    """Send *data* to a server or router; read to *until* (or EOF)."""
    family, target = parse_endpoint(address)
    with _open_socket(family, target, 30.0) as sock:
        sock.sendall(data)
        received = b""
        while until is None or until not in received:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return received


def _preferred_index(replicas: int = 2, key: str = "") -> int:
    """Which replica the router prefers for *key* (deterministic)."""
    ring = HashRing()
    for index in range(replicas):
        ring.add(f"backend-{index}")
    return int(ring.order(key)[0].rsplit("-", 1)[1])


class TestHashRing:
    def test_order_is_deterministic_and_complete(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        first = ring.order("store-x")
        assert sorted(first) == ["a", "b", "c"]
        assert ring.order("store-x") == first

    def test_different_keys_spread(self):
        ring = HashRing()
        for name in ("a", "b", "c", "d"):
            ring.add(name)
        preferred = {ring.order(f"key-{i}")[0] for i in range(64)}
        assert len(preferred) >= 3  # not everything lands on one member

    def test_removing_member_only_moves_its_keys(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        keys = [f"key-{i}" for i in range(128)]
        before = {key: ring.order(key)[0] for key in keys}
        ring.remove("c")
        after = {key: ring.order(key)[0] for key in keys}
        for key in keys:
            if before[key] != "c":
                assert after[key] == before[key]
            else:
                assert after[key] in ("a", "b")

    def test_cached_order_tracks_membership(self):
        """After every add and remove, each key's (cached) order equals
        the order a ring built fresh from the same members gives."""
        ring = HashRing()
        keys = ["", "store-x"] + [f"key-{i}" for i in range(32)]
        steps = [
            ("add", "a"), ("add", "b"), ("add", "c"), ("remove", "b"),
            ("add", "d"), ("remove", "a"), ("add", "b"), ("remove", "d"),
        ]
        for op, name in steps:
            for key in keys:
                ring.order(key)  # populate the cache before the change
            getattr(ring, op)(name)
            fresh = HashRing()
            for member in sorted(ring.names):
                fresh.add(member)
            for key in keys:
                assert ring.order(key) == fresh.order(key), (op, name, key)
                assert ring.order(key) is ring.order(key)  # served cached

    def test_order_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(router_module, "ORDER_CACHE_KEYS", 8)
        ring = HashRing()
        ring.add("a")
        ring.add("b")
        for i in range(50):
            assert sorted(ring.order(f"key-{i}")) == ["a", "b"]
        assert len(ring._orders) <= 8

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing()
        ring.add("a")
        before = ring.order("key")
        ring.add("a")  # duplicate add: no extra virtual points
        assert ring.order("key") == before
        ring.remove("b")  # unknown remove: no-op
        assert ring.order("key") == before
        assert ring.names == frozenset({"a"})


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=threshold, cooldown=cooldown, clock=lambda: clock[0]
        )
        return breaker, clock

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _clock = self.make(threshold=3)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_failure_run(self):
        breaker, _clock = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 5.1
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock[0] = 5.1
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] = 5.1 + 5.1  # a fresh cooldown starts at the re-trip
        assert breaker.state == "half-open"

    def test_release_probe_returns_the_slot(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock[0] = 1.1
        assert breaker.allow()
        breaker.release_probe()  # attempt was cancelled, not judged
        assert breaker.allow()


class TestRouterUnits:
    def test_healthz_is_answered_locally(self):
        import asyncio

        router = RouterService({"b0": "unix:/tmp/absent-0.sock"})
        request = decode_request_line(b'{"id": 1, "op": "healthz"}')
        payload = asyncio.run(router.handle(request))
        assert payload["role"] == "router"
        assert payload["status"] == "ok"
        assert "b0" in payload["backends"]

    def test_degraded_when_every_backend_is_out(self):
        import asyncio

        router = RouterService({"b0": "unix:/tmp/absent-0.sock"})
        assert router.set_admitted("b0", False) is True
        assert router.set_admitted("b0", False) is False  # no change
        request = decode_request_line(b'{"id": 1, "op": "healthz"}')
        payload = asyncio.run(router.handle(request))
        assert payload["status"] == "degraded"
        assert payload["healthy_backends"] == 0

    def test_unknown_backend_name_raises(self):
        router = RouterService({"b0": "unix:/tmp/absent-0.sock"})
        with pytest.raises(ServerError):
            router.backend("nope")

    def test_routing_with_no_admitted_backend_fails_cleanly(self):
        import asyncio

        router = RouterService({"b0": "unix:/tmp/absent-0.sock"})
        router.set_admitted("b0", False)
        request = decode_request_line(
            b'{"id": 1, "op": "store-info", "params": {}}'
        )
        with pytest.raises(ServerError, match="no admitted backends"):
            asyncio.run(router.handle(request))

    def test_negative_retries_is_a_repro_error(self):
        with pytest.raises(InvalidValueError, match="retries"):
            RouterService({"b0": "unix:/tmp/absent-0.sock"}, retries=-1)

    @pytest.mark.parametrize("flag, value", [
        ("--max-inflight", "0"), ("--retries", "-1"),
    ])
    def test_bad_router_flag_fails_before_any_replica_starts(
        self, flag, value, store_path, tmp_path, monkeypatch, capsys
    ):
        def no_spawn(self):
            raise AssertionError("replicas spawned before the router flags")

        monkeypatch.setattr(FleetManager, "spawn_all", no_spawn)
        argv = [
            "fleet", "serve", str(store_path), "--port", "0",
            "--run-dir", str(tmp_path), flag, value,
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class _FakeBackend:
    def __init__(self, name, alive=True, supervised=True):
        self.name = name
        self.endpoint = f"unix:/tmp/absent-{name}.sock"
        self.access_log = None
        # Live fakes have no real healthz endpoint; keeping them inside
        # the grace window suppresses the (correct) unresponsive finding.
        self.spawned_at = (
            time.monotonic() if alive else time.monotonic() - 3600
        )
        self.restart_times: list[float] = []
        self.supervised = supervised
        self._alive = alive
        self._exit_code = None if alive else 70

    def alive(self):
        return self._alive

    def exit_code(self):
        return self._exit_code


class _FakeManager:
    def __init__(self, backends):
        self.backends = {backend.name: backend for backend in backends}
        self.restarts: list[str] = []

    def restart(self, name):
        self.restarts.append(name)
        self.backends[name].restart_times.append(time.monotonic())


def _make_supervisor(backends, ops_log=None, **rails):
    manager = _FakeManager(backends)
    router = RouterService({
        backend.name: backend.endpoint for backend in backends
    })
    supervisor = Supervisor(
        router, manager, ops_log=ops_log,
        guardrails=GuardRails(**rails) if rails else GuardRails(),
    )
    return supervisor, manager, router


class TestSupervisorStages:
    def test_dead_supervised_backend_is_restarted_and_ejected(self):
        import asyncio

        supervisor, manager, router = _make_supervisor(
            [_FakeBackend("b0", alive=False), _FakeBackend("b1")],
        )
        records = asyncio.run(supervisor.run_cycle())
        by_backend = {record["backend"]: record for record in records}
        record = by_backend["b0"]
        assert record["finding"] == "dead"
        assert record["action"] == "restart"
        assert record["verdict"] == "approved" and record["applied"]
        assert manager.restarts == ["b0"]
        # Restarted backends come back EJECTED; a later healthy probe
        # earns re-admission as its own logged decision.
        assert router.backend("b0").admitted is False

    def test_dead_unsupervised_backend_is_ejected_not_restarted(self):
        import asyncio

        supervisor, manager, router = _make_supervisor(
            [_FakeBackend("b0", alive=False, supervised=False),
             _FakeBackend("b1")],
        )
        records = asyncio.run(supervisor.run_cycle())
        record = {r["backend"]: r for r in records}["b0"]
        assert record["action"] == "eject" and record["applied"]
        assert manager.restarts == []
        assert router.backend("b0").admitted is False

    def test_cooldown_vetoes_back_to_back_actions(self):
        import asyncio

        supervisor, manager, _router = _make_supervisor(
            [_FakeBackend("b0", alive=False)], cooldown_s=60.0,
        )
        first = asyncio.run(supervisor.run_cycle())
        second = asyncio.run(supervisor.run_cycle())
        assert first[0]["verdict"] == "approved"
        assert second[0]["verdict"] == "rejected"
        assert "cooldown" in second[0]["reason"]
        assert manager.restarts == ["b0"]  # only the first applied

    def test_restart_budget_vetoes_crash_loops(self):
        import asyncio

        backend = _FakeBackend("b0", alive=False)
        backend.restart_times = [time.monotonic()] * 3
        supervisor, manager, _router = _make_supervisor(
            [backend], cooldown_s=0.0, restart_budget=3,
        )
        records = asyncio.run(supervisor.run_cycle())
        assert records[0]["verdict"] == "rejected"
        assert "restart-budget" in records[0]["reason"]
        assert manager.restarts == []

    def test_min_healthy_floor_protects_healthy_replicas(self):
        supervisor, _manager, _router = _make_supervisor(
            [_FakeBackend("b0"), _FakeBackend("b1")], min_healthy=1,
        )
        supervisor._healthy_now = {"b0"}
        verdict, reason = supervisor._verify(
            Proposal("b0", "eject", "slow")
        )
        assert verdict == "rejected" and "min-healthy" in reason
        supervisor._healthy_now = {"b0", "b1"}
        verdict, _reason = supervisor._verify(
            Proposal("b0", "eject", "slow")
        )
        assert verdict == "approved"

    def test_min_healthy_does_not_protect_dead_replicas(self):
        supervisor, _manager, _router = _make_supervisor(
            [_FakeBackend("b0", alive=False)], min_healthy=1,
        )
        supervisor._healthy_now = set()  # b0 is dead, protects nothing
        verdict, _reason = supervisor._verify(
            Proposal("b0", "restart", "dead")
        )
        assert verdict == "approved"

    def test_recovered_finding_proposes_readmit(self):
        import asyncio

        supervisor, _manager, router = _make_supervisor(
            [_FakeBackend("b0")],
        )
        router.set_admitted("b0", False)
        proposal = supervisor._propose(
            Finding("b0", "recovered", "healthz ok while ejected")
        )
        assert proposal == Proposal(
            "b0", "readmit", "healthz ok while ejected"
        )
        asyncio.run(supervisor._apply(proposal))
        assert router.backend("b0").admitted is True

    def test_degradation_findings_propose_eject(self):
        supervisor, _manager, _router = _make_supervisor(
            [_FakeBackend("b0")],
        )
        for kind in ("latency", "error-rate"):
            proposal = supervisor._propose(Finding("b0", kind, "x"))
            assert proposal is not None and proposal.action == "eject"

    def test_decisions_land_in_the_ops_log(self, tmp_path):
        import asyncio

        ops_log = str(tmp_path / "ops.ndjson")
        supervisor, _manager, _router = _make_supervisor(
            [_FakeBackend("b0", alive=False)], ops_log=ops_log,
        )

        async def run():
            await supervisor.start()
            try:
                await asyncio.sleep(0.1)
            finally:
                await supervisor.stop()

        asyncio.run(run())
        with open(ops_log, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert any(
            record["finding"] == "dead" and record["action"] == "restart"
            for record in records
        )


class _OkHealthClient:
    """Stands in for ServeClient: every healthz probe answers ok."""

    def __init__(self, *_args, **_kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def healthz(self):
        return {"status": "ok"}


def _append_access(path, op="synth", total_ms=2.0, queue_wait_ms=0.0):
    record = {
        "ts": round(time.time(), 6), "op": op, "store": None, "id": 1,
        "queue_wait_ms": queue_wait_ms,
        "execute_ms": total_ms - queue_wait_ms,
        "total_ms": total_ms, "outcome": "ok",
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


class TestSupervisorRecency:
    """Latency findings judge only the access-log records appended
    since the last cycle.  An ejected replica gets no traffic, so one
    slow request must cost one eject, not an eject/readmit flap driven
    by a stale sample that nothing new ever displaces."""

    @pytest.fixture
    def watched(self, tmp_path, monkeypatch):
        import asyncio

        monkeypatch.setattr(supervisor_module, "ServeClient", _OkHealthClient)
        backend = _FakeBackend("b0")
        backend.spawned_at = time.monotonic() - 3600  # out of grace
        backend.access_log = str(tmp_path / "b0.access.ndjson")
        open(backend.access_log, "w").close()
        router = RouterService({"b0": backend.endpoint})
        supervisor = Supervisor(
            router, _FakeManager([backend]),
            guardrails=GuardRails(min_healthy=0, cooldown_s=0.0),
            latency_threshold_ms=1000.0,
        )

        def cycle():
            return [
                (record["finding"], record["action"], record["applied"])
                for record in asyncio.run(supervisor.run_cycle())
            ]

        return backend.access_log, router, cycle

    @pytest.mark.parametrize("kind, slow", [
        ("latency", {"total_ms": 1500.0}),
    ], ids=["latency"])
    def test_one_slow_request_ejects_once(self, watched, kind, slow):
        log, router, cycle = watched
        _append_access(log, **slow)
        assert cycle() == [(kind, "eject", True)]
        assert router.backend("b0").admitted is False
        # No new records: nothing stale is left to judge it by.
        assert cycle() == [("recovered", "readmit", True)]
        for _ in range(5):
            _append_access(log, total_ms=2.0, queue_wait_ms=0.1)
        # Probe noise is not workload: a slow healthz is ignored.
        _append_access(log, op="healthz", total_ms=5000.0,
                       queue_wait_ms=4000.0)
        assert cycle() == []
        assert router.backend("b0").admitted is True


class TestFleetEndToEnd:
    def test_healthz_shows_router_and_both_backends(self, fleet):
        with ServeClient(fleet.address_text) as client:
            payload = client.healthz()
        assert payload["role"] == "router"
        assert payload["status"] == "ok"
        assert payload["healthy_backends"] == 2
        assert set(payload["backends"]) == {"backend-0", "backend-1"}

    def test_results_byte_identical_to_single_server(
        self, fleet, store_path, reference
    ):
        targets = []
        for cost in range(BOUND + 1):
            targets.extend(reference.targets_at_cost(cost, True))
        specs = [target.cycle_string() for target in targets[:64]]
        assert len(specs) == 64
        with BackgroundServer(store_path) as single:
            with ServeClient(single.address_text) as direct, \
                    ServeClient(fleet.address_text) as routed:
                want = direct.synth_batch(specs)
                got = routed.synth_batch(specs)
        dump = lambda payload: json.dumps(  # noqa: E731
            payload, sort_keys=True, separators=(",", ":")
        )
        assert dump(got) == dump(want)
        assert got["failures"] == 0

    @pytest.mark.parametrize("op, params, ok", [
        ("synth", {"target": "peres"}, True),
        ("synth-batch", {"targets": ["peres", "toffoli", "(1,2)(3,4)"]},
         True),
        ("cost-table", {}, True),
        ("synth", {"target": "toffoli"}, False),  # cost 5 > bound 4
    ], ids=["synth", "batch-one-failing", "cost-table", "error"])
    def test_raw_ndjson_line_identical_to_a_replica(
        self, fleet, op, params, ok
    ):
        """The router forwards the replica's result bytes: the same id
        and trace_id sent to both give the same response line."""
        line = json.dumps({
            "id": 41, "op": op, "params": params, "trace_id": "raw-ndjson",
        }).encode() + b"\n"
        replica = fleet.manager.endpoints()["backend-0"]
        routed = _raw_exchange(fleet.address_text, line, b"\n")
        direct = _raw_exchange(replica, line, b"\n")
        assert routed == direct
        assert json.loads(routed)["ok"] is ok

    @pytest.mark.parametrize("method, path, body", [
        ("POST", "/synth", {"target": "peres"}),
        ("POST", "/synth-batch", {"targets": ["peres", "toffoli"]}),
        ("GET", "/cost-table", None),
        ("POST", "/synth", {"target": "toffoli"}),
    ], ids=["synth", "batch-one-failing", "cost-table", "error"])
    def test_raw_http_body_identical_to_a_replica(
        self, fleet, method, path, body
    ):
        payload = b"" if body is None else json.dumps(body).encode()
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: fleet\r\n"
            "Connection: close\r\nX-Repro-Trace-Id: raw-http\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii") + payload
        replica = fleet.manager.endpoints()["backend-0"]
        routed = _raw_exchange(fleet.address_text, request)
        direct = _raw_exchange(replica, request)
        routed_head, _sep, routed_body = routed.partition(b"\r\n\r\n")
        direct_head, _sep, direct_body = direct.partition(b"\r\n\r\n")
        assert routed_body == direct_body
        assert routed_head.split(b"\r\n")[0] == direct_head.split(b"\r\n")[0]

    def test_fleet_status_cli_renders(self, fleet, capsys):
        assert main(["fleet", "status", fleet.address_text]) == 0
        out = capsys.readouterr().out
        assert "router" in out
        assert "backend-0" in out and "backend-1" in out
        assert main(["fleet", "status", fleet.address_text,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["role"] == "router"

    def test_structured_errors_round_trip_through_the_router(self, fleet):
        from repro.errors import CostBoundExceededError

        with ServeClient(fleet.address_text) as client:
            with pytest.raises(CostBoundExceededError):
                client.synth("toffoli")  # cost 5 > stored bound 4


class TestChaosEndToEnd:
    def test_replica_crash_mid_run_is_invisible_and_audited(
        self, store_path, reference
    ):
        """Kill the preferred replica mid-run: zero client-visible
        errors, byte-identical results, and an ops log telling the full
        detect -> restart -> recovered -> readmit story."""
        from repro.gates import named

        crash_index = _preferred_index(replicas=2)
        specs = ["peres", "g2", "g3", "g4"] * 16  # 64 calls
        expected = {
            spec: result_to_dict(reference.synthesize(named.TARGETS[spec]))
            for spec in set(specs)
        }
        with BackgroundFleet(
            store_path,
            replicas=2,
            port=0,
            faults={crash_index: "exit-after:8"},
            interval=0.2,
            guardrails=GuardRails(min_healthy=1, cooldown_s=0.3),
        ) as fleet:
            with ServeClient(fleet.address_text, retries=2) as client:
                for spec in specs:
                    payload = client.synth(spec)
                    assert payload["results"][0] == expected[spec]
            crashed = f"backend-{crash_index}"
            deadline = time.monotonic() + 30
            story = set()
            while time.monotonic() < deadline:
                story = {
                    (record["finding"], record["action"])
                    for record in fleet.supervisor.decisions
                    if record.get("backend") == crashed
                    and record.get("applied")
                }
                if ("dead", "restart") in story and \
                        ("recovered", "readmit") in story:
                    break
                time.sleep(0.2)
            assert ("dead", "restart") in story
            assert ("recovered", "readmit") in story
            with open(fleet.ops_log, encoding="utf-8") as handle:
                logged = [json.loads(line) for line in handle]
            assert {
                (record["finding"], record["action"])
                for record in logged
                if record["backend"] == crashed and record["applied"]
            } >= {("dead", "restart"), ("recovered", "readmit")}
            # After recovery the fleet is whole again.
            with ServeClient(fleet.address_text) as client:
                health = client.healthz()
            assert health["healthy_backends"] == 2

    def test_saturated_fleet_sheds_with_structured_error(self, store_path):
        """One replica, one in-flight slot: overlapping requests shed
        with FLEET_OVERLOADED instead of queueing."""
        with BackgroundFleet(
            store_path,
            replicas=1,
            port=0,
            faults={0: "slow:700"},
            max_inflight=1,
            interval=5.0,  # keep supervisor probes out of the way
        ) as fleet:
            results: dict = {}

            def slow_call():
                with ServeClient(fleet.address_text) as client:
                    results["first"] = client.synth("peres")["cost"]

            thread = threading.Thread(target=slow_call)
            thread.start()
            time.sleep(0.25)  # first request is now holding the slot
            with ServeClient(fleet.address_text) as client:
                with pytest.raises(FleetOverloadedError):
                    client.synth("g2")
            thread.join(timeout=30)
            assert results.get("first") == 4
            # Shedding is visible in the router's own counters.
            with ServeClient(fleet.address_text) as client:
                assert client.healthz()["shed"] >= 1


class TestFleetManagerUnits:
    def test_rejects_bad_configuration(self, store_path):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            FleetManager([store_path], replicas=0)
        with pytest.raises(SpecificationError):
            FleetManager([])
        with pytest.raises(SpecificationError):
            FleetManager([store_path], replicas=2, faults={5: "slow:1"})

    def test_backend_argv_and_run_files(self, store_path, tmp_path):
        run_dir = str(tmp_path / "run")
        manager = FleetManager(
            [store_path], replicas=2, run_dir=run_dir,
            faults={1: "exit-after:9"}, fault_seed=3,
        )
        assert sorted(manager.backends) == ["backend-0", "backend-1"]
        b0, b1 = (manager.backends[n] for n in sorted(manager.backends))
        assert b0.fault is None and b1.fault == "exit-after:9"
        assert "--no-tcp" in b0.argv and store_path in b0.argv
        assert b0.endpoint == f"unix:{os.path.join(run_dir, 'b0.sock')}"
        assert manager.endpoints() == {
            "backend-0": b0.endpoint, "backend-1": b1.endpoint,
        }


class TestClientRetries:
    def _flaky_server(self, failures_before_success):
        """A TCP server that drops N connections, then speaks NDJSON."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        state = {"drops": 0}

        def run():
            remaining = failures_before_success
            while True:
                try:
                    conn, _addr = listener.accept()
                except OSError:
                    return
                if remaining > 0:
                    remaining -= 1
                    state["drops"] += 1
                    conn.close()
                    continue
                with conn:
                    stream = conn.makefile("rwb")
                    line = stream.readline()
                    if not line:
                        continue
                    request = json.loads(line)
                    reply = {
                        "id": request["id"], "ok": True,
                        "result": {"status": "ok"},
                    }
                    stream.write(json.dumps(reply).encode() + b"\n")
                    stream.flush()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        return listener, f"{host}:{port}", state

    def test_retries_ride_out_dropped_connections(self):
        listener, address, state = self._flaky_server(2)
        try:
            with ServeClient(address, retries=3, backoff=0.01) as client:
                assert client.call("healthz")["status"] == "ok"
            assert state["drops"] == 2
        finally:
            listener.close()

    def test_default_client_still_fails_fast(self):
        listener, address, _state = self._flaky_server(1)
        try:
            with ServeClient(address) as client:  # retries=0 default
                with pytest.raises(ServerError):
                    client.call("healthz")
        finally:
            listener.close()

    def test_constructor_validates_retry_arguments(self):
        with pytest.raises(InvalidValueError, match="retries"):
            ServeClient("127.0.0.1:1", retries=-1)
        with pytest.raises(InvalidValueError, match="backoff"):
            ServeClient("127.0.0.1:1", backoff=-0.5)


class TestAccessLogRotation:
    def test_rotation_keeps_every_record_across_files(self, store_path):
        workdir = tempfile.mkdtemp(prefix="repro-rotate-")
        log = os.path.join(workdir, "access.ndjson")
        calls = 40
        try:
            # ~140 bytes/record: 40 records span several 1 KiB files
            # but fit comfortably inside the keep window of 8.
            with BackgroundServer(
                store_path,
                access_log=log,
                access_log_max_bytes=1024,
                access_log_keep=8,
            ) as srv:
                with ServeClient(srv.address_text) as client:
                    for _ in range(calls):
                        client.synth("peres")
            rotated = [
                name for name in os.listdir(workdir)
                if name.startswith("access.ndjson.")
            ]
            assert len(rotated) >= 2, "expected several rotated files"
            assert len(rotated) <= 8
            records = load_access_log(log, rotated=True)
            synths = [r for r in records if r["op"] == "synth"]
            assert len(synths) == calls
            # Oldest-first ordering across the whole rotated set.
            stamps = [r["ts"] for r in records]
            assert stamps == sorted(stamps)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_without_rotated_flag_only_active_file_is_read(
        self, store_path
    ):
        workdir = tempfile.mkdtemp(prefix="repro-rotate2-")
        log = os.path.join(workdir, "access.ndjson")
        try:
            with BackgroundServer(
                store_path,
                access_log=log,
                access_log_max_bytes=512,
                access_log_keep=2,
            ) as srv:
                with ServeClient(srv.address_text) as client:
                    for _ in range(40):
                        client.synth("peres")
            active_only = load_access_log(log)
            everything = load_access_log(log, rotated=True)
            assert len(everything) > len(active_only)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
