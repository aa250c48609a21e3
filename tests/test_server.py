"""Lifecycle and protocol tests for the synthesis service (repro.server).

Covers the service's whole life: start, serving under concurrency,
other connections answered while a long batch runs, SIGHUP store
reload (in-process, and against a real ``repro serve`` subprocess,
also mid-batch), multi-store routing by alias/fingerprint, the
UNIX-socket transport, the NDJSON access log, healthz percentiles,
malformed requests mapping to structured errors, and the golden
guarantee that ``repro synth --server`` output is byte-identical to
``repro synth --store`` (body and ``--save`` files) over both
transports.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.client import ServeClient, http_request, wait_until_ready
from repro.core.batch import BatchSynthesizer
from repro.core.cost import CostModel
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.errors import (
    CostBoundExceededError,
    FrozenSearchError,
    InvalidPermutationError,
    ProtocolError,
    ReproError,
    ServerError,
    SpecificationError,
)
from repro.gates.library import GateLibrary, library_for
from repro.io import load_access_log, open_store, parse_target, result_to_dict
from repro.server import (
    BackgroundServer,
    SynthesisService,
    parse_address,
    parse_endpoint,
)
from repro.server.protocol import (
    encode_response,
    error_payload,
    error_to_exception,
)
from repro.server.registry import (
    StoreRegistry,
    derive_alias,
    parse_store_spec,
    resolve_specs,
)
from repro.server.service import BATCH_CHUNK, execute_query, open_store_state

BOUND = 4
SHALLOW_BOUND = 3


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(BOUND)
    save_search(search, path)
    return str(path)


@pytest.fixture(scope="module")
def shallow_store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-shallow") / "shallow.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(SHALLOW_BOUND)
    save_search(search, path)
    return str(path)


@pytest.fixture(scope="module")
def server(store_path):
    with BackgroundServer(store_path) as srv:
        yield srv


@pytest.fixture(scope="module")
def shallow_server(shallow_store_path):
    with BackgroundServer(shallow_store_path) as srv:
        yield srv


@pytest.fixture(scope="module")
def multi(store_path, shallow_store_path):
    """One server over both stores, with a UNIX socket and access log.

    Yields ``(server, unix_socket_path, access_log_path)``.  The socket
    lives under a short ``/tmp`` dir (AF_UNIX paths are length-capped).
    """
    workdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(workdir, "serve.sock")
    log = os.path.join(workdir, "access.ndjson")
    try:
        with BackgroundServer(
            [f"deep={store_path}", f"shallow={shallow_store_path}"],
            unix=sock,
            access_log=log,
        ) as srv:
            yield srv, sock, log
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def reference(store_path):
    """A local BatchSynthesizer over the same store (ground truth)."""
    _header, _library, search = open_store(store_path)
    return BatchSynthesizer(search)


@pytest.fixture()
def client(server):
    with ServeClient(server.address_text) as handle:
        yield handle


def _sized_batch(specs: list, seconds: float, client) -> list:
    """*specs* repeated into a batch the server takes about *seconds* to
    answer, sized from the fastest of three timed probe batches sent
    over *client* (one probe slowed by a busy host would shrink the
    batch)."""
    probe = (specs * (2000 // len(specs) + 1))[:2000]
    client.synth_batch(probe)  # warm the lookup path first
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        client.synth_batch(probe)
        walls.append(time.perf_counter() - started)
    per_target = min(walls) / len(probe)
    count = int(seconds / per_target)
    return (specs * (count // len(specs) + 1))[:count]


def _wait_for_query(client, op: str, seen: int) -> None:
    """Poll healthz until the server has started more than *seen* *op*s."""
    deadline = time.monotonic() + 30
    while client.healthz()["queries"][op] <= seen:
        assert time.monotonic() < deadline, f"no new {op} arrived"
        time.sleep(0.005)


def _wait_for_reloads(client, count: int) -> None:
    deadline = time.monotonic() + 20
    while client.healthz()["reloads"] < count:
        assert time.monotonic() < deadline, "reload never completed"
        time.sleep(0.01)
    assert client.healthz()["reloads"] == count


@contextlib.contextmanager
def _serve_process(store: str):
    """A real ``repro serve`` subprocess; yields ``(proc, address)``.

    Clients in the test process then share no interpreter lock with the
    server, as in production -- what timing assertions need.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", store, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        address = None
        for _ in range(200):
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (\S+) ", line)
            if match:
                address = match.group(1)
                break
        assert address, "server never printed its ready line"
        wait_until_ready(address, timeout=30)
        yield proc, address
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


class TestProtocolUnits:
    def test_parse_address_forms(self):
        from repro.server.protocol import DEFAULT_PORT

        assert parse_address("1.2.3.4:99") == ("1.2.3.4", 99)
        assert parse_address(":99") == ("127.0.0.1", 99)
        assert parse_address("99") == ("127.0.0.1", 99)
        assert parse_address("myhost") == ("myhost", DEFAULT_PORT)

    def test_parse_address_rejects_bad_ports(self):
        with pytest.raises(SpecificationError):
            parse_address("host:notaport")
        with pytest.raises(SpecificationError):
            parse_address("host:99999")

    def test_cost_bound_error_roundtrips_byte_identical(self):
        original = CostBoundExceededError("permutation (7,8)", 4)
        payload, status = error_payload(original)
        assert status == 422 and payload["code"] == "cost-bound-exceeded"
        rebuilt = error_to_exception(payload)
        assert isinstance(rebuilt, CostBoundExceededError)
        assert str(rebuilt) == str(original)
        assert rebuilt.cost_bound == 4

    def test_unknown_code_becomes_server_error(self):
        exc = error_to_exception({"code": "???", "message": "boom"})
        assert isinstance(exc, ServerError) and "boom" in str(exc)

    def test_internal_errors_do_not_leak_messages(self):
        payload, status = error_payload(RuntimeError("secret detail"))
        assert status == 500
        assert "secret" not in payload["message"]

    def test_parse_endpoint_forms(self):
        assert parse_endpoint("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_endpoint("1.2.3.4:99") == ("tcp", ("1.2.3.4", 99))
        assert parse_endpoint(":99") == ("tcp", ("127.0.0.1", 99))
        with pytest.raises(SpecificationError):
            parse_endpoint("unix:")


class TestMetricsUnits:
    """healthz percentiles come from the registry histograms."""

    @staticmethod
    def _finish(service, op, latency_s):
        request = SimpleNamespace(
            op=op, id=1, trace_id=None, span_id=None, params=None
        )
        started = time.perf_counter() - latency_s
        service._finish_request(request, None, started, latency_s, "ok")

    def test_empty_service_has_no_summary(self):
        health = SynthesisService("unopened.rpro")._do_healthz()
        assert health["queue_wait_ms"] == {}
        assert health["latency_ms"] == {}
        assert not any(key.endswith("_recent_ms") for key in health)

    def test_service_metrics_scale_to_milliseconds(self):
        service = SynthesisService("unopened.rpro")
        self._finish(service, "synth", latency_s=0.002)
        health = service._do_healthz()
        # Queries run inline, so every request records a 0 ms queue wait.
        assert health["queue_wait_ms"]["synth"] == {
            "count": 1, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }
        latency = health["latency_ms"]["synth"]
        assert latency["count"] == 1
        # One sample: every quantile reads the observed value exactly.
        assert 2.0 <= latency["p50"] == latency["p90"] == latency["p99"] < 50

    def test_healthz_counts_equal_histogram_counts(self):
        service = SynthesisService("unopened.rpro")
        for op, n in (("synth", 7), ("cost-table", 2)):
            for _ in range(n):
                self._finish(service, op, 0.001)
        health = service._do_healthz()
        for op in ("synth", "cost-table"):
            count = service._h_latency.count(op=op)
            assert health["latency_ms"][op]["count"] == count
            assert health["queue_wait_ms"][op]["count"] == count
            assert health["queue_wait_ms"][op]["p99"] == 0.0


def _fake_state(path: str, lib_fp: str, cost_fp: str, bound: int = 4):
    header = SimpleNamespace(
        library_fingerprint=lib_fp, cost_fingerprint=cost_fp,
        expanded_to=bound,
    )
    return SimpleNamespace(path=path, header=header, cost_bound=bound)


class TestRegistryUnits:
    def test_parse_store_spec_forms(self):
        assert parse_store_spec("a.rpro").path == "a.rpro"
        assert parse_store_spec("fast=a.rpro").alias == "fast"
        assert parse_store_spec("fast=a.rpro").path == "a.rpro"
        assert parse_store_spec("a.rpro").alias is None
        with pytest.raises(SpecificationError):
            parse_store_spec("bad alias=a.rpro")
        with pytest.raises(SpecificationError):
            parse_store_spec("fast=")

    def test_derive_alias_sanitizes_and_dedupes(self):
        assert derive_alias("/stores/closure.rpro", set()) == "closure"
        assert derive_alias("/stores/my store!.rpro", set()) == "my-store-"
        assert derive_alias("closure.rpro", {"closure"}) == "closure-2"
        assert derive_alias("closure.rpro", {"closure", "closure-2"}) == (
            "closure-3"
        )

    def test_resolve_specs_rejects_duplicates_and_empty(self):
        with pytest.raises(SpecificationError):
            resolve_specs(["x=a.rpro", "x=b.rpro"], None)
        with pytest.raises(SpecificationError):
            resolve_specs([], None)

    def test_resolve_sole_and_alias(self):
        registry = StoreRegistry({"only": _fake_state("a", "L1", "C1")})
        assert registry.resolve(None)[0] == "only"
        assert registry.resolve("only")[0] == "only"

    def test_resolve_without_selector_is_ambiguous(self):
        registry = StoreRegistry({
            "a": _fake_state("a", "L1", "C1"),
            "b": _fake_state("b", "L2", "C1"),
        })
        with pytest.raises(ProtocolError) as excinfo:
            registry.resolve(None)
        assert "a" in str(excinfo.value) and "b" in str(excinfo.value)

    def test_resolve_by_fingerprint_prefix(self):
        registry = StoreRegistry({
            "a": _fake_state("a", "L1abc", "C1xyz"),
            "b": _fake_state("b", "L2abc", "C1xyz"),
        })
        assert registry.resolve("L1abc:C1xyz")[0] == "a"
        assert registry.resolve("L2:C1")[0] == "b"
        with pytest.raises(ProtocolError) as excinfo:
            registry.resolve("L:C1")  # matches both libraries
        assert "ambiguous" in str(excinfo.value)

    def test_resolve_unknown_lists_aliases(self):
        registry = StoreRegistry({
            "a": _fake_state("a", "L1", "C1"),
            "b": _fake_state("b", "L2", "C1"),
        })
        with pytest.raises(ProtocolError) as excinfo:
            registry.resolve("nope")
        message = str(excinfo.value)
        assert "nope" in message and "a" in message and "b" in message
        with pytest.raises(ProtocolError):
            registry.resolve(7)


class TestFrozenSearch:
    """The thread-safety contract the service relies on."""

    def test_freeze_blocks_mutation(self, store_path):
        _h, _lib, search = open_store(store_path)
        search.freeze()
        assert search.frozen
        with pytest.raises(FrozenSearchError):
            search.extend_to(BOUND + 1)
        with pytest.raises(FrozenSearchError):
            search.set_kernel_options({"shard_bits": 3})
        with pytest.raises(FrozenSearchError):
            search.attach_remainder_index(BOUND, {})
        # Within-bound extend_to stays a no-op, not an error.
        search.extend_to(BOUND)

    def test_frozen_store_search_still_serves(self, store_path, reference):
        _h, _lib, search = open_store(store_path)
        batch = BatchSynthesizer(search.freeze()).warm()
        from repro.gates import named

        want = reference.synthesize(named.TARGETS["peres"])
        got = batch.synthesize(named.TARGETS["peres"])
        assert result_to_dict(got) == result_to_dict(want)
        assert batch.cost_table().classes == reference.cost_table().classes

    def test_warm_is_idempotent(self, store_path):
        _h, _lib, search = open_store(store_path)
        batch = BatchSynthesizer(search)
        assert batch.warm() is batch
        assert batch.warm() is batch


class TestServing:
    def test_healthz(self, client, store_path):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["store"] == store_path
        assert health["expanded_to"] == BOUND

    def test_store_info_matches_header(self, client, reference):
        info = client.store_info()
        assert info["expanded_to"] == BOUND
        assert info["total_seen"] == reference.search.total_seen()
        assert info["kernel"] == "vector"
        assert info["track_parents"] is True
        assert info["index_entries"] == len(reference.remainder_index)

    def test_synth_matches_local_store(self, client, reference):
        from repro.gates import named

        payload = client.synth("peres")
        local = reference.synthesize(named.TARGETS["peres"])
        assert payload["cost"] == local.cost == 4
        assert payload["results"] == [result_to_dict(local)]

    def test_synth_all_matches_local_store(self, client, reference):
        from repro.gates import named

        payload = client.synth("peres", all=True)
        local = reference.synthesize_all(named.TARGETS["peres"])
        assert payload["results"] == [result_to_dict(r) for r in local]

    def test_synth_results_are_verified_locally(self, client):
        from repro.sim.verify import verify_synthesis

        results = client.synth_results("peres")
        assert len(results) == 1
        assert verify_synthesis(results[0])

    def test_cost_table_matches_local_store(self, client, reference):
        table = reference.cost_table()
        payload = client.cost_table()
        assert payload["g_sizes"] == [len(c) for c in table.classes]
        assert payload["b_sizes"] == list(table.b_sizes)
        assert payload["a_sizes"] == list(table.a_sizes)

    def test_cost_table_members(self, client, reference):
        payload = client.cost_table(cost_bound=2, include_members=True)
        table = reference.cost_table(2)
        assert payload["members"] == [
            [p.cycle_string() for p in members] for members in table.classes
        ]

    def test_over_bound_target_raises_cost_bound_error(self, client):
        with pytest.raises(CostBoundExceededError) as excinfo:
            client.synth("toffoli")  # cost 5 > stored bound 4
        assert excinfo.value.cost_bound == BOUND

    def test_per_query_cost_bound(self, client):
        assert client.synth("peres", cost_bound=4)["cost"] == 4
        with pytest.raises(CostBoundExceededError) as excinfo:
            client.synth("peres", cost_bound=3)
        assert excinfo.value.cost_bound == 3
        # A target missing from the index entirely must still cite the
        # *query* bound (like a local BatchSynthesizer(cost_bound=3)),
        # not the deeper serving bound.
        with pytest.raises(CostBoundExceededError) as excinfo:
            client.synth("toffoli", cost_bound=3)
        assert excinfo.value.cost_bound == 3

    def test_bad_target_is_structured_error(self, client):
        with pytest.raises(InvalidPermutationError):
            client.synth("(1,2,99)")

    def test_http_healthz_and_synth(self, server):
        status, health = http_request(server.address_text, "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, payload = http_request(
            server.address_text, "/synth", method="POST",
            body={"target": "peres"},
        )
        assert status == 200 and payload["cost"] == 4

    def test_http_error_statuses(self, server):
        status, body = http_request(server.address_text, "/no-such")
        assert status == 400 and body["error"]["code"] == "protocol"
        status, body = http_request(
            server.address_text, "/synth", method="POST",
            body={"target": "toffoli"},
        )
        assert status == 422
        assert body["error"]["code"] == "cost-bound-exceeded"


class TestMalformedRequests:
    def test_bad_json_line_yields_protocol_error(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"{not json at all\n")
            stream.flush()
            import json

            reply = json.loads(stream.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "protocol"
            # The connection survives a malformed line.
            stream.write(
                b'{"id": 2, "op": "healthz", "params": {}}\n'
            )
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply["ok"] is True and reply["id"] == 2

    def test_unknown_op_names_the_op(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"id": 1, "op": "bogus"}\n')
            stream.flush()
            import json

            reply = json.loads(stream.readline())
            assert reply["ok"] is False
            assert "bogus" in reply["error"]["message"]

    def test_large_request_line_is_served_not_reset(self, server):
        # Lines between the old 1 MB stream limit and MAX_BODY used to
        # be dropped with a silent connection reset; they must parse
        # (and here fail as a bad target, structurally).
        spec = "(" + "9" * (2 << 20) + ")"
        with ServeClient(server.address_text) as handle:
            with pytest.raises(InvalidPermutationError):
                handle.synth(spec)
            assert handle.healthz()["status"] == "ok"  # conn still usable

    def test_oversized_line_gets_structured_refusal(self, server):
        import json

        from repro.server.protocol import MAX_BODY

        blob = b'{"id":1,"op":"synth","params":{"target":"' + (
            b"x" * (MAX_BODY + 1024)
        )
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(blob)
            reply = json.loads(sock.makefile("rb").readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "protocol"
            assert "exceeds" in reply["error"]["message"]

    def test_http_garbage_gets_400(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert sock.recv(200).startswith(b"HTTP/1.1 400")

    def test_client_rejects_wrong_params_type(self, client):
        with pytest.raises(ProtocolError):
            client.call("synth", target=123)

    @pytest.mark.parametrize("op, params", [
        ("synth", {"target": "peres", "cost_bound": True}),
        ("synth-batch", {"targets": ["peres"], "cost_bound": True}),
        ("cost-table", {"cost_bound": False}),
        ("synth", {"target": "(1,2)", "allow_not": "false"}),
        ("synth", {"target": "peres", "allow_not": None}),
        ("synth", {"target": "peres", "all": 1}),
        ("synth-batch", {"targets": ["(1,2)"], "allow_not": 0}),
        ("cost-table", {"include_members": "yes"}),
    ])
    def test_non_boolean_flags_are_refused(self, client, op, params):
        """``true`` is no cost bound and ``"false"`` is not false: the
        wire flags take JSON booleans only."""
        with pytest.raises(ProtocolError):
            client.call(op, **params)


class TestConcurrency:
    def test_concurrent_clients_agree_with_local_store(
        self, server, reference
    ):
        from repro.gates import named

        specs = ["peres", "g2", "g3", "g4"]
        expected = {
            spec: result_to_dict(reference.synthesize(named.TARGETS[spec]))
            for spec in specs
        }
        errors: list = []

        def worker() -> None:
            try:
                with ServeClient(server.address_text) as handle:
                    for _round in range(5):
                        for spec in specs:
                            payload = handle.synth(spec)
                            assert payload["results"][0] == expected[spec]
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_64_target_batch_identical_to_synthesize_many(
        self, server, reference, store_path
    ):
        """A served batch equals ``execute_query`` (what ``repro replay``
        runs) byte for byte, and its results equal ``synthesize_many``.

        Two inputs: 64 in-bound targets spread over every cost level,
        NOT layers included (the S8 coset), exactly as a traffic mix
        would be; and a three-chunk batch with failing specs on both
        sides of each chunk boundary.
        """
        targets = []
        for cost in range(BOUND + 1):
            targets.extend(reference.targets_at_cost(cost, True))
        mix = [target.cycle_string() for target in targets[:64]]
        assert len(mix) == 64
        straddling = mix[:2 * BATCH_CHUNK + 8]
        for index, bad in ((BATCH_CHUNK - 1, "(1,2,99)"),
                           (BATCH_CHUNK, "toffoli"),
                           (2 * BATCH_CHUNK - 1, "not-a-gate"),
                           (2 * BATCH_CHUNK, "fredkin")):
            straddling[index] = bad
        state = open_store_state(store_path)
        for specs, failures in ((mix, 0), (straddling, 4)):
            with ServeClient(server.address_text) as handle:
                reply = handle.synth_batch(specs)
            assert reply == execute_query(
                state, "synth-batch", {"targets": specs, "allow_not": True}
            )
            assert reply["count"] == len(specs)
            assert reply["failures"] == failures
            ok = [spec not in ("(1,2,99)", "toffoli", "not-a-gate",
                               "fredkin") for spec in specs]
            assert [entry["ok"] for entry in reply["results"]] == ok
            want = [
                result_to_dict(result)
                for result in reference.synthesize_many(
                    [target for target, good in zip(targets, ok) if good]
                )
            ]
            got = [entry["result"] for entry in reply["results"]
                   if entry["ok"]]
            assert got == want

    def test_mixed_batch_reports_per_target_failures(self, client):
        reply = client.synth_batch(["peres", "toffoli", "g2"])
        oks = [entry["ok"] for entry in reply["results"]]
        assert oks == [True, False, True]
        assert reply["failures"] == 1
        error = reply["results"][1]["error"]
        assert error["code"] == "cost-bound-exceeded"

    def test_unparseable_spec_fails_only_its_entry(self, client, reference):
        from repro.gates import named

        reply = client.synth_batch(["(1,2,99)", "peres"])
        assert [entry["ok"] for entry in reply["results"]] == [False, True]
        assert reply["results"][0]["error"]["code"] == "bad-target"
        assert reply["results"][1]["result"] == result_to_dict(
            reference.synthesize(named.TARGETS["peres"])
        )


class TestReload:
    def test_in_process_reload_swaps_atomically(self, store_path):
        with BackgroundServer(store_path) as srv:
            with ServeClient(srv.address_text) as handle:
                before = handle.healthz()["reloads"]
                old = handle.synth("peres")
                srv.reload()
                health = handle.healthz()
                assert health["reloads"] == before + 1
                assert health["last_reload_error"] is None
                assert handle.synth("peres") == old

    def test_failed_reload_keeps_serving(self, store_path, tmp_path):
        import shutil

        moving = tmp_path / "moving.rpro"
        shutil.copy(store_path, moving)
        with BackgroundServer(str(moving)) as srv:
            with ServeClient(srv.address_text) as handle:
                old = handle.synth("peres")
                # Replace (never truncate!) the store with garbage: the
                # server's memmap of the old inode must stay intact, so
                # corruption arrives the way `save_search` writes --
                # atomically, via rename.
                corrupt = tmp_path / "corrupt.tmp"
                corrupt.write_bytes(b"definitely not a store")
                os.replace(corrupt, moving)
                srv.reload()
                health = handle.healthz()
                assert health["reloads"] == 0
                assert "StoreError" in health["last_reload_error"]
                # The original store keeps serving.
                assert handle.synth("peres") == old

    def test_store_dir_rescan_picks_up_new_stores(
        self, store_path, shallow_store_path, tmp_path
    ):
        directory = tmp_path / "stores"
        directory.mkdir()
        shutil.copy(store_path, directory / "deep.rpro")
        with BackgroundServer([], store_dir=str(directory)) as srv:
            with ServeClient(srv.address_text) as handle:
                assert sorted(handle.healthz()["stores"]) == ["deep"]
                shutil.copy(shallow_store_path, directory / "shallow.rpro")
                srv.reload()
                health = handle.healthz()
                assert sorted(health["stores"]) == ["deep", "shallow"]
                assert health["reloads"] == 1
                assert handle.synth("swap_bc", store="shallow")["cost"] == 3

    def test_reload_mid_batch_keeps_the_batch_on_the_old_store(
        self, store_path, shallow_store_path, reference, tmp_path
    ):
        """A SIGHUP arriving while a long batch runs reloads the store
        before the batch ends; the batch keeps answering from the
        registry it resolved (cost 4 is in bound), and the next query
        sees the new one (a cost-3 store refuses cost 4)."""
        moving = tmp_path / "moving.rpro"
        shutil.copy(store_path, moving)
        specs = [t.cycle_string() for t in reference.targets_at_cost(4, True)]
        with _serve_process(str(moving)) as (proc, address):
            with ServeClient(address) as handle:
                batch = _sized_batch(specs, 1.5, handle)
                # Replace (never truncate) the store, as save_search
                # does.  The server keeps its map of the old file until
                # the reload.
                shutil.copy(shallow_store_path, tmp_path / "next.tmp")
                os.replace(tmp_path / "next.tmp", moving)
                seen = handle.healthz()["queries"]["synth-batch"]
                done = threading.Event()
                replies: list = []

                def run_batch() -> None:
                    with ServeClient(address, timeout=120) as batcher:
                        replies.append(batcher.synth_batch(batch))
                    done.set()

                thread = threading.Thread(target=run_batch)
                thread.start()
                _wait_for_query(handle, "synth-batch", seen)
                proc.send_signal(signal.SIGHUP)
                _wait_for_reloads(handle, 1)
                reloaded_mid_batch = not done.is_set()
                thread.join(timeout=120)
                assert reloaded_mid_batch
                reply = replies[0]
                assert reply["failures"] == 0
                assert {entry["result"]["cost"]
                        for entry in reply["results"]} == {4}
                with pytest.raises(CostBoundExceededError):
                    handle.synth(specs[0])


class TestInlineExecution:
    """Queries run on the event loop; a long batch yields between chunks."""

    def test_long_batch_does_not_stall_other_connections(
        self, store_path, reference
    ):
        specs = []
        for cost in range(BOUND + 1):
            specs.extend(t.cycle_string()
                         for t in reference.targets_at_cost(cost, True))
        with _serve_process(store_path) as (_proc, address):
            with ServeClient(address) as handle:
                batch = _sized_batch(specs, 1.5, handle)
            done = threading.Event()
            walls: list = []

            def run_batch() -> None:
                with ServeClient(address, timeout=120) as batcher:
                    started = time.perf_counter()
                    reply = batcher.synth_batch(batch)
                    walls.append(time.perf_counter() - started)
                assert reply["failures"] == 0
                done.set()

            thread = threading.Thread(target=run_batch)
            thread.start()
            time.sleep(0.1)  # let the batch line reach the server first
            latencies = []
            with ServeClient(address) as handle:
                while not done.is_set():
                    started = time.perf_counter()
                    assert handle.synth("peres")["cost"] == 4
                    latencies.append(time.perf_counter() - started)
            thread.join(timeout=120)
        assert walls and walls[0] >= 1.0, walls
        assert latencies
        assert max(latencies) < 0.25 * walls[0], (
            max(latencies), walls[0], len(latencies)
        )

    @pytest.mark.parametrize("argv", [
        ["serve", "x.rpro", "--workers", "2"],
        ["serve", "x.rpro", "--max-batch", "8"],
        ["fleet", "serve", "x.rpro", "--workers", "2"],
        ["fleet", "serve", "x.rpro", "--max-batch", "8"],
    ], ids=["serve-workers", "serve-max-batch", "fleet-workers",
            "fleet-max-batch"])
    def test_pool_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err


class TestErrorSplit:
    """Client mistakes must not inflate the server-fault signal."""

    def test_client_errors_counted_separately(self, client):
        before = client.healthz()
        with pytest.raises(InvalidPermutationError):
            client.synth("(1,2,99)")
        with pytest.raises(CostBoundExceededError):
            client.synth("peres", cost_bound=0)
        after = client.healthz()
        assert after["client_errors"] == before["client_errors"] + 2
        assert after["server_errors"] == before["server_errors"]
        # The pre-split key stays as the sum for old scrapers.
        assert after["errors"] == (
            after["client_errors"] + after["server_errors"]
        )


class TestHealthzPercentiles:
    def test_latency_and_queue_wait_percentiles(self, client):
        for _ in range(5):
            client.synth("peres")
        health = client.healthz()
        for dimension in ("latency_ms", "queue_wait_ms"):
            stats = health[dimension]["synth"]
            assert stats["count"] >= 5
            assert 0.0 <= stats["p50"] <= stats["p90"] <= stats["p99"]
        # healthz itself is measured too (inline, zero queue wait).
        assert health["latency_ms"]["healthz"]["count"] >= 1
        assert health["queue_wait_ms"]["healthz"]["p99"] == 0.0


class TestMultiStore:
    def test_healthz_lists_both_stores(self, multi, store_path):
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as handle:
            health = handle.healthz()
        assert sorted(health["stores"]) == ["deep", "shallow"]
        assert health["stores"]["deep"]["path"] == store_path
        assert health["stores"]["deep"]["expanded_to"] == BOUND
        assert health["stores"]["shallow"]["expanded_to"] == SHALLOW_BOUND
        # Single-store compatibility fields go null on a multi server.
        assert health["store"] is None and health["expanded_to"] is None

    def test_routing_matches_single_store_servers(
        self, multi, server, shallow_server
    ):
        """Byte-identity bar: one two-store process == two one-store ones."""
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as both, ServeClient(
            server.address_text
        ) as deep_only, ServeClient(shallow_server.address_text) as shallow_only:
            for spec in ("peres", "g2", "swap_bc"):
                assert both.synth(spec, store="deep") == deep_only.synth(spec)
            assert both.synth("swap_bc", store="shallow") == (
                shallow_only.synth("swap_bc")
            )
            # Same closure, different bounds: the shallow alias must
            # refuse what the deep one serves.
            assert both.synth("peres", store="deep")["cost"] == 4
            with pytest.raises(CostBoundExceededError) as excinfo:
                both.synth("peres", store="shallow")
            assert excinfo.value.cost_bound == SHALLOW_BOUND
            assert both.cost_table(store="deep") == deep_only.cost_table()
            assert both.cost_table(store="shallow") == (
                shallow_only.cost_table()
            )

    def test_store_info_carries_alias(self, multi):
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as handle:
            info = handle.store_info(store="shallow")
        assert info["alias"] == "shallow"
        assert info["expanded_to"] == SHALLOW_BOUND

    def test_no_selector_is_structured_ambiguity_error(self, multi):
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as handle:
            with pytest.raises(ProtocolError) as excinfo:
                handle.synth("peres")
            message = str(excinfo.value)
            assert "deep" in message and "shallow" in message
            # The connection survives the refusal.
            assert handle.healthz()["status"] == "ok"

    def test_missing_alias_is_structured_error_not_drop(self, multi):
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as handle:
            with pytest.raises(ProtocolError) as excinfo:
                handle.synth("peres", store="nope")
            assert "nope" in str(excinfo.value)
            assert handle.healthz()["status"] == "ok"
        status, body = http_request(
            srv.address_text, "/synth?store=nope", method="POST",
            body={"target": "peres"},
        )
        assert status == 400
        assert body["error"]["code"] == "protocol"

    def test_fingerprint_routing(self, multi, server):
        srv, _sock, _log = multi
        with ServeClient(srv.address_text) as handle:
            info = handle.store_info(store="deep")
            fingerprint = (
                f"{info['library_fingerprint']}:{info['cost_fingerprint']}"
            )
            # Both stores are the same library + cost model, so the
            # full fingerprint pair is ambiguous between the aliases.
            with pytest.raises(ProtocolError) as excinfo:
                handle.synth("peres", store=fingerprint)
            assert "ambiguous" in str(excinfo.value)
        # Against the single-store server the same fingerprint resolves.
        with ServeClient(server.address_text) as handle:
            assert handle.synth("peres", store=fingerprint)["cost"] == 4

    def test_http_store_selector_via_body(self, multi):
        srv, _sock, _log = multi
        status, deep = http_request(
            srv.address_text, "/synth", method="POST",
            body={"target": "swap_bc", "store": "deep"},
        )
        status2, shallow = http_request(
            srv.address_text, "/synth?store=shallow", method="POST",
            body={"target": "swap_bc"},
        )
        assert status == status2 == 200
        assert deep == shallow  # same minimal circuit from both stores


class TestUnixTransport:
    def test_unix_and_tcp_answers_are_identical(self, multi):
        srv, sock, _log = multi
        with ServeClient(f"unix:{sock}", store="deep") as unix_handle:
            with ServeClient(srv.address_text, store="deep") as tcp_handle:
                assert unix_handle.synth("peres") == tcp_handle.synth("peres")
                assert unix_handle.synth_batch(["peres", "g2"]) == (
                    tcp_handle.synth_batch(["peres", "g2"])
                )
        assert unix_handle.address == f"unix:{sock}"

    def test_http_over_unix_socket(self, multi):
        _srv, sock, _log = multi
        status, health = http_request(f"unix:{sock}", "/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_wait_until_ready_over_unix(self, multi):
        _srv, sock, _log = multi
        assert wait_until_ready(f"unix:{sock}", timeout=10)["status"] == "ok"

    def test_socket_file_vanishes_on_shutdown(self, store_path):
        workdir = tempfile.mkdtemp(prefix="repro-sock-")
        sock = os.path.join(workdir, "one.sock")
        try:
            with BackgroundServer(store_path, unix=sock) as srv:
                with ServeClient(f"unix:{sock}") as handle:
                    assert handle.synth("peres")["cost"] == 4
                assert os.path.exists(sock)
            assert not os.path.exists(sock)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_unix_only_server_skips_tcp(self, store_path):
        workdir = tempfile.mkdtemp(prefix="repro-sock-")
        sock = os.path.join(workdir, "only.sock")
        try:
            with BackgroundServer(store_path, port=None, unix=sock) as srv:
                assert srv._address is None  # no TCP listener bound
                with ServeClient(f"unix:{sock}") as handle:
                    assert handle.synth("peres")["cost"] == 4
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_live_socket_is_refused_not_hijacked(self, store_path):
        from repro.errors import ReproError

        workdir = tempfile.mkdtemp(prefix="repro-sock-")
        sock = os.path.join(workdir, "live.sock")
        try:
            with BackgroundServer(store_path, unix=sock):
                with pytest.raises(ReproError) as excinfo:
                    BackgroundServer(store_path, port=None, unix=sock).start()
                assert "already accepting" in str(excinfo.value)
                # The original server's socket survived the collision.
                with ServeClient(f"unix:{sock}") as handle:
                    assert handle.healthz()["status"] == "ok"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_stale_socket_is_cleaned_up(self, store_path):
        workdir = tempfile.mkdtemp(prefix="repro-sock-")
        sock = os.path.join(workdir, "stale.sock")
        try:
            # A dead server's leftover: bound, never accepting again.
            stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            stale.bind(sock)
            stale.close()
            with BackgroundServer(store_path, unix=sock):
                with ServeClient(f"unix:{sock}") as handle:
                    assert handle.synth("peres")["cost"] == 4
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_all_digit_alias_routes_over_http(self, store_path):
        with BackgroundServer([f"007={store_path}"]) as srv:
            status, payload = http_request(
                srv.address_text, "/synth?store=007", method="POST",
                body={"target": "peres"},
            )
            assert status == 200 and payload["cost"] == 4
            status, body = http_request(
                srv.address_text, "/synth", method="POST",
                body={"target": "peres", "store": 7},
            )
            assert status == 400  # ill-typed selector, same as NDJSON
            assert body["error"]["code"] == "protocol"


class TestAccessLog:
    @staticmethod
    def _records_when(log, predicate, timeout=5.0):
        """Poll the log until *predicate*(records) holds (writes are
        fire-and-forget on the server's log thread, so a just-answered
        request's record can trail its response by a moment)."""
        deadline = time.monotonic() + timeout
        while True:
            records = load_access_log(log)
            if predicate(records) or time.monotonic() > deadline:
                return records
            time.sleep(0.01)

    def test_one_record_per_request(self, multi):
        srv, sock, log = multi
        base = len(self._records_when(log, lambda r: False, timeout=0.2))
        with ServeClient(f"unix:{sock}", store="deep") as handle:
            handle.synth("peres")
            handle.synth_batch(["peres", "swap_bc"])
            with pytest.raises(ProtocolError):
                handle.synth("peres", store="nope")
            handle.healthz()
        records = self._records_when(
            log, lambda r: len(r) >= base + 4
        )[base:]
        assert [r["op"] for r in records] == [
            "synth", "synth-batch", "synth", "healthz",
        ]
        assert records[0]["store"] == "deep"
        assert records[0]["outcome"] == "ok"
        assert records[2]["outcome"] == "protocol"
        assert records[2]["store"] == "nope"  # the selector it sent
        for record in records:
            assert record["queue_wait_ms"] >= 0.0
            assert record["execute_ms"] >= 0.0
            # total spans queue wait + execution (rounding-tolerant).
            assert record["total_ms"] + 0.01 >= record["execute_ms"]

    def test_malformed_access_log_is_refused(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"op": "synth"}\n')
        with pytest.raises(SpecificationError):
            load_access_log(path)
        path.write_text("not json\n")
        with pytest.raises(SpecificationError):
            load_access_log(path)


class TestWaitUntilReady:
    def test_fails_fast_when_server_never_comes_up(self):
        # Bind-then-close guarantees a port that refuses connections.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(ServerError) as excinfo:
            wait_until_ready(f"127.0.0.1:{port}", timeout=0.4, interval=0.01)
        elapsed = time.monotonic() - started
        assert elapsed < 3.0, f"gave up after {elapsed:.1f}s, not ~0.4s"
        assert "not ready" in str(excinfo.value)

    def test_tiny_timeout_still_attempts_once(self, server):
        health = wait_until_ready(server.address_text, timeout=0.001)
        assert health["status"] == "ok"

    def test_late_listener_is_seen_within_one_short_poll(self):
        """A server that starts listening mid-wait is noticed at once,
        not at the next step of a geometric backoff (a fleet routes
        nothing until its last replica is seen)."""
        workdir = tempfile.mkdtemp(prefix="repro-sock-")
        path = os.path.join(workdir, "late.sock")
        listening_at: list[float] = []

        def listen_late():
            time.sleep(0.4)
            with socket.socket(socket.AF_UNIX) as listener:
                listener.bind(path)
                listener.listen()
                listening_at.append(time.monotonic())
                listener.settimeout(10)
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as reader:
                    request = json.loads(reader.readline())
                    conn.sendall(
                        encode_response(request.get("id"), {"status": "ok"})
                    )

        thread = threading.Thread(target=listen_late, daemon=True)
        thread.start()
        try:
            health = wait_until_ready(f"unix:{path}", timeout=10)
            returned_at = time.monotonic()
        finally:
            thread.join(timeout=10)
            shutil.rmtree(workdir, ignore_errors=True)
        assert not thread.is_alive()
        assert health["status"] == "ok"
        lag = returned_at - listening_at[0]
        assert lag < 0.1, f"ready {lag * 1e3:.0f} ms after the listener"


class TestServeSubprocess:
    """The real `repro serve` process: ready line, SIGHUP, SIGTERM."""

    def test_sighup_reload_and_sigterm_shutdown(self, store_path):
        with _serve_process(store_path) as (proc, address):
            with ServeClient(address) as handle:
                assert handle.synth("peres")["cost"] == 4
                proc.send_signal(signal.SIGHUP)
                _wait_for_reloads(handle, 1)
                assert handle.synth("peres")["cost"] == 4

            # An idle connection left open must not hang the graceful
            # shutdown (Python >= 3.12 wait_closed() waits on handlers).
            idle = ServeClient(address).connect()
            try:
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=20) == 0
            finally:
                idle.close()


class TestCliGolden:
    """`synth --server` output is byte-identical to `synth --store`."""

    @staticmethod
    def _body(text: str) -> str:
        """Everything after the backend banner (the first line)."""
        return text.split("\n", 1)[1]

    def test_single_target_output_identical(
        self, server, store_path, capsys, tmp_path
    ):
        store_save = tmp_path / "result.json"
        assert main(
            ["synth", "peres", "--store", store_path,
             "--save", str(store_save)]
        ) == 0
        store_out = capsys.readouterr().out
        server_save = tmp_path / "result_server.json"
        assert main(
            ["synth", "peres", "--server", server.address_text,
             "--save", str(server_save)]
        ) == 0
        server_out = capsys.readouterr().out
        assert self._body(store_out).replace(
            str(store_save), "SAVE"
        ) == self._body(server_out).replace(str(server_save), "SAVE")
        assert store_save.read_bytes() == server_save.read_bytes()

    def test_all_implementations_identical(self, server, store_path, capsys):
        assert main(["synth", "g4", "--all", "--store", store_path]) == 0
        store_out = capsys.readouterr().out
        assert main(
            ["synth", "g4", "--all", "--server", server.address_text]
        ) == 0
        server_out = capsys.readouterr().out
        assert self._body(store_out) == self._body(server_out)

    def test_batch_output_identical(
        self, server, store_path, capsys, tmp_path
    ):
        batch_file = tmp_path / "targets.txt"
        batch_file.write_text("peres\ng2\ntoffoli\n(5,7,6,8)\n")
        store_code = main(
            ["synth", "--store", store_path, "--batch", str(batch_file)]
        )
        store_out = capsys.readouterr().out
        server_code = main(
            ["synth", "--server", server.address_text,
             "--batch", str(batch_file)]
        )
        server_out = capsys.readouterr().out
        assert store_code == server_code == 1  # toffoli exceeds bound 4
        assert self._body(store_out) == self._body(server_out)

    def test_unix_transport_output_identical(self, multi, store_path, capsys):
        """The golden byte-identity bar extends to the UNIX socket."""
        _srv, sock, _log = multi
        assert main(["synth", "peres", "--store", store_path]) == 0
        store_out = capsys.readouterr().out
        assert main(
            ["synth", "peres", "--server", f"unix:{sock}",
             "--store-alias", "deep"]
        ) == 0
        unix_out = capsys.readouterr().out
        assert self._body(store_out) == self._body(unix_out)

    def test_unix_batch_output_identical(
        self, multi, store_path, capsys, tmp_path
    ):
        _srv, sock, _log = multi
        batch_file = tmp_path / "targets.txt"
        batch_file.write_text("peres\ng2\ntoffoli\n(5,7,6,8)\n")
        store_code = main(
            ["synth", "--store", store_path, "--batch", str(batch_file)]
        )
        store_out = capsys.readouterr().out
        unix_code = main(
            ["synth", "--server", f"unix:{sock}", "--store-alias", "deep",
             "--batch", str(batch_file)]
        )
        unix_out = capsys.readouterr().out
        assert store_code == unix_code == 1  # toffoli exceeds bound 4
        assert self._body(store_out) == self._body(unix_out)

    def test_store_and_server_are_mutually_exclusive(
        self, server, store_path, capsys
    ):
        assert main(
            ["synth", "peres", "--store", store_path,
             "--server", server.address_text]
        ) == 1
        assert "at most one" in capsys.readouterr().err

    def test_store_alias_requires_server(self, store_path, capsys):
        assert main(
            ["synth", "peres", "--store", store_path, "--store-alias", "x"]
        ) == 1
        assert "--store-alias requires --server" in capsys.readouterr().err

    def test_no_tcp_requires_unix(self, store_path, capsys):
        assert main(["serve", store_path, "--no-tcp"]) == 1
        assert "--no-tcp requires --unix" in capsys.readouterr().err
        assert main(
            ["serve", store_path, "--no-tcp", "--unix", "/tmp/x.sock",
             "--port", "0"]
        ) == 1
        assert "at most one of --port and --no-tcp" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["serve"], ["fleet", "serve"]])
@pytest.mark.parametrize(
    "args, message",
    [
        ([], "nothing to serve"),
        (["x.rpro", "--no-tcp"], "--no-tcp requires --unix"),
        (
            ["x.rpro", "--no-tcp", "--unix", "x.sock", "--port", "0"],
            "at most one of --port and --no-tcp",
        ),
    ],
    ids=["no-stores", "no-tcp-without-unix", "port-and-no-tcp"],
)
def test_serve_verbs_refuse_before_binding(
    verb, args, message, monkeypatch, capsys
):
    """`serve` and `fleet serve` check what to serve and where to listen
    the same way, and exit 1 before starting anything."""
    import repro.fleet.manager
    import repro.server

    def must_not_start(*_args, **_kwargs):
        raise AssertionError("started despite a refused command line")

    monkeypatch.setattr(repro.server, "run_server", must_not_start)
    monkeypatch.setattr(repro.fleet.manager, "run_fleet", must_not_start)
    assert main([*verb, *args]) == 1
    assert message in capsys.readouterr().err


WEIGHTED =CostModel(v_cost=2, vdag_cost=2)


@pytest.fixture(scope="module")
def weighted_store_path(tmp_path_factory):
    """A store expanded under V/V+ cost 2 (Peres costs 7 there)."""
    path = tmp_path_factory.mktemp("serve-weighted") / "weighted.rpro"
    search = CascadeSearch(GateLibrary(3), WEIGHTED, track_parents=True)
    search.extend_to(7)
    save_search(search, path)
    return str(path)


class TestWeightedCostModel:
    """Answers are checked under the store's cost model, not unit cost."""

    def test_store_and_server_verify_and_agree(
        self, weighted_store_path, capsys, tmp_path
    ):
        assert main(["synth", "peres", "--store", weighted_store_path]) == 0
        store_out = capsys.readouterr().out
        assert "minimal quantum cost 7" in store_out
        assert "FAILED" not in store_out
        batch_file = tmp_path / "targets.txt"
        batch_file.write_text("peres\ng2\n")
        assert main(["synth", "--store", weighted_store_path,
                     "--batch", str(batch_file)]) == 0
        store_batch = capsys.readouterr().out
        with BackgroundServer(weighted_store_path) as srv:
            assert main(
                ["synth", "peres", "--server", srv.address_text]
            ) == 0
            server_out = capsys.readouterr().out
            assert main(["synth", "--server", srv.address_text,
                         "--batch", str(batch_file)]) == 0
            server_batch = capsys.readouterr().out
        body = TestCliGolden._body
        assert body(store_out) == body(server_out)
        assert body(store_batch) == body(server_batch)

    def test_served_record_certifies_under_the_store_model(
        self, weighted_store_path
    ):
        from repro.core.cost import UNIT_COST
        from repro.io import result_from_dict

        with BackgroundServer(weighted_store_path) as srv:
            with ServeClient(srv.address_text) as handle:
                record = handle.synth("peres")["results"][0]
                (result,) = handle.synth_results("peres")
        assert result.cost == 7
        assert result_from_dict(record, WEIGHTED) == result
        with pytest.raises(SpecificationError, match="cost"):
            result_from_dict(record, UNIT_COST)


@pytest.fixture(scope="module")
def ternary_store_path(tmp_path_factory):
    """A two-wire Di & Wei ternary store (records carry ``radix``)."""
    path = tmp_path_factory.mktemp("serve-ternary") / "ternary.rpro"
    search = CascadeSearch(library_for(2, 3), track_parents=True)
    search.extend_to(4)
    save_search(search, path)
    return str(path)


def _reference_records(reference, spec, radix, allow_not, all_):
    """The target and ``result_to_dict`` records of a local synthesis."""
    n_qubits = reference.search.library.n_qubits
    target = parse_target(spec, n_qubits=n_qubits, radix=radix)
    if all_:
        results = reference.synthesize_all(target, allow_not=allow_not)
    else:
        results = [reference.synthesize(target, allow_not=allow_not)]
    return target, [result_to_dict(result) for result in results]


class TestServedRecordsDifferential:
    """``execute_query`` against ``result_to_dict(batch.synthesize*())``.

    The served path renders each record straight from the index hit;
    the reference builds ``SynthesisResult`` objects through a local
    ``BatchSynthesizer(search, cost_bound=bound)`` at the query's bound.
    Both must give the same payload bytes, errors included, on a binary
    store, a weighted-cost store and a ternary store.
    """

    BAD_SPECS = ("(1,2,99)", "not-a-gate", "(1,1)")

    @pytest.fixture(
        scope="class",
        params=["store_path", "weighted_store_path", "ternary_store_path"],
    )
    def served(self, request):
        path = request.getfixturevalue(request.param)
        state = open_store_state(path)
        _header, _library, search = open_store(path)
        binary = state.library.space.radix == 2
        full = BatchSynthesizer(search)
        pools = [
            [target.cycle_string()
             for target in full.targets_at_cost(cost, binary)]
            for cost in range(full.cost_bound + 1)
        ]
        references = {
            bound: BatchSynthesizer(search, cost_bound=bound)
            for bound in range(full.cost_bound + 1)
        }
        return SimpleNamespace(
            state=state,
            pools=[pool for pool in pools if pool],
            references=references,
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_payload_bytes_equal_the_reference(self, served, data):
        state = served.state
        radix = state.library.space.radix
        specs = data.draw(st.lists(
            st.one_of(
                st.sampled_from(served.pools).flatmap(st.sampled_from),
                st.sampled_from(self.BAD_SPECS),
            ),
            min_size=1, max_size=BATCH_CHUNK + 4,
        ))
        bound = data.draw(st.one_of(
            st.none(), st.integers(0, state.cost_bound)
        ))
        allow_not = data.draw(st.booleans())
        all_ = data.draw(st.booleans())
        params = {"allow_not": allow_not}
        if bound is not None:
            params["cost_bound"] = bound
        reference = served.references[
            state.cost_bound if bound is None else bound
        ]

        try:
            target, records = _reference_records(
                reference, specs[0], radix, allow_not, all_
            )
            want = {"target": target.cycle_string(),
                    "cost": records[0]["cost"], "results": records}
        except ReproError as exc:
            want = error_payload(exc)
        try:
            got = execute_query(
                state, "synth", {"target": specs[0], "all": all_, **params}
            )
        except ReproError as exc:
            got = error_payload(exc)
        assert json.dumps(got) == json.dumps(want)

        entries = []
        for spec in specs:
            try:
                _target, records = _reference_records(
                    reference, spec, radix, allow_not, False
                )
                entries.append({"ok": True, "result": records[0]})
            except ReproError as exc:
                entries.append({"ok": False, "error": error_payload(exc)[0]})
        want = {
            "results": entries,
            "count": len(entries),
            "failures": sum(not entry["ok"] for entry in entries),
        }
        got = execute_query(
            state, "synth-batch", {"targets": specs, **params}
        )
        assert json.dumps(got) == json.dumps(want)


@pytest.fixture(scope="module")
def corrupt_store_path(tmp_path_factory):
    """A cost-5 v2 store whose ``gates`` section is off by one (mod 18).

    The lazy open checks only the index sections' digests, so the store
    opens and serves; only certification can catch the wrong witnesses.
    """
    import numpy as np

    from repro.io import read_header

    path = tmp_path_factory.mktemp("serve-corrupt") / "corrupt.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(5)
    save_search(search, path, format_version=2)
    header = read_header(path)
    data = bytearray(path.read_bytes())
    offset, length = header.sections["gates"]
    start = len(data) - header.payload_size + offset
    gates = np.frombuffer(bytes(data[start:start + length]), dtype="<i4")
    data[start:start + length] = ((gates + 1) % 18).astype("<i4").tobytes()
    path.write_bytes(bytes(data))
    return str(path)


class TestCorruptStore:
    """A wrong witness becomes STORE_CORRUPT, never an ``ok`` answer."""

    def test_verify_store_certifies_witnesses(
        self, corrupt_store_path, tmp_path
    ):
        """The shifted ``gates`` section under a rewritten digest (and the
        identity row's ``-1`` kept, so the structural checks pass) fails
        ``repro store verify`` at its witnesses, not only at serve time."""
        import hashlib

        import numpy as np

        from repro.errors import StoreError
        from repro.io import read_header, verify_store

        header = read_header(corrupt_store_path)
        data = bytearray(Path(corrupt_store_path).read_bytes())
        payload_start = len(data) - header.payload_size
        offset, length = header.sections["gates"]
        start = payload_start + offset
        gates = np.frombuffer(
            bytes(data[start:start + length]), dtype="<i4"
        ).copy()
        gates[0] = -1
        data[start:start + length] = gates.tobytes()
        frame = json.loads(data[12:12 + int.from_bytes(data[8:12], "little")])
        frame["payload_sha256"] = hashlib.sha256(
            bytes(data[payload_start:])
        ).hexdigest()
        blob = json.dumps(frame, separators=(",", ":")).encode()
        blob += b" " * ((-(12 + len(blob))) % 8)
        bad = tmp_path / "rehashed.rpro"
        bad.write_bytes(
            bytes(data[:8]) + len(blob).to_bytes(4, "little") + blob
            + bytes(data[payload_start:])
        )
        assert read_header(bad).payload_sha256 == frame["payload_sha256"]
        with pytest.raises(StoreError, match="fails certification"):
            verify_store(bad)
        assert main(["store", "verify", str(bad)]) == 1

    TARGETS = ["toffoli", "peres", "g2", "g3", "(5,7,6,8)"]

    def test_raw_ndjson_synth_is_store_corrupt(self, corrupt_store_path):
        with BackgroundServer(corrupt_store_path) as srv:
            with socket.create_connection(srv.address, timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    b'{"id": 1, "op": "synth", '
                    b'"params": {"target": "toffoli"}}\n'
                )
                stream.flush()
                reply = json.loads(stream.readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "STORE_CORRUPT"
        # A 5xx fault: the client rebuilds the error, a router fails over.
        from repro.errors import StoreCorruptError
        from repro.server.protocol import SERVER_FAULT_CODES

        exc = error_to_exception(reply["error"])
        assert isinstance(exc, StoreCorruptError)
        assert error_payload(exc) == (reply["error"], 500)
        assert "STORE_CORRUPT" in SERVER_FAULT_CODES

    def test_batch_reports_store_corrupt_per_entry(self, corrupt_store_path):
        with BackgroundServer(corrupt_store_path) as srv:
            with ServeClient(srv.address_text) as handle:
                reply = handle.synth_batch(self.TARGETS + ["swap_bc"])
        entries = reply["results"]
        assert [entry["ok"] for entry in entries] == [False] * 6
        assert {entry["error"]["code"] for entry in entries} == {
            "STORE_CORRUPT"
        }

    def test_cost_table_members_are_certified(self, corrupt_store_path):
        from repro.errors import StoreCorruptError

        with BackgroundServer(corrupt_store_path) as srv:
            with ServeClient(srv.address_text) as handle:
                # Class sizes come from the index alone: no witness.
                assert handle.cost_table()["g_sizes"][:2] == [1, 6]
                with pytest.raises(StoreCorruptError):
                    handle.cost_table(include_members=True)

    def test_store_cli_refuses_to_print(self, corrupt_store_path, capsys):
        assert main(["synth", "toffoli", "--store", corrupt_store_path]) == 1
        assert "fails certification" in capsys.readouterr().err
