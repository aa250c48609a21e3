"""Telemetry-layer tests: registry, tracing, progress, tailing, e2e.

Unit-tests the Prometheus-text registry (byte-stable rendering, the
parser the CI smoke job uses), trace/span minting and wire validation,
the extracted access-log writer (now with drop/rotation counters), and
the precompute ProgressReporter (seeded-deterministic records; stores
byte-identical with and without one attached).  Then proves the layer
end to end: a live server answers ``GET /metrics`` with text that
parses and agrees with healthz, NDJSON and HTTP requests echo their
``trace_id`` (including into error payloads and the access log), and
one fleet request's trace id is recoverable from the router's access
log, the landing replica's access log, and the client-visible
response -- joined back together by ``repro tail``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import socket
import tempfile
import threading
import time

import pytest

from repro._version import __version__
from repro.client import ServeClient, fetch_metrics, http_request
from repro.core.search import CascadeSearch
from repro.core.store import _SectionCache, save_search
from repro.errors import ProtocolError, SpecificationError
from repro.fleet.manager import BackgroundFleet
from repro.gates.library import GateLibrary
from repro.server import BackgroundServer, parse_endpoint
import repro.telemetry.logwriter as logwriter_module
from repro.telemetry.logwriter import rotated_access_logs
from repro.telemetry import (
    METRICS_CONTENT_TYPE,
    AccessLogWriter,
    MetricsRegistry,
    ProgressReporter,
    TraceSource,
    classify_record,
    format_text,
    format_value,
    parse_prometheus_text,
    sample_value,
    strip_nondeterministic,
    summarize_logs,
    validate_trace_field,
)

BOUND = 4


class _CountingFile:
    """Wraps the writer's file: counts flushes, or fails every flush."""

    def __init__(self, file, fail=False):
        self._file = file
        self.fail = fail
        self.flushes = 0

    def write(self, data):
        return self._file.write(data)

    def flush(self):
        self.flushes += 1
        if self.fail:
            raise OSError(28, "No space left on device")
        self._file.flush()

    def close(self):
        self._file.close()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(BOUND)
    save_search(search, path)
    return str(path)


class TestFormatValue:
    def test_int_valued_floats_render_as_ints(self):
        assert format_value(3.0) == "3"
        assert format_value(0) == "0"
        assert format_value(-2.0) == "-2"

    def test_fractional_floats_round_trip(self):
        assert format_value(0.25) == "0.25"
        assert float(format_value(0.1)) == 0.1

    def test_infinities(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.inc(2)
        assert c.value() == 3

    def test_counter_labels_and_preseed(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "help", labels=("op",))
        c.preseed("synth")
        c.inc(op="healthz")
        assert c.value(op="synth") == 0
        assert c.value(op="healthz") == 1
        assert c.values() == {("healthz",): 1, ("synth",): 0}

    def test_counter_rejects_decrease_and_wrong_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help", labels=("op",))
        with pytest.raises(SpecificationError):
            c.inc(-1, op="a")
        with pytest.raises(SpecificationError):
            c.inc(nope="a")

    def test_callback_counter_is_read_only(self):
        reg = MetricsRegistry()
        state = {"hits": 7}
        c = reg.counter("hits_total", "help", fn=lambda: state["hits"])
        assert c.value() == 7
        state["hits"] = 9
        assert c.value() == 9
        with pytest.raises(SpecificationError):
            c.inc()

    def test_callback_gauge_with_labels(self):
        reg = MetricsRegistry()
        reg.gauge(
            "inflight", "help", labels=("backend",),
            fn=lambda: {"b0": 2, "b1": 0},
        )
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "inflight", backend="b0") == 2
        assert sample_value(samples, "inflight", backend="b1") == 0

    def test_duplicate_registration_raises(self):
        reg = MetricsRegistry()
        reg.counter("dup_total", "help")
        with pytest.raises(SpecificationError):
            reg.gauge("dup_total", "help")

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(SpecificationError):
            reg.counter("bad name", "help")
        with pytest.raises(SpecificationError):
            reg.counter("ok_total", "help", labels=("bad-label",))

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", "help", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "lat_ms_bucket", le="1") == 2
        assert sample_value(samples, "lat_ms_bucket", le="10") == 3
        assert sample_value(samples, "lat_ms_bucket", le="+Inf") == 4
        assert sample_value(samples, "lat_ms_count") == 4
        assert sample_value(samples, "lat_ms_sum") == pytest.approx(106.2)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(SpecificationError):
            reg.histogram("h", "help", buckets=(10.0, 1.0))

    def test_render_is_byte_stable_and_sorted(self):
        def build():
            reg = MetricsRegistry()
            g = reg.gauge("zeta", "last family")
            c = reg.counter("alpha_total", "first family", labels=("op",))
            c.inc(op="b")
            c.inc(op="a")
            g.set(1.5)
            return reg.render()

        first, second = build(), build()
        assert first == second
        assert first.endswith("\n")
        lines = first.splitlines()
        assert lines[0] == "# HELP alpha_total first family"
        assert lines[1] == "# TYPE alpha_total counter"
        assert lines[2] == 'alpha_total{op="a"} 1'
        assert lines[3] == 'alpha_total{op="b"} 1'
        assert "# TYPE zeta gauge" in lines

    def test_render_parse_round_trip_with_escapes(self):
        reg = MetricsRegistry()
        c = reg.counter("esc_total", "help", labels=("path",))
        c.inc(path='a"b\\c')
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "esc_total", path='a"b\\c') == 1

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("a_total 1\na_total 2\n")


class TestTraceSource:
    def test_id_shapes(self):
        source = TraceSource()
        trace, span = source.trace_id(), source.span_id()
        assert len(trace) == 16 and len(span) == 8
        int(trace, 16), int(span, 16)  # both parse as hex

    def test_seeded_source_is_deterministic(self):
        a, b = TraceSource(seed=7), TraceSource(seed=7)
        assert [a.trace_id() for _ in range(5)] == [
            b.trace_id() for _ in range(5)
        ]
        assert a.span_id() == b.span_id()

    def test_unseeded_ids_do_not_repeat(self):
        source = TraceSource()
        ids = {source.trace_id() for _ in range(64)}
        assert len(ids) == 64

    def test_validate_trace_field(self):
        assert validate_trace_field(None, "trace_id") is None
        assert validate_trace_field("abc-123", "trace_id") == "abc-123"
        for bad in ("", 7, "with space", "x" * 129, "new\nline"):
            with pytest.raises(ProtocolError):
                validate_trace_field(bad, "trace_id")


class TestAccessLogWriter:
    def test_writes_records_and_counts_them(self, tmp_path):
        path = tmp_path / "a.ndjson"
        reg = MetricsRegistry()
        writer = AccessLogWriter(str(path), registry=reg)
        writer.start()
        for index in range(5):
            writer.submit({"op": "synth", "index": index})
        writer.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["index"] for line in lines] == list(range(5))
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "repro_log_records_written_total") == 5
        assert sample_value(samples, "repro_log_bytes_written_total") == (
            sum(len(line) + 1 for line in lines)
        )
        assert sample_value(samples, "repro_log_write_errors_total") == 0
        assert sample_value(samples, "repro_log_queue_depth") == 0

    def test_rotation_keeps_whole_lines_and_counts(self, tmp_path):
        path = tmp_path / "rot.ndjson"
        reg = MetricsRegistry()
        writer = AccessLogWriter(
            str(path), max_bytes=200, keep=2, registry=reg
        )
        writer.start()
        for index in range(40):
            writer.submit({"op": "synth", "index": index, "pad": "x" * 40})
        writer.close()
        rotated = [p for p in (f"{path}.1", f"{path}.2") if os.path.exists(p)]
        assert rotated, "expected at least one rotated file"
        assert not os.path.exists(f"{path}.3")
        seen = []
        for file_path in [*reversed(rotated), str(path)]:
            for line in open(file_path, encoding="utf-8"):
                seen.append(json.loads(line)["index"])  # every line parses
        assert seen == sorted(seen)
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "repro_log_rotations_total") >= 1
        assert sample_value(samples, "repro_log_records_written_total") == 40

    def test_submit_before_start_or_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "late.ndjson"
        writer = AccessLogWriter(str(path))
        writer.submit({"early": True})  # not started: silently dropped
        writer.start()
        writer.close()
        writer.submit({"late": True})  # closed: silently dropped
        assert path.read_text() == ""

    def test_burst_is_written_in_order_with_fewer_flushes(self, tmp_path):
        path = tmp_path / "burst.ndjson"
        writer = AccessLogWriter(str(path)).start()
        file = writer._file = _CountingFile(writer._file)
        for index in range(200):
            writer.submit({"index": index})
        writer.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["index"] for line in lines] == list(
            range(200)
        )
        assert 1 <= file.flushes < 200

    def test_record_appears_within_the_window(self, tmp_path):
        """A lone record is written once the gather window closes, with
        no further traffic and no close()."""
        path = tmp_path / "lone.ndjson"
        writer = AccessLogWriter(str(path)).start()
        try:
            started = time.monotonic()
            writer.submit({"lone": True})
            while not path.read_bytes() and time.monotonic() - started < 5:
                time.sleep(0.001)
            waited = time.monotonic() - started
            assert path.read_bytes() == b'{"lone":true}\n'
            assert waited < logwriter_module.BATCH_S + 0.5
        finally:
            writer.close()

    def test_rotation_inside_one_batch_keeps_whole_lines(
        self, tmp_path, monkeypatch
    ):
        # A long window puts the whole burst into one batch, so every
        # rotation below happens between two lines of that batch.
        monkeypatch.setattr(logwriter_module, "BATCH_S", 0.3)
        path = tmp_path / "batch-rot.ndjson"
        reg = MetricsRegistry()
        writer = AccessLogWriter(
            str(path), max_bytes=150, keep=8, registry=reg
        ).start()
        file = writer._file = _CountingFile(writer._file)
        for index in range(12):
            writer.submit({"index": index, "pad": "x" * 40})
        writer.close()
        assert file.flushes == 1  # one run, then the first rotation
        seen = []
        for file_path in rotated_access_logs(path):
            data = file_path.read_bytes()
            assert not data or data.endswith(b"\n")
            seen.extend(json.loads(line)["index"] for line in data.splitlines())
        assert seen == list(range(12))
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "repro_log_rotations_total") >= 3
        assert sample_value(samples, "repro_log_records_written_total") == 12

    def test_failing_flush_counts_every_record_of_its_batch(self, tmp_path):
        path = tmp_path / "full.ndjson"
        reg = MetricsRegistry()
        writer = AccessLogWriter(str(path), registry=reg).start()
        writer._file = _CountingFile(writer._file, fail=True)
        for index in range(50):
            writer.submit({"index": index})  # never raises
        writer.close()
        samples = parse_prometheus_text(reg.render())
        assert sample_value(samples, "repro_log_write_errors_total") == 50
        assert sample_value(samples, "repro_log_records_written_total") == 0
        assert sample_value(samples, "repro_log_bytes_written_total") == 0

    def test_queue_depth_counts_the_open_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(logwriter_module, "BATCH_S", 0.3)
        writer = AccessLogWriter(str(tmp_path / "depth.ndjson")).start()
        try:
            for index in range(5):
                writer.submit({"index": index})
            # The writer has taken the first record off the queue and
            # is waiting out the window; all five still count.
            assert writer.queue_depth() == 5
        finally:
            writer.close()
        assert writer.queue_depth() == 0

    def test_bad_args_raise(self, tmp_path):
        with pytest.raises(SpecificationError):
            AccessLogWriter(str(tmp_path / "x"), max_bytes=0)
        with pytest.raises(SpecificationError):
            AccessLogWriter(str(tmp_path / "x"), keep=0)


class TestProgressReporter:
    def test_records_are_ndjson_with_monotonic_seq(self):
        stream = io.StringIO()
        with ProgressReporter(stream=stream, run_id="r1") as reporter:
            reporter.emit("start", cost_bound=3)
            reporter.emit("level-start", level=1)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["run"] == "r1" for r in records)
        assert all("ts" in r for r in records)
        assert records[0]["event"] == "start"

    def test_strip_nondeterministic(self):
        record = {"event": "level-end", "level": 2, "ts": 1.0,
                  "elapsed_s": 0.5, "size": 9}
        assert strip_nondeterministic(record) == {
            "event": "level-end", "level": 2, "size": 9,
        }

    def test_tty_line_renders_and_close_finishes_it(self):
        tty = io.StringIO()
        reporter = ProgressReporter(tty=tty)
        reporter.emit("commit", level=2, accepted=10, rows=20,
                      dedup_slots=64, dedup_used=20)
        reporter.emit("level-end", level=2, size=10, rows=20, elapsed_s=0.1)
        text = tty.getvalue()
        assert "committing 10" in text
        assert "level 2: 10 new, 20 total rows" in text
        reporter.close()
        assert tty.getvalue().endswith("\n")

    def test_file_path_appends(self, tmp_path):
        path = tmp_path / "prog.ndjson"
        with ProgressReporter(path=str(path)) as reporter:
            reporter.emit("start")
        with ProgressReporter(path=str(path)) as reporter:
            reporter.emit("done", levels=0, rows=1, elapsed_s=0.0)
        events = [
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        ]
        assert events == ["start", "done"]


def _expand_with_progress(**options):
    """Run one search with a reporter; returns (search, records)."""
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream)
    search = CascadeSearch(GateLibrary(3), kernel_options=options or None)
    search.set_progress(reporter)
    search.extend_to(3)
    reporter.close()
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    return search, records


class TestKernelProgressEvents:
    def test_level_events_bracket_every_level(self):
        search, records = _expand_with_progress()
        starts = [r["level"] for r in records if r["event"] == "level-start"]
        ends = [r for r in records if r["event"] == "level-end"]
        assert starts == [1, 2, 3]
        assert [r["level"] for r in ends] == [1, 2, 3]
        for record in ends:
            assert record["size"] == search.level_size(record["level"])
            assert "elapsed_s" in record

    def test_vector_kernel_emits_phase_events_with_dedup_occupancy(self):
        search, records = _expand_with_progress()
        plans = [r for r in records if r["event"] == "plan"]
        commits = [r for r in records if r["event"] == "commit"]
        assert [r["level"] for r in plans] == [1, 2, 3]
        for plan in plans:
            assert plan["planned"] >= plan["kept"] > 0
            assert plan["chunks"] > 0
        assert [r["level"] for r in commits] == [1, 2, 3]
        for commit in commits:
            assert commit["dedup_used"] <= commit["dedup_slots"]
        assert commits[-1]["rows"] == search.stats().total_seen

    def test_parallel_kernel_reports_filter_and_checkpoints(self, tmp_path):
        search, records = _expand_with_progress(
            checkpoint_dir=str(tmp_path / "ck")
        )
        try:
            plans = [r for r in records if r["event"] == "plan"]
            # The relation filter prunes provable duplicates, so the
            # kept count drops below the planned count somewhere.
            assert any(r["kept"] < r["planned"] for r in plans)
            checkpoints = [
                r for r in records if r["event"] == "checkpoint"
            ]
            assert [r["level"] for r in checkpoints] == [1, 2, 3]
            assert all(
                r["path"] == str(tmp_path / "ck") for r in checkpoints
            )
        finally:
            search.close()

    def test_progress_stream_is_deterministic(self):
        _, first = _expand_with_progress()
        _, second = _expand_with_progress()
        assert [strip_nondeterministic(r) for r in first] == [
            strip_nondeterministic(r) for r in second
        ]

    def test_store_bytes_identical_with_and_without_progress(self, tmp_path):
        plain = CascadeSearch(GateLibrary(3))
        plain.extend_to(3)
        instrumented, _records = _expand_with_progress()
        # The header's elapsed_seconds is the one wall-clock byte; zero
        # it on both sides so the comparison isolates telemetry effects.
        plain._elapsed = 0.0
        instrumented._elapsed = 0.0
        save_search(plain, tmp_path / "plain.rpro")
        save_search(instrumented, tmp_path / "instrumented.rpro")
        assert (
            (tmp_path / "plain.rpro").read_bytes()
            == (tmp_path / "instrumented.rpro").read_bytes()
        )


class TestSectionCacheConcurrency:
    def test_concurrent_readers_keep_stats_consistent(self):
        cache = _SectionCache(max_bytes=4096)
        blob = b"x" * 512  # 8 entries fill the cache exactly
        touches_per_thread = 400
        n_threads = 8

        def worker(offset: int) -> None:
            for index in range(touches_per_thread):
                key = ("store", "chunk", (offset + index) % 16)
                if cache.get(key) is None:
                    cache.put(key, blob)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == (
            n_threads * touches_per_thread
        )
        # 16 distinct keys cycling through an 8-entry cache must evict.
        assert stats["evictions"] > 0
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["entries"] == stats["bytes"] // len(blob)

    def test_clear_resets_every_counter(self):
        cache = _SectionCache(max_bytes=1024)
        cache.put(("k", 0), b"data")
        cache.get(("k", 0))
        cache.get(("missing", 1))
        cache.clear()
        assert cache.stats() == {
            "entries": 0, "bytes": 0, "max_bytes": 1024,
            "hits": 0, "misses": 0, "evictions": 0,
        }


def _write_ndjson(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestTail:
    def test_classify_record(self):
        assert classify_record({"op": "synth", "outcome": "ok"}) == "access"
        assert classify_record({"finding": "unhealthy"}) == "ops"
        assert classify_record({"verdict": "applied"}) == "ops"
        assert classify_record({"event": "plan", "seq": 3}) == "progress"
        assert classify_record({"hello": 1}) == "unknown"

    def _fleet_logs(self, tmp_path):
        """A synthetic failover: router record + two replica landings."""
        router_log = tmp_path / "router.access.ndjson"
        replica_log = tmp_path / "b0.access.ndjson"
        replica2_log = tmp_path / "b1.access.ndjson"
        trace = "aabbccdd00112233"
        _write_ndjson(router_log, [{
            "ts": 3.0, "op": "synth", "store": "s", "id": 1,
            "trace_id": trace, "queue_wait_ms": 0.0,
            "execute_ms": 9.0, "total_ms": 9.0, "outcome": "ok",
            "backend": "backend-1",
            "attempts": [
                {"backend": "backend-0", "span_id": "span0001",
                 "outcome": "transport-error", "ms": 4.0},
                {"backend": "backend-1", "span_id": "span0002",
                 "outcome": "ok", "ms": 5.0},
            ],
        }])
        _write_ndjson(replica_log, [{
            "ts": 1.0, "op": "synth", "store": "s", "id": 7,
            "trace_id": trace, "span_id": "span0001",
            "queue_wait_ms": 0.1, "execute_ms": 3.0, "total_ms": 3.5,
            "outcome": "SERVER_FAULT",
        }])
        _write_ndjson(replica2_log, [{
            "ts": 2.0, "op": "synth", "store": "s", "id": 8,
            "trace_id": trace, "span_id": "span0002",
            "queue_wait_ms": 0.2, "execute_ms": 4.0, "total_ms": 4.5,
            "outcome": "ok",
        }])
        return [str(router_log), str(replica_log), str(replica2_log)], trace

    def test_rollups_exclude_router_records(self, tmp_path):
        paths, _trace = self._fleet_logs(tmp_path)
        summary = summarize_logs(paths)
        roll = summary["rollups"]["s"]
        # Two replica landings; the router's own record only feeds the
        # failover tally, never the latency/rate numbers.
        assert roll["requests"] == 2
        assert roll["failovers"] == 1
        assert roll["ok"] == 1 and roll["errors"] == 1
        # Latency percentiles come from the 3.5ms and 4.5ms landings
        # only (the router's 9.0ms record would drag p50 upward).
        assert set(roll["total_ms"]) == {"p50", "p90", "p99"}
        assert 3.5 <= roll["total_ms"]["p50"] <= 4.5

    def test_traces_join_across_files_in_time_order(self, tmp_path):
        paths, trace = self._fleet_logs(tmp_path)
        summary = summarize_logs(paths)
        assert summary["trace_count"] == 1
        info = summary["traces"][trace]
        assert info["records"] == 3
        assert info["failover"] is True
        assert info["backends"] == ["backend-0", "backend-1"]
        assert info["spans"] == ["span0001", "span0002"]
        assert [r["ts"] for r in info["chain"]] == [1.0, 2.0, 3.0]
        assert len(info["sources"]) == 3

    def test_trace_filter_and_min_records(self, tmp_path):
        paths, trace = self._fleet_logs(tmp_path)
        only = summarize_logs(paths, trace=trace)
        assert set(only["traces"]) == {trace}
        assert summarize_logs(paths, trace="missing")["traces"] == {}

    def test_progress_and_ops_records_summarize(self, tmp_path):
        log = tmp_path / "mixed.ndjson"
        _write_ndjson(log, [
            {"event": "level-end", "run": "pre", "seq": 0, "level": 2,
             "rows": 100, "ts": 1.0},
            {"event": "spill", "run": "pre", "seq": 1, "level": 3, "ts": 2.0},
            {"finding": "unhealthy", "backend": "b0"},
            {"event": "done", "run": "pre", "seq": 2, "levels": 3,
             "rows": 200, "ts": 3.0},
        ])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("{torn json line\n")
        summary = summarize_logs([str(log)])
        assert summary["records"]["progress"] == 3
        assert summary["records"]["ops"] == 1
        info = summary["progress"]["pre"]
        assert info["done"] is True
        assert info["spills"] == 1
        assert info["rows"] == 200

    def test_rotated_set_is_read_oldest_first(self, tmp_path):
        log = tmp_path / "r.ndjson"
        _write_ndjson(f"{log}.1", [
            {"op": "synth", "store": "s", "outcome": "ok", "ts": 1.0,
             "total_ms": 1.0, "trace_id": "t1"},
        ])
        _write_ndjson(log, [
            {"op": "synth", "store": "s", "outcome": "ok", "ts": 2.0,
             "total_ms": 2.0, "trace_id": "t1"},
        ])
        assert summarize_logs([str(log)])["records"]["access"] == 2
        assert summarize_logs(
            [str(log)], rotated=False
        )["records"]["access"] == 1

    def test_format_text_renders_every_section(self, tmp_path):
        paths, trace = self._fleet_logs(tmp_path)
        text = format_text(summarize_logs(paths))
        assert "store s: 2 requests" in text
        assert f"trace {trace}" in text
        assert "[failover]" in text
        assert "backend-0 -> backend-1" in text


def _ndjson_roundtrip(address: str, request: dict) -> dict:
    """One raw NDJSON request/response against *address*."""
    family, target = parse_endpoint(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(30)
    with sock:
        sock.connect(target)
        sock.sendall(json.dumps(request).encode() + b"\n")
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer)


def _raw_http(address: str, path: str, headers: dict) -> tuple[str, bytes]:
    """GET *path* with extra *headers*; returns (header_text, body)."""
    family, target = parse_endpoint(address)
    sock = socket.socket(
        socket.AF_UNIX if family == "unix" else socket.AF_INET,
        socket.SOCK_STREAM,
    )
    sock.settimeout(30)
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    with sock:
        sock.connect(target)
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"{extra}\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


class TestServerTelemetryE2E:
    @pytest.fixture(scope="class")
    def observed(self, store_path):
        """A server with a unix socket and an access log."""
        workdir = tempfile.mkdtemp(prefix="repro-telemetry-")
        sock = os.path.join(workdir, "serve.sock")
        log = os.path.join(workdir, "access.ndjson")
        try:
            with BackgroundServer(
                store_path, unix=sock, access_log=log
            ) as srv:
                yield srv, sock, log
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_metrics_endpoint_parses_and_agrees_with_healthz(self, observed):
        server, _sock, _log = observed
        with ServeClient(server.address_text) as client:
            client.synth("peres")
            health = client.healthz()
        status, text = fetch_metrics(server.address_text)
        assert status == 200
        samples = parse_prometheus_text(text)
        # The healthz counters are read back from the same registry, so
        # the two views can never disagree (modulo requests in between:
        # fetch_metrics itself does not run through the service op).
        for op, count in health["queries"].items():
            assert sample_value(
                samples, "repro_requests_total", op=op
            ) >= count
        assert sample_value(samples, "repro_build_info", version=__version__) == 1
        assert sample_value(samples, "repro_start_time_seconds") == (
            health["start_time"]
        )
        assert sample_value(samples, "repro_uptime_seconds") > 0
        assert sample_value(
            samples, "repro_section_cache_hits_total"
        ) == health["section_cache"]["hits"]
        assert sample_value(
            samples, "repro_request_latency_ms_count", op="synth"
        ) >= 1
        # healthz percentiles are read off the same histograms: counts
        # match exactly (healthz's own series gains the poll itself,
        # recorded after its payload was built), and every quantile
        # lies inside the ``le`` bucket the cumulative rows put its
        # rank in.
        for op, summary in health["latency_ms"].items():
            scraped = sample_value(
                samples, "repro_request_latency_ms_count", op=op
            )
            assert scraped == summary["count"] + (op == "healthz")
            if op == "healthz":
                continue
            buckets = sorted(
                (float(dict(labels)["le"]), value)
                for (metric, labels), value in samples.items()
                if metric == "repro_request_latency_ms_bucket"
                and dict(labels)["op"] == op
            )
            for q, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                rank = q * summary["count"]
                index = next(
                    i for i, (_le, cumulative) in enumerate(buckets)
                    if cumulative >= rank
                )
                lower = buckets[index - 1][0] if index else 0.0
                upper = buckets[index][0]
                assert lower <= summary[name] <= upper, (op, name)

    def test_metrics_content_type_header(self, observed):
        server, _sock, _log = observed
        head, body = _raw_http(server.address_text, "/metrics", {})
        assert " 200 " in head.splitlines()[0]
        assert f"Content-Type: {METRICS_CONTENT_TYPE}" in head
        parse_prometheus_text(body.decode())

    def test_metrics_over_ndjson_returns_wrapper(self, observed):
        server, _sock, _log = observed
        response = _ndjson_roundtrip(
            server.address_text, {"id": 1, "op": "metrics"}
        )
        assert response["ok"] is True
        result = response["result"]
        assert result["content_type"] == METRICS_CONTENT_TYPE
        parse_prometheus_text(result["text"])

    def test_healthz_reports_version_and_uptime(self, observed):
        server, sock, _log = observed
        for address in (server.address_text, f"unix:{sock}"):
            status, payload = http_request(address, "/healthz")
            assert status == 200
            assert payload["version"] == __version__
            assert payload["start_time"] <= time.time()
            assert payload["uptime_s"] >= 0

    def test_ndjson_trace_id_is_echoed_and_logged(self, observed):
        server, _sock, log = observed
        trace = "e2e-trace-0001"
        response = _ndjson_roundtrip(server.address_text, {
            "id": 5, "op": "healthz", "trace_id": trace, "span_id": "sp01",
        })
        assert response["ok"] is True
        assert response["trace_id"] == trace
        # Untraced requests stay byte-compatible: no trace field at all.
        bare = _ndjson_roundtrip(
            server.address_text, {"id": 6, "op": "healthz"}
        )
        assert "trace_id" not in bare
        deadline = time.time() + 10
        while time.time() < deadline:
            records = [
                json.loads(line)
                for line in open(log, encoding="utf-8")
                if line.strip()
            ]
            traced = [r for r in records if r.get("trace_id") == trace]
            if traced:
                break
            time.sleep(0.05)
        assert traced and traced[0]["span_id"] == "sp01"

    def test_error_payload_carries_the_trace_id(self, observed):
        server, _sock, _log = observed
        trace = "err-trace-0001"
        # An error raised inside the handler (after decode) must carry
        # the trace both as the top-level echo and inside the payload.
        response = _ndjson_roundtrip(server.address_text, {
            "id": 9, "op": "synth", "params": {}, "trace_id": trace,
        })
        assert response["ok"] is False
        assert response["trace_id"] == trace
        assert response["error"]["trace_id"] == trace

    def test_invalid_trace_id_is_rejected(self, observed):
        server, _sock, _log = observed
        response = _ndjson_roundtrip(server.address_text, {
            "id": 10, "op": "healthz", "trace_id": "has space",
        })
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol"

    def test_http_trace_header_round_trips(self, observed):
        server, _sock, _log = observed
        trace = "http-trace-01"
        head, body = _raw_http(
            server.address_text, "/healthz", {"X-Repro-Trace-Id": trace}
        )
        assert " 200 " in head.splitlines()[0]
        assert f"X-Repro-Trace-Id: {trace}" in head
        json.loads(body)


class TestFleetTelemetryE2E:
    @pytest.fixture(scope="class")
    def fleet(self, store_path):
        with BackgroundFleet(
            store_path, replicas=2, port=0, interval=0.3
        ) as handle:
            yield handle

    def test_trace_is_minted_and_recoverable_from_both_logs(self, fleet):
        response = _ndjson_roundtrip(fleet.address_text, {
            "id": 1, "op": "synth",
            "params": {"target": "peres", "all": False, "allow_not": True},
        })
        assert response["ok"] is True
        trace = response["trace_id"]
        assert len(trace) == 16
        router_log = fleet.handle.router_access_log
        run_dir = fleet.manager.run_dir
        replica_logs = [
            os.path.join(run_dir, name)
            for name in sorted(os.listdir(run_dir))
            if name.endswith(".access.ndjson") and name.startswith("b")
        ]
        assert router_log and os.path.dirname(router_log) == run_dir

        def find(path, want_attempts):
            if not os.path.exists(path):
                return None
            for line in open(path, encoding="utf-8"):
                if not line.strip():
                    continue
                record = json.loads(line)
                if record.get("trace_id") == trace and (
                    ("attempts" in record) == want_attempts
                ):
                    return record
            return None

        deadline = time.time() + 15
        router_record = replica_record = None
        while time.time() < deadline:
            router_record = find(router_log, want_attempts=True)
            replica_record = next(
                (
                    r for r in (
                        find(path, want_attempts=False)
                        for path in replica_logs
                    )
                    if r is not None
                ),
                None,
            )
            if router_record and replica_record:
                break
            time.sleep(0.1)
        assert router_record is not None, "trace missing from router log"
        assert replica_record is not None, "trace missing from replica logs"
        # The router's attempt list joins the replica record by span.
        spans = [a.get("span_id") for a in router_record["attempts"]]
        assert replica_record["span_id"] in spans
        assert router_record["attempts"][-1]["outcome"] == "ok"

        summary = summarize_logs(
            [router_log, *replica_logs], trace=trace, min_trace_records=1
        )
        info = summary["traces"][trace]
        assert info["records"] >= 2
        assert len(info["sources"]) >= 2

    def test_router_metrics_parse_and_agree_with_healthz(self, fleet):
        with ServeClient(fleet.address_text) as client:
            client.synth("peres")
            health = client.healthz()
        status, text = fetch_metrics(fleet.address_text)
        assert status == 200
        samples = parse_prometheus_text(text)
        assert sample_value(samples, "repro_routed_total") >= health["routed"] - 1
        assert sample_value(samples, "repro_failovers_total") == (
            health["failovers"]
        )
        assert sample_value(samples, "repro_shed_total") == health["shed"]
        for name, info in health["backends"].items():
            assert sample_value(
                samples, "repro_backend_requests_total", backend=name
            ) == info["requests"]
        assert health["version"] == __version__

    def test_router_healthz_carries_version_and_start_time(self, fleet):
        _status, payload = http_request(fleet.address_text, "/healthz")
        assert payload["version"] == __version__
        assert payload["start_time"] <= time.time()
