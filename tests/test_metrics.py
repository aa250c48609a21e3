"""Latency summaries: histogram quantiles and the raw-sample helpers.

``healthz`` reads its per-op percentiles off the registry histograms
(:meth:`Histogram.quantiles`, the Prometheus ``histogram_quantile``
rule clamped to the observed min/max), while scenario reports, ``repro
tail`` and the fleet supervisor run raw samples through
:func:`percentile` / :func:`percentile_summary`.  Both must be
*byte-stable*: the same observations always produce the same summary
JSON, across instances, runs and platforms.
"""

import json
import random

import pytest

from repro.server.service import SynthesisService
from repro.telemetry import (
    DEFAULT_BUCKETS_MS,
    MetricsRegistry,
    percentile,
    percentile_summary,
)


def _stream(n, seed=42):
    rng = random.Random(seed)
    return [rng.uniform(0.01, 500.0) for _ in range(n)]


def _bytes(summary):
    return json.dumps(summary, sort_keys=True).encode()


def _histogram(values=(), registry=None):
    registry = registry if registry is not None else MetricsRegistry()
    histogram = registry.histogram("t_ms", "test", labels=("op",))
    for value in values:
        histogram.observe(value, op="synth")
    return histogram


class TestHistogramQuantiles:
    def test_summary_pinned(self):
        """The exact summary for a fixed stream, pinned: any change to
        the interpolation rule, the clamp or the rounding is an
        intentional results change and must update this test.  Over
        0.0 .. 9.9 ms, 26 samples lie at or below 2.5 and 25 in
        (2.5, 5.0], so rank 50 reads 2.5 + 2.5 * 24/25; p90/p99
        interpolate in (5, 10]."""
        histogram = _histogram(value / 10 for value in range(100))
        assert histogram.quantiles(op="synth") == {
            "count": 100, "p50": 4.9, "p90": 8.9796, "p99": 9.898,
        }

    def test_identical_streams_identical_summaries(self):
        first = _histogram(_stream(2000))
        second = _histogram(_stream(2000))
        assert first.quantiles(op="synth")["count"] == 2000
        assert _bytes(first.quantiles(op="synth")) \
            == _bytes(second.quantiles(op="synth"))

    def test_order_does_not_matter(self):
        """Bucket counts and min/max are order-free, so unlike a sampled
        reservoir the summary depends only on the multiset observed."""
        values = _stream(500)
        forward = _histogram(values)
        backward = _histogram(reversed(values))
        assert _bytes(forward.quantiles(op="synth")) \
            == _bytes(backward.quantiles(op="synth"))

    def test_absent_series_is_none(self):
        histogram = _histogram()
        assert histogram.quantiles(op="synth") is None
        histogram.observe(1.0, op="synth")
        assert histogram.quantiles(op="healthz") is None

    @pytest.mark.parametrize("values, exact", [
        ([3.14159], 3.1416),
        # Inline ops never queue: their waits must read 0.0, not an
        # interpolated fraction of the first bucket.
        ([0.0] * 50, 0.0),
        ([7.0] * 20, 7.0),
    ], ids=["single-sample", "all-zeros", "constant"])
    def test_constant_stream_reads_exactly(self, values, exact):
        assert _histogram(values).quantiles(op="synth") == {
            "count": len(values), "p50": exact, "p90": exact, "p99": exact,
        }

    def test_above_top_bucket_reads_observed_max(self):
        top = DEFAULT_BUCKETS_MS[-1]
        histogram = _histogram([1.0] * 10 + [top + 5000.0, top + 2500.5])
        summary = histogram.quantiles(op="synth")
        assert summary["p99"] == top + 5000.0
        assert summary["p50"] == 1.0

    def test_observing_min_max_leaves_exposition_unchanged(self):
        """The clamp state is private: rendered text is the same as a
        histogram that never tracked it would produce."""
        registry = MetricsRegistry()
        _histogram([0.0, 0.3, 7.0, 20000.0], registry=registry)
        assert registry.render().splitlines()[-3:] == [
            't_ms_bucket{op="synth",le="+Inf"} 4',
            't_ms_sum{op="synth"} 20007.3',
            't_ms_count{op="synth"} 4',
        ]


class TestHealthzDeterminism:
    def test_identical_traffic_identical_healthz_numbers(self):
        """Two services given identical observations report identical
        percentile payloads -- what lets a fleet operator compare
        replicas, and the scenario reporter compare runs."""
        first = SynthesisService("unopened.rpro")
        second = SynthesisService("unopened.rpro")
        rng = random.Random(3)
        traffic = [
            (rng.choice(["synth", "synth-batch", "healthz"]),
             rng.uniform(0, 10), rng.uniform(0, 100))
            for _ in range(1500)
        ]
        for service in (first, second):
            for op, wait, latency in traffic:
                service._h_queue_wait.observe(wait, op=op)
                service._h_latency.observe(latency, op=op)
        views = [
            {key: service._do_healthz()[key]
             for key in ("queue_wait_ms", "latency_ms")}
            for service in (first, second)
        ]
        assert sorted(views[0]["latency_ms"]) == [
            "healthz", "synth", "synth-batch",
        ]
        assert _bytes(views[0]) == _bytes(views[1])


class TestPercentileHelpers:
    def test_nearest_rank_pins(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 51.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_summary_matches_samplers(self):
        """The summary (one sort per call) and per-quantile
        :func:`percentile` calls serialize identically."""
        values = _stream(50, seed=9)
        helper = percentile_summary(values, scale=1e-3)
        assert helper == {
            name: round(percentile(values, q) * 1e-3, 4)
            for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
        }

    def test_percentile_summary_empty_is_none(self):
        assert percentile_summary([]) is None
