"""Unified telemetry: metrics registry, tracing, progress, log tailing.

One package for everything PR 10 correlates: a process-wide
:class:`MetricsRegistry` rendered as Prometheus text on ``/metrics``,
:class:`TraceSource` minting the ``trace_id``/``span_id`` pair that
ties a router attempt to a replica access-log record,
:class:`AccessLogWriter` (the batched access-log thread the replicas
and the fleet router share), :class:`ProgressReporter` for precompute
phase events, and the ``repro tail`` joins in
:mod:`repro.telemetry.tail`.  See
``docs/observability.md`` for the metric inventory and contracts.
"""

from .logwriter import AccessLogWriter
from .progress import ProgressReporter, make_tty, strip_nondeterministic
from .registry import (
    DEFAULT_BUCKETS_MS,
    METRICS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
    parse_prometheus_text,
    percentile,
    percentile_summary,
    sample_value,
)
from .tail import (
    classify_record,
    collect_logs,
    format_text,
    join_traces,
    read_log_records,
    rollup_stores,
    summarize_logs,
    summarize_progress,
)
from .trace import (
    SPAN_FIELD,
    SPAN_HEADER,
    TRACE_FIELD,
    TRACE_HEADER,
    TraceSource,
    validate_trace_field,
)

__all__ = [
    "AccessLogWriter",
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "METRICS_CONTENT_TYPE",
    "MetricsRegistry",
    "ProgressReporter",
    "SPAN_FIELD",
    "SPAN_HEADER",
    "TRACE_FIELD",
    "TRACE_HEADER",
    "TraceSource",
    "classify_record",
    "collect_logs",
    "format_text",
    "format_value",
    "join_traces",
    "make_tty",
    "parse_prometheus_text",
    "percentile",
    "percentile_summary",
    "read_log_records",
    "rollup_stores",
    "sample_value",
    "strip_nondeterministic",
    "summarize_logs",
    "summarize_progress",
    "validate_trace_field",
]
