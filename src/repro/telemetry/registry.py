"""Process-wide metrics registry with Prometheus text exposition.

The repo grew counters organically: the service keeps per-op query
tallies as plain ints, the router counts routed/failovers/shed on
``self``, the supervisor tallies findings in its ops log, and the
section cache keeps hit/miss ints behind a lock.  Each is readable
only through its own bespoke payload (healthz, ops log, ``stats()``),
so no single scrape sees the whole process.  This module gives every
process one :class:`MetricsRegistry` that all of those feed, rendered
in the Prometheus text exposition format (v0.0.4) so a stock scraper
-- or ``curl`` -- can read it off the existing sniffed HTTP port.

Design points, in the repo's house style:

* **No new deps.**  Rendering is string formatting; parsing (used by
  tests and the CI smoke job) is a ~40-line text walk.  Nothing here
  imports outside the stdlib.
* **Byte-stable output.**  Metric families render sorted by name,
  series sorted by label values, and numbers format through one
  :func:`format_value` (ints as ints, floats via ``repr``), so two
  scrapes of identical state are byte-identical and goldens can pin
  the text.  Histogram bucket bounds are fixed at registration and
  render through the same formatter, so ``le`` labels never drift.
* **Thread-safe.**  Counters are bumped from the event loop, the log
  writer thread, and worker pools; every mutation and ``render`` takes
  the registry lock.  The hot path (``Counter.inc`` with no labels) is
  a dict add under one uncontended lock -- cheap enough for the ≤5%
  overhead bar in ``benchmarks/bench_telemetry.py``.
* **Callback metrics.**  State that already lives elsewhere (section
  cache stats, writer-queue depth, uptime) is exported by registering
  a zero-arg callable; ``render`` calls it at scrape time instead of
  mirroring state into the registry.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterable

from ..errors import SpecificationError

#: Content type a ``/metrics`` response declares (Prometheus text v0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Fixed default histogram bucket upper bounds, in milliseconds.  The
#: spread covers everything the repo times: sub-ms cache hits through
#: ten-second precompute levels.  Fixed (not configurable per call
#: site) so every latency histogram in the process shares one ``le``
#: vocabulary and renders byte-identically run to run.
DEFAULT_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: The quantiles every latency summary reports, with their field names.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def format_value(value: float) -> str:
    """Byte-stable sample formatting: int-valued floats render as ints.

    ``repr`` (not ``str`` or ``%g``) for the float path because it is
    the shortest round-tripping form and stable across platforms.
    """
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 2**53:
        return str(int(as_float))
    return repr(as_float)


def _nearest_rank(ordered: list[float], q: float) -> float:
    last = len(ordered) - 1
    return ordered[min(last, max(0, round(q * last)))]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty raw sample list."""
    return _nearest_rank(sorted(samples), q)


def percentile_summary(
    samples: list[float], scale: float = 1.0
) -> dict | None:
    """``{p50, p90, p99}`` of raw *samples* (scaled, 4-dp), or None if empty.

    The exact offline serialization of a latency distribution: the
    scenario reporter's client-side measurements and ``repro tail``
    rollups both run through this (sorting once), so their numbers are
    byte-comparable; the fleet supervisor applies the same rule per
    cycle via :func:`percentile`.  Live ``healthz`` percentiles are
    bucket estimates instead (:meth:`Histogram.quantiles`).
    """
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        name: round(_nearest_rank(ordered, q) * scale, 4)
        for name, q in QUANTILES
    }


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format grammar."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared bookkeeping for one metric family.

    Every family owns a ``{label-values-tuple: state}`` dict guarded by
    the registry lock (shared, not per-metric: scrapes must see a
    consistent cross-family snapshot, and one lock keeps ``render``
    atomic without ordering concerns).
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
    ):
        if not _NAME_RE.match(name):
            raise SpecificationError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise SpecificationError(
                    f"invalid label name {label!r} on metric {name}"
                )
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = lock
        self._series: dict[tuple, float] = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.label_names):
            raise SpecificationError(
                f"metric {self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def label_sets(self) -> list[tuple]:
        """The label-value tuples of every live series, sorted."""
        with self._lock:
            return sorted(self._series)

    def samples(self) -> Iterable[tuple[str, tuple, float]]:
        """Yield ``(suffix, label_values, value)`` rows, sorted."""
        for key in sorted(self._series):
            yield "", key, self._series[key]


class Counter(_Metric):
    """Monotonically increasing count.  Name should end in ``_total``.

    Like :class:`Gauge`, a counter may be backed by a scrape-time
    callback (*fn*) when the monotonic count already lives elsewhere
    (section-cache hits, backend request tallies); such counters are
    read-only here.
    """

    kind = "counter"

    def __init__(self, name, help, label_names, lock, fn=None):
        super().__init__(name, help, label_names, lock)
        self._fn = fn
        if fn is None and not self.label_names:
            # Label-less counters exist from registration, so a scrape
            # taken before the first event still shows the family at 0
            # (shape-stable output; healthz and CI can assert on it).
            self._series[()] = 0

    def _collect_fn(self) -> dict[tuple, float]:
        value = self._fn()
        if isinstance(value, dict):
            out = {}
            for key, v in value.items():
                if not isinstance(key, tuple):
                    key = (key,)
                out[tuple(str(part) for part in key)] = float(v)
            return out
        return {(): float(value)}

    def inc(self, amount: float = 1, **labels) -> None:
        if self._fn is not None:
            raise SpecificationError(
                f"counter {self.name} is callback-backed and read-only"
            )
        if amount < 0:
            raise SpecificationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def preseed(self, *label_values) -> None:
        """Materialize a series at 0 so it renders before first use.

        Healthz payloads enumerate every op with a zero count from
        process start; preseeding keeps ``/metrics`` shape-identical.
        """
        key = self._key(dict(zip(self.label_names, label_values)))
        with self._lock:
            self._series.setdefault(key, 0)

    def value(self, **labels) -> float:
        if self._fn is not None:
            return self._collect_fn().get(self._key(labels), 0)
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def values(self) -> dict[tuple, float]:
        if self._fn is not None:
            return self._collect_fn()
        with self._lock:
            return dict(self._series)

    def samples(self):
        if self._fn is not None:
            collected = self._collect_fn()
            for key in sorted(collected):
                yield "", key, collected[key]
            return
        yield from super().samples()


class Gauge(_Metric):
    """A value that can go up and down (or a scrape-time callback)."""

    kind = "gauge"

    def __init__(self, name, help, label_names, lock, fn=None):
        super().__init__(name, help, label_names, lock)
        self._fn = fn

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        if self._fn is not None:
            return float(self._collect_fn().get(self._key(labels), 0))
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def _collect_fn(self) -> dict[tuple, float]:
        value = self._fn()
        if isinstance(value, dict):
            out = {}
            for key, v in value.items():
                if not isinstance(key, tuple):
                    key = (key,)
                out[tuple(str(part) for part in key)] = float(v)
            return out
        return {(): float(value)}

    def samples(self):
        if self._fn is not None:
            collected = self._collect_fn()
            for key in sorted(collected):
                yield "", key, collected[key]
            return
        yield from super().samples()


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed, byte-stable bounds.

    State per series is ``[bucket_counts, sum, count, min, max]``.
    Buckets are cumulative at render time (each ``le`` row includes
    everything at or below it, ending in ``+Inf == _count``), matching
    the format spec so scrapers compute quantiles the standard way.
    The observed min/max are not rendered; they bound
    :meth:`quantiles`.
    """

    kind = "histogram"

    def __init__(self, name, help, label_names, lock,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS):
        super().__init__(name, help, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise SpecificationError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = [
                    [0] * len(self.buckets), 0.0, 0, value, value,
                ]
            counts = state[0]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            state[1] += value
            state[2] += 1
            if value < state[3]:
                state[3] = value
            elif value > state[4]:
                state[4] = value

    def count(self, **labels) -> int:
        with self._lock:
            state = self._series.get(self._key(labels))
            return 0 if state is None else state[2]

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return 0.0 if state is None else state[1]

    def quantiles(self, **labels) -> dict | None:
        """``{count, p50, p90, p99}`` read off the buckets, or None.

        Prometheus ``histogram_quantile`` rule: find the bucket holding
        rank ``q * count`` and interpolate linearly inside it (the first
        bucket starts at 0); a rank in the ``+Inf`` bucket reads the
        observed max.  Every estimate is clamped to the series' observed
        min/max, so a constant stream reads exactly.  Values round to 4
        decimal places in the histogram's own unit.
        """
        with self._lock:
            state = self._series.get(self._key(labels))
            if state is None:
                return None
            counts, _, count, low, high = state
            counts = list(counts)
        summary: dict = {"count": count}
        for name, q in QUANTILES:
            rank = q * count
            below = 0
            value = high
            for i, n in enumerate(counts):
                if below + n >= rank and n:
                    lower = self.buckets[i - 1] if i else 0.0
                    upper = self.buckets[i]
                    value = lower + (upper - lower) * (rank - below) / n
                    break
                below += n
            summary[name] = round(min(max(value, low), high), 4)
        return summary

    def samples(self):
        for key in sorted(self._series):
            counts, total, count = self._series[key][:3]
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                yield "_bucket", key + (format_value(bound),), running
            yield "_bucket", key + ("+Inf",), count
            yield "_sum", key, total
            yield "_count", key, count


class MetricsRegistry:
    """One process's metric families, rendered as Prometheus text."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise SpecificationError(
                    f"metric {metric.name} already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, labels: tuple[str, ...] = (),
                fn: Callable | None = None) -> Counter:
        return self._register(
            Counter(name, help, labels, self._lock, fn=fn)
        )

    def gauge(self, name: str, help: str, labels: tuple[str, ...] = (),
              fn: Callable | None = None) -> Gauge:
        """Register a gauge; with *fn*, its value is read at scrape time.

        *fn* returns a float (label-less) or a ``{label-values: value}``
        dict (values may be keyed by a bare string for one label).
        """
        return self._register(Gauge(name, help, labels, self._lock, fn=fn))

    def histogram(self, name: str, help: str, labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS,
                  ) -> Histogram:
        return self._register(
            Histogram(name, help, labels, self._lock, buckets=buckets)
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full exposition text, deterministically ordered.

        Families sort by name; series sort by label values within a
        family (histogram rows keep their bucket/sum/count grouping).
        Ends with a trailing newline, as the format requires.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            label_names = metric.label_names
            if metric.kind == "histogram":
                label_names = label_names + ("le",)
            for suffix, key, value in metric.samples():
                names = label_names
                if suffix in ("_sum", "_count"):
                    names = metric.label_names
                lines.append(
                    f"{metric.name}{suffix}"
                    f"{_render_labels(names, key)} {format_value(value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    *labels* is a sorted tuple of ``(label, value)`` pairs.  Used by
    tests and the CI smoke job to assert a scrape is well-formed and
    agrees with healthz; it raises ``ValueError`` on malformed lines
    (that is the point -- a scrape that does not parse is a failure).
    """
    samples: dict[tuple[str, tuple], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? "
            r"([+-]?(?:Inf|NaN|[0-9.eE+-]+))$",
            line,
        )
        if match is None:
            raise ValueError(f"malformed metric line {lineno}: {line!r}")
        name, _, label_body, raw_value = match.groups()
        labels: list[tuple[str, str]] = []
        if label_body:
            for part in re.finditer(
                r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', label_body
            ):
                value = (
                    part.group(2)
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((part.group(1), value))
        key = (name, tuple(sorted(labels)))
        if key in samples:
            raise ValueError(f"duplicate sample at line {lineno}: {line!r}")
        samples[key] = float(raw_value.replace("Inf", "inf"))
    return samples


def sample_value(
    samples: dict[tuple[str, tuple], float], name: str, **labels
) -> float:
    """Look up one parsed sample by name and labels (raises KeyError)."""
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return samples[key]
