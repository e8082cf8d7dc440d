"""Deterministic operational telemetry: histograms, rates, exposition.

:mod:`repro.obs.metrics` answers "what did this run do" — streaming
aggregates cheap enough to ship across a worker queue.  A long-lived
daemon needs more: latency *distributions* (p50/p95/p99, not min/max),
rates over a recent window (requests/s now, not since boot), and a
wire format scrapers understand.  This module supplies those
primitives with the same design rules as the rest of ``repro.obs``:

* **Deterministic.**  Nothing here reads a clock on its own.  Every
  timestamped operation takes ``now`` explicitly, so a caller holding
  a :class:`~repro.obs.clock.ManualClock` gets byte-identical
  snapshots run after run — quantiles included — and tests assert
  them exactly (``tests/test_obs_telemetry.py``).
* **Bounded.**  :class:`FixedBucketHistogram` keeps fixed bucket
  counters forever but raw samples only over a bounded window, so a
  daemon serving millions of requests holds O(window) state per
  series.  Quantiles are *exact* (nearest-rank) over the retained
  window — no interpolation, no sketch error.
* **Zero-dependency.**  The Prometheus text exposition
  (:func:`render_prometheus`) is a few string joins, not a client
  library.

:class:`FanoutRecorder` is the bridge to the existing event pipeline:
it satisfies the :class:`~repro.obs.metrics.Recorder` protocol and
tees every bump to several sinks, so a service can capture solver and
resilience counters for itself without evicting a recorder the CLI
installed (``--metrics`` keeps working unchanged).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Mapping, Sequence

from . import metrics

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "FixedBucketHistogram",
    "RollingCounter",
    "Telemetry",
    "FanoutRecorder",
    "render_prometheus",
]

#: Fixed latency bucket upper bounds in seconds (Prometheus-style
#: ``le`` boundaries; an implicit +Inf bucket closes the series).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: What an HTTP bridge should serve the exposition body as.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class FixedBucketHistogram:
    """Fixed-bucket histogram with exact quantiles over a bounded window.

    Bucket counters, ``count``/``sum``/``min``/``max`` are cumulative
    since construction; raw samples are retained only for the last
    ``window`` observations, and :meth:`quantile` is the exact
    nearest-rank statistic over that window.  While fewer than
    ``window`` samples have been observed the quantiles are exact over
    *everything* — which is what makes them assertable in tests.

    Args:
        bounds: strictly increasing bucket upper bounds (``le``).
        window: how many raw samples to retain for quantiles.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max", "_window")

    def __init__(
        self,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = 4096,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
            raise ValueError("bounds must be non-empty and strictly increasing")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; past every bound is the +Inf bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self._window.append(value)

    def quantile(self, q: float) -> float | None:
        """Exact nearest-rank quantile over the retained window.

        ``quantile(0.5)`` of samples ``1..100`` is exactly ``50``;
        ``None`` when nothing has been observed.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def window_len(self) -> int:
        return len(self._window)

    def snapshot(self) -> dict:
        """JSON-ready aggregate: totals, exact quantiles, cumulative buckets."""
        buckets: dict[str, int] = {}
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            buckets[format_bound(bound)] = running
        buckets["+Inf"] = running + self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


def format_bound(bound: float) -> str:
    """A stable string key for a bucket bound (``2.0`` not ``2``)."""
    return repr(float(bound))


class RollingCounter:
    """A counter with a total since boot and a rate over a recent window.

    Every :meth:`add` takes the caller's ``now`` — the counter never
    reads a clock — and entries older than ``window_s`` are pruned
    lazily, so memory stays bounded by the event rate inside one
    window.
    """

    __slots__ = ("window_s", "total", "_events")

    def __init__(self, window_s: float = 60.0) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.total = 0
        self._events: deque[tuple[float, int]] = deque()

    def add(self, now: float, value: int = 1) -> None:
        self.total += value
        events = self._events
        events.append((now, value))
        if events[0][0] <= now - self.window_s:
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] <= horizon:
            events.popleft()

    def in_window(self, now: float) -> int:
        """How much was counted within ``window_s`` of ``now``."""
        self._prune(now)
        return sum(value for _, value in self._events)

    def rate(self, now: float) -> float:
        """Events per second over the window ending at ``now``."""
        return self.in_window(now) / self.window_s


class Telemetry:
    """A name-keyed registry of histograms, rolling counters and gauges.

    One instance per instrumented component; all operations are
    explicit-``now`` so determinism is the caller's choice of clock.
    Series are created on first use; :meth:`snapshot` emits everything
    with sorted keys for stable artifacts.
    """

    def __init__(
        self, rate_window_s: float = 60.0, quantile_window: int = 4096
    ) -> None:
        self.rate_window_s = rate_window_s
        self.quantile_window = quantile_window
        self._histograms: dict[str, FixedBucketHistogram] = {}
        self._counters: dict[str, RollingCounter] = {}
        self._gauges: dict[str, float] = {}

    # -- write side ----------------------------------------------------------

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> FixedBucketHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = FixedBucketHistogram(bounds, window=self.quantile_window)
            self._histograms[name] = hist
        return hist

    def counter(self, name: str) -> RollingCounter:
        counter = self._counters.get(name)
        if counter is None:
            counter = RollingCounter(window_s=self.rate_window_s)
            self._counters[name] = counter
        return counter

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self.histogram(name)
        hist.observe(value)

    def count(self, name: str, now: float, value: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.add(now, value)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    # -- read side -----------------------------------------------------------

    def counter_total(self, name: str) -> int:
        counter = self._counters.get(name)
        return 0 if counter is None else counter.total

    def counter_in_window(self, name: str, now: float) -> int:
        counter = self._counters.get(name)
        return 0 if counter is None else counter.in_window(now)

    def quantile(self, name: str, q: float) -> float | None:
        hist = self._histograms.get(name)
        return None if hist is None else hist.quantile(q)

    def totals(self, prefix: str = "") -> dict[str, int]:
        """Lifetime totals of every counter matching ``prefix``, sorted."""
        return {
            name: counter.total
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def counters_in_window(self, now: float, prefix: str = "") -> dict[str, int]:
        """Window totals of every counter matching ``prefix``, sorted."""
        return {
            name: counter.in_window(now)
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self, now: float) -> dict:
        """JSON-ready dump: histogram aggregates, counter totals+window
        rates, gauges — deterministic under a deterministic clock."""
        return {
            "window_s": self.rate_window_s,
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self._histograms.items())
            },
            "counters": {
                name: {
                    "total": counter.total,
                    "in_window": counter.in_window(now),
                    "rate_per_s": counter.rate(now),
                }
                for name, counter in sorted(self._counters.items())
            },
            "gauges": dict(sorted(self._gauges.items())),
        }


class FanoutRecorder:
    """Tee a :class:`~repro.obs.metrics.Recorder` stream to many sinks.

    ``None`` sinks are skipped, so ``FanoutRecorder(metrics.active(),
    mine)`` composes with "nothing installed".  This is how the
    selection service captures solver/resilience counters without
    displacing a CLI ``--metrics`` recorder.
    """

    __slots__ = ("sinks",)

    def __init__(self, *sinks: metrics.Recorder | None) -> None:
        self.sinks = tuple(sink for sink in sinks if sink is not None)

    def count(self, name: str, value: int = 1) -> None:
        for sink in self.sinks:
            sink.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        for sink in self.sinks:
            sink.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        for sink in self.sinks:
            sink.observe(name, value)


# -- Prometheus text exposition ---------------------------------------------


def _metric_name(prefix: str, name: str) -> str:
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: float) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    snapshot: Mapping,
    prefix: str = "repro",
    extra_counters: Mapping[str, int] | None = None,
    labels: Mapping[str, str] | None = None,
    type_lines: bool = True,
) -> str:
    """Render a :meth:`Telemetry.snapshot` as Prometheus text format.

    Histograms become ``_bucket``/``_sum``/``_count`` families plus
    ``_p50``/``_p95``/``_p99`` gauges (exact window quantiles — a
    histogram family cannot carry them, and scrapers alert on them
    directly).  Counters become ``_total`` plus a ``_rate`` gauge over
    the snapshot's rolling window.  ``extra_counters`` renders a plain
    name→int mapping (e.g. solver counters) as counter families.

    ``labels`` stamps every sample with a constant label set (the
    shard-tagged exposition of the sharded service: each worker's body
    carries ``shard="N"`` and the router concatenates them under the
    fleet's unlabelled families).  ``type_lines=False`` suppresses the
    ``# TYPE`` comments — used for all but the first labelled body of
    one family so a concatenated exposition declares each family once.
    """
    lines: list[str] = []
    constant = "" if not labels else ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    suffix = f"{{{constant}}}" if constant else ""

    def emit_type(line: str) -> None:
        if type_lines:
            lines.append(line)

    for name, hist in snapshot.get("histograms", {}).items():
        base = _metric_name(prefix, name)
        emit_type(f"# TYPE {base} histogram")
        for bound, cumulative in hist["buckets"].items():
            bucket_labels = f'le="{bound}"' + (f",{constant}" if constant else "")
            lines.append(f"{base}_bucket{{{bucket_labels}}} {cumulative}")
        lines.append(f"{base}_sum{suffix} {_format_value(hist['sum'])}")
        lines.append(f"{base}_count{suffix} {hist['count']}")
        for label in ("p50", "p95", "p99"):
            if hist.get(label) is not None:
                emit_type(f"# TYPE {base}_{label} gauge")
                lines.append(f"{base}_{label}{suffix} {_format_value(hist[label])}")

    for name, counter in snapshot.get("counters", {}).items():
        base = _metric_name(prefix, name)
        emit_type(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total{suffix} {counter['total']}")
        emit_type(f"# TYPE {base}_rate gauge")
        lines.append(f"{base}_rate{suffix} {_format_value(counter['rate_per_s'])}")

    for name, value in snapshot.get("gauges", {}).items():
        base = _metric_name(prefix, name)
        emit_type(f"# TYPE {base} gauge")
        lines.append(f"{base}{suffix} {_format_value(value)}")

    for name, value in sorted((extra_counters or {}).items()):
        base = _metric_name(prefix, name)
        emit_type(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total{suffix} {value}")

    return "\n".join(lines) + "\n"
