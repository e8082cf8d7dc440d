"""Request-lifecycle telemetry for the selection daemon.

:class:`ServiceTelemetry` spans every request through the daemon's
stages — admission → epoch-pin → micro-batch → solver (cache hit,
memo replay, kernel scan or ladder rung) → respond — and feeds the
deterministic instruments of :mod:`repro.obs.telemetry`:

* latency histograms (``request_s``, ``queue_wait_s``, ``solve_s``)
  with exact p50/p95/p99 over a bounded window;
* rolling-window rate counters for every request outcome (status,
  rejection/error code, ladder rung, memo/warm-cache hit);
* gauges for queue depth, epoch, epoch age and the derived hit rates.

Determinism contract: the instrument reads its injectable clock a
*fixed number of times per lifecycle stage* (one read per mark), and
every mark for a request completes **before** the response is
resolved to the submitter.  Under a
:class:`~repro.obs.clock.ManualClock` a serialized request sequence
therefore produces byte-identical histograms and gauges run after run
— ``tests/test_service_telemetry.py`` asserts the quantiles exactly.

The solver's own event stream (``cache.*``, ``dtrs.*``, ``kernel.*``,
``resilience.*`` counters) is captured by installing a
:class:`~repro.obs.telemetry.FanoutRecorder` around batch execution:
the service's :class:`~repro.obs.metrics.MemoryRecorder` sees every
bump *in addition to* whatever recorder the CLI installed, which is
how ladder rungs taken, supervised-scan retries and injected faults
reach the ``stats`` op instead of only bench artifacts.

Telemetry never touches a response: ``tests/test_service_telemetry.py``
pins service responses byte-identical with telemetry on and off.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

from ..obs.metrics import MemoryRecorder
from ..obs.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    Telemetry,
    render_prometheus,
)

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "HEALTH_READY",
    "HEALTH_DEGRADED",
    "HEALTH_DRAINING",
    "BATCH_SIZE_BUCKETS",
    "ServiceTelemetry",
    "format_stats",
    "format_top",
]

HEALTH_READY = "ready"
HEALTH_DEGRADED = "degraded"
HEALTH_DRAINING = "draining"

#: Micro-batch size buckets (powers of two up to the default max_batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: ``resilience.*`` counters surfaced in ``stats`` (artifact-key → counter).
_RESILIENCE_COUNTERS = {
    "degradations": "resilience.degradations",
    "fail_closed": "resilience.fail_closed",
    "faults_injected": "resilience.faults",
    "retries": "resilience.retries",
    "worker_lost": "resilience.worker_lost",
}


class ServiceTelemetry:
    """The daemon's lifecycle instrument (one per service).

    Args:
        clock: zero-argument seconds source; defaults to
            ``time.monotonic``.  Tests inject a
            :class:`~repro.obs.clock.ManualClock`.
        rate_window_s: rolling window for rate counters and health.
        quantile_window: raw samples retained per histogram.
    """

    def __init__(
        self,
        clock=None,
        rate_window_s: float = 60.0,
        quantile_window: int = 4096,
    ) -> None:
        self._clock = time.monotonic if clock is None else clock
        self._lock = threading.Lock()
        self.tele = Telemetry(
            rate_window_s=rate_window_s, quantile_window=quantile_window
        )
        #: Solver/resilience counters captured via the batch fanout.
        self.solver = MemoryRecorder()
        now = self._clock()
        self.started_at = now
        self._epoch_committed_at = now

    # -- lifecycle marks (one clock read each) -------------------------------

    def admitted(self, queue_depth: int) -> float:
        """Mark admission; returns the timestamp to stamp on the slot."""
        with self._lock:
            now = self._clock()
            self.tele.count("admitted", now)
            self.tele.gauge("queue_depth", queue_depth)
            return now

    def admission_rejected(self, code: str) -> None:
        """An admission-control refusal (the request never queued)."""
        with self._lock:
            now = self._clock()
            self.tele.count("rejected", now)
            self.tele.count(f"rejected.{code}", now)

    def batch_started(self, size: int, epoch: int) -> float:
        with self._lock:
            now = self._clock()
            self.tele.count("batches", now)
            self.tele.histogram("batch_size", BATCH_SIZE_BUCKETS).observe(size)
            self.tele.gauge("epoch", epoch)
            return now

    def request_started(self, admitted_at: float | None) -> float:
        """Mark the epoch-pin/solve stage opening; records queue wait."""
        with self._lock:
            now = self._clock()
            if admitted_at is not None:
                self.tele.observe("queue_wait_s", now - admitted_at)
            return now

    def request_finished(
        self, response, admitted_at: float | None, started_at: float
    ) -> None:
        """Mark the respond stage.  Runs *before* the slot resolves so a
        serialized submitter observes a completed lifecycle."""
        with self._lock:
            now = self._clock()
            self.tele.observe("solve_s", now - started_at)
            if admitted_at is not None:
                self.tele.observe("request_s", now - admitted_at)
            self.tele.count("requests", now)
            self.tele.count(f"status.{response.status}", now)
            if response.status == "rejected" and response.code:
                self.tele.count("rejected", now)
                self.tele.count(f"rejected.{response.code}", now)
            elif response.status == "error" and response.code:
                self.tele.count(f"error.{response.code}", now)
            if response.status == "ok":
                if response.rung:
                    self.tele.count(f"rung.{response.rung}", now)
                if response.degraded:
                    self.tele.count("degraded", now)
                memo = bool(response.attrs.get("memo"))
                self.tele.count("memo.hits" if memo else "memo.misses", now)
                warm = bool(response.warm_cache)
                self.tele.count("warm.hits" if warm else "warm.misses", now)

    def epoch_advanced(self, epoch: int, rings: int) -> None:
        with self._lock:
            now = self._clock()
            self._epoch_committed_at = now
            self.tele.count("epoch_advances", now)
            self.tele.gauge("epoch", epoch)
            self.tele.gauge("rings", rings)

    def mark(self, name: str) -> None:
        """Bump a free-form lifecycle counter (one clock read).

        The shard router uses this for events outside the per-request
        stages — ``shard.retries``, ``shard.worker_lost`` — so they
        show up in rates, health windows and the exposition without a
        bespoke instrument.
        """
        with self._lock:
            self.tele.count(name, self._clock())

    def window_count(self, name: str) -> int:
        """How often ``name`` was marked inside the rolling window."""
        with self._lock:
            return self.tele.counter_in_window(name, self._clock())

    # -- read side -----------------------------------------------------------

    @staticmethod
    def _rate(hits: int, misses: int) -> float | None:
        total = hits + misses
        return None if total == 0 else hits / total

    def _refresh_gauges(self, now: float, queue_depth: int | None) -> None:
        self.tele.gauge("uptime_s", now - self.started_at)
        self.tele.gauge("epoch_age_s", now - self._epoch_committed_at)
        if queue_depth is not None:
            self.tele.gauge("queue_depth", queue_depth)
        memo_rate = self._rate(
            self.tele.counter_total("memo.hits"),
            self.tele.counter_total("memo.misses"),
        )
        if memo_rate is not None:
            self.tele.gauge("memo_hit_rate", memo_rate)
        warm_rate = self._rate(
            self.tele.counter_total("warm.hits"),
            self.tele.counter_total("warm.misses"),
        )
        if warm_rate is not None:
            self.tele.gauge("warm_cache_rate", warm_rate)

    def rung_distribution(self) -> dict[str, int]:
        """Total requests answered per ladder rung (``exact`` included)."""
        with self._lock:
            prefix = "rung."
            return {
                name[len(prefix):]: total
                for name, total in self.tele.totals(prefix).items()
            }

    def resilience_counters(self) -> dict:
        """The resilience story, artifact-shaped plus rung distribution."""
        counters = self.solver.counters
        surfaced = {
            key: counters.get(name, 0)
            for key, name in sorted(_RESILIENCE_COUNTERS.items())
        }
        surfaced["rung_served"] = self.rung_distribution()
        return surfaced

    def snapshot(self, queue_depth: int | None = None) -> dict:
        """The ``stats`` op's telemetry section (one clock read)."""
        with self._lock:
            now = self._clock()
            self._refresh_gauges(now, queue_depth)
            snap = self.tele.snapshot(now)
        snap["solver"] = {
            "counters": {
                name: value
                for name, value in sorted(self.solver.counters.items())
                if not name.startswith("service.")
            },
        }
        return snap

    def health(self, queue_depth: int, max_queue: int, draining: bool) -> dict:
        """Ready/degraded/draining, with machine-checkable reasons.

        * **draining** — the admission queue is closed: queued work is
          still served, new work is refused.
        * **degraded** — the recent window saw degraded rings, ladder
          fail-closures, lost workers, internal errors or injected
          faults escaping, or the queue is at capacity.  The service
          still answers, but not at its claimed strength.
        * **ready** — everything else.
        """
        with self._lock:
            now = self._clock()
            window = {
                "degraded": self.tele.counter_in_window("degraded", now),
                "errors.internal": self.tele.counter_in_window(
                    "error.internal_error", now
                ),
                "errors.fail_closed": self.tele.counter_in_window(
                    "error.constraint_violation", now
                ),
                "errors.fault_injected": self.tele.counter_in_window(
                    "error.fault_injected", now
                ),
                "rejected.queue_full": self.tele.counter_in_window(
                    "rejected.queue_full", now
                ),
            }
            window_s = self.tele.rate_window_s
        reasons = [
            f"{name}={count} in the last {window_s:g}s"
            for name, count in sorted(window.items())
            if count > 0
        ]
        if queue_depth >= max_queue:
            reasons.append(f"queue at capacity ({queue_depth}/{max_queue})")
        if draining:
            status = HEALTH_DRAINING
        elif reasons:
            status = HEALTH_DEGRADED
        else:
            status = HEALTH_READY
        return {
            "health": status,
            "reasons": reasons,
            "window_s": window_s,
            "queue_depth": queue_depth,
            "max_queue": max_queue,
        }

    def prometheus(
        self,
        queue_depth: int | None = None,
        service_counters: Mapping[str, int] | None = None,
        labels: Mapping[str, str] | None = None,
        type_lines: bool = True,
    ) -> str:
        """The ``metrics`` op's body: Prometheus text exposition.

        ``labels``/``type_lines`` pass through to
        :func:`~repro.obs.telemetry.render_prometheus` — the shard
        router stamps each worker's body with ``shard="N"`` and keeps
        the ``# TYPE`` declarations only on the first body per family.
        """
        snap = self.snapshot(queue_depth)
        solver_counters = snap.pop("solver")["counters"]
        body = render_prometheus(
            snap, prefix="repro_service", labels=labels, type_lines=type_lines
        )
        extra = dict(solver_counters)
        if service_counters:
            extra.update(
                {f"legacy.{name}": value for name, value in service_counters.items()}
            )
        if extra:
            body += render_prometheus(
                {},
                prefix="repro_solver",
                extra_counters=extra,
                labels=labels,
                type_lines=type_lines,
            )
        return body

    def drain_summary(self) -> str:
        """One human line for ``serve`` shutdown (requests, p99, rates)."""
        with self._lock:
            requests = self.tele.counter_total("requests")
            ok = self.tele.counter_total("status.ok")
            errors = self.tele.counter_total("status.error")
            rejected = (
                self.tele.counter_total("rejected")
                + self.tele.counter_total("status.rejected")
            )
            degraded = self.tele.counter_total("degraded")
            p99 = self.tele.quantile("request_s", 0.99)
            memo_rate = self._rate(
                self.tele.counter_total("memo.hits"),
                self.tele.counter_total("memo.misses"),
            )
        parts = [
            f"served {requests} request(s) "
            f"({ok} ok, {errors} error, {rejected} rejected)"
        ]
        parts.append(
            "p99 request n/a" if p99 is None else f"p99 request {p99 * 1e3:.1f}ms"
        )
        parts.append(
            "memo hit rate n/a" if memo_rate is None
            else f"memo hit rate {memo_rate:.1%}"
        )
        if degraded:
            parts.append(f"{degraded} degraded")
        return "telemetry: " + ", ".join(parts)


# -- human rendering (CLI `client --stats` / `repro top`) --------------------


def _ms(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 1e3:.2f}ms"


def format_stats(stats: Mapping) -> str:
    """Pretty-print an enriched ``stats`` payload for terminals.

    Works on the backward-compatible superset: the PR-5 counter keys
    always render; the histogram/gauge/resilience sections appear only
    when the daemon ran with telemetry enabled.
    """
    lines = ["== service stats =="]
    lines.append(
        f"  epoch {stats.get('epoch', '?')} | rings {stats.get('rings', '?')} "
        f"| queue {stats.get('queue_depth', '?')} "
        f"| offered {stats.get('offered', '?')} "
        f"| refused {stats.get('refused', '?')}"
    )
    counters: Mapping = stats.get("counters", {})
    if counters:
        width = max(len(name) for name in counters)
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")

    telemetry: Mapping = stats.get("telemetry", {})
    histograms: Mapping = telemetry.get("histograms", {})
    if histograms:
        lines.append(
            f"latency (window p50/p95/p99 over last {telemetry.get('window_s', '?')}s "
            f"rates):"
        )
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            hist = histograms[name]
            if name.endswith("_s"):
                detail = (
                    f"p50={_ms(hist['p50'])} p95={_ms(hist['p95'])} "
                    f"p99={_ms(hist['p99'])}"
                )
            else:
                detail = (
                    f"p50={hist['p50']} p95={hist['p95']} p99={hist['p99']}"
                )
            lines.append(f"  {name:<{width}}  n={hist['count']} {detail}")
    rates: Mapping = telemetry.get("counters", {})
    if rates:
        lines.append("rates:")
        width = max(len(name) for name in rates)
        for name in sorted(rates):
            entry = rates[name]
            lines.append(
                f"  {name:<{width}}  total={entry['total']} "
                f"window={entry['in_window']} "
                f"rate={entry['rate_per_s']:.3f}/s"
            )
    gauges: Mapping = telemetry.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:.6g}")

    resilience: Mapping = stats.get("resilience", {})
    if resilience:
        lines.append("resilience:")
        width = max(len(name) for name in resilience)
        for name in sorted(resilience):
            value = resilience[name]
            if isinstance(value, Mapping):
                value = " ".join(
                    f"{rung}={count}" for rung, count in sorted(value.items())
                ) or "-"
            lines.append(f"  {name:<{width}}  {value}")

    shards = stats.get("shards")
    if shards:
        lines.append("shards:")
        lines.append(
            "  shard  batches      queue  reqs    epoch  warm%   memo%   "
            "p99      rungs"
        )
        for row in shards:
            batches = ",".join(str(b) for b in row.get("batches", ()))
            warm = row.get("warm_hit_rate")
            memo = row.get("memo_hit_rate")
            p99 = row.get("p99_s")
            rungs = row.get("rungs") or {}
            rung_text = " ".join(
                f"{rung}={count}" for rung, count in sorted(rungs.items())
            ) or "-"
            batches_cell = f"[{batches}]"
            lines.append(
                f"  {row.get('shard', '?'):<5}  "
                f"{batches_cell:<11}  "
                f"{row.get('queue_depth', '?'):<5}  "
                f"{row.get('requests', '?'):<6}  "
                f"{row.get('epoch', '?'):<5}  "
                f"{'n/a' if warm is None else f'{warm:.0%}':<6}  "
                f"{'n/a' if memo is None else f'{memo:.0%}':<6}  "
                f"{_ms(p99):<7}  {rung_text}"
            )
    return "\n".join(lines)


def format_top(stats: Mapping, health: Mapping | None = None) -> str:
    """One `repro top` frame: health header + the stats body."""
    header = ["== repro top =="]
    if health is not None:
        status = health.get("health", "?")
        reasons = health.get("reasons") or []
        line = f"  health: {status}"
        if reasons:
            line += "  (" + "; ".join(reasons) + ")"
        header.append(line)
    gauges = stats.get("telemetry", {}).get("gauges", {})
    if gauges:
        uptime = gauges.get("uptime_s")
        epoch_age = gauges.get("epoch_age_s")
        bits = []
        if uptime is not None:
            bits.append(f"uptime {uptime:.1f}s")
        if epoch_age is not None:
            bits.append(f"epoch age {epoch_age:.1f}s")
        if bits:
            header.append("  " + " | ".join(bits))
    shards = stats.get("shards")
    if shards:
        total_queue = sum(row.get("queue_depth") or 0 for row in shards)
        total_requests = sum(row.get("requests") or 0 for row in shards)
        header.append(
            f"  fleet: {len(shards)} shard(s) | {total_requests} shard request(s) "
            f"| shard queues {total_queue}"
        )
    return "\n".join(header) + "\n" + format_stats(stats)
