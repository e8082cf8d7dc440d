"""The service telemetry contract, in three parts.

1. **Determinism** — under :class:`~repro.obs.clock.ManualClock` the
   lifecycle histograms have *exactly* assertable quantiles: the
   instrument reads the clock once per mark (admitted, batch start,
   request start, request finish) and marks finish before the pending
   slot resolves, so a serialized submitter drives a fixed read
   schedule.
2. **Equivalence** — telemetry observes the daemon, it never changes
   what the daemon answers: responses are byte-identical with
   telemetry on vs off (modulo the measured ``elapsed`` field, which
   is wall-clock in both configurations).
3. **Cost** — the per-request instrument is priced like
   ``tests/test_obs_overhead.py`` prices the event guards: the marks
   must cost well under the issue's 5% bench budget against even a
   trivial warm request.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.obs.clock import ManualClock
from repro.service import (
    SelectionService,
    ServiceConfig,
    serve_socket,
)
from repro.service.protocol import encode
from repro.service.server import handle_line
from repro.service.telemetry import ServiceTelemetry, format_stats, format_top

from tests.test_service import history, request, small_universe

SRC = Path(__file__).resolve().parent.parent / "src"

CHAOS_PLAN = {
    "version": 1,
    "seed": 0,
    "faults": [{"site": "bfs.candidate", "action": "error", "at_hit": 1}],
}


def manual_service(**overrides) -> SelectionService:
    config = ServiceConfig(clock=ManualClock(start=0.0, step=1.0), **overrides)
    return SelectionService(small_universe(), history(), config)


# -- determinism -------------------------------------------------------------


def test_lifecycle_quantiles_are_exact_under_manual_clock():
    """Serialized requests consume a fixed clock-read schedule: the
    admitted->started gap is always 2 steps and started->finished is
    always 1, so every quantile of every histogram is a constant."""
    with manual_service() as service:
        for index in range(5):
            response = service.submit_wait(request(f"r{index}"), 30.0)
            assert response.status == "ok", response.detail
        snap = service.stats()["telemetry"]
    for q in ("p50", "p95", "p99"):
        assert snap["histograms"]["queue_wait_s"][q] == 2.0
        assert snap["histograms"]["solve_s"][q] == 1.0
        assert snap["histograms"]["request_s"][q] == 3.0
        assert snap["histograms"]["batch_size"][q] == 1.0
    assert snap["histograms"]["request_s"]["count"] == 5
    assert snap["counters"]["requests"]["total"] == 5
    assert snap["counters"]["status.ok"]["total"] == 5


def test_stats_telemetry_snapshot_is_reproducible_across_runs():
    def run() -> dict:
        with manual_service() as service:
            for index in range(3):
                service.submit_wait(request(f"r{index}"), 30.0)
            snap = service.stats()
        # Drop the wall-clock-free but run-scoped id-less gauges that
        # depend on how many reads the stats call itself consumed: none
        # do — the clock is the only time source — so the whole payload
        # must reproduce.
        return snap

    first, second = run(), run()
    assert first["telemetry"] == second["telemetry"]
    assert first["resilience"] == second["resilience"]


# -- equivalence -------------------------------------------------------------


def serve_all(telemetry: bool, requests) -> list[str]:
    config = ServiceConfig(telemetry=telemetry)
    with SelectionService(small_universe(), history(), config) as service:
        responses = [service.submit_wait(req, 30.0) for req in requests]
    # `elapsed` is measured wall time in *both* configurations;
    # everything else must match byte for byte.
    return [
        encode(replace(resp, elapsed=0.0).to_dict()) for resp in responses
    ]


def test_responses_are_byte_identical_with_telemetry_on_and_off():
    def workload():
        return [
            request("a", target="t3"),
            request("b", target="t4"),
            request("a2", target="t3"),  # memo hit
            request("chaos", target="t5", fault_plan=CHAOS_PLAN),
            request("ladder", target="t6", mode="ladder"),
        ]

    assert serve_all(True, workload()) == serve_all(False, workload())


def test_disabling_telemetry_keeps_the_flat_stats_contract():
    with manual_service() as enabled:
        enabled.submit_wait(request("r1"), 30.0)
        rich = enabled.stats()
    config = ServiceConfig(telemetry=False)
    with SelectionService(small_universe(), history(), config) as disabled:
        disabled.submit_wait(request("r1"), 30.0)
        flat = disabled.stats()
    assert "telemetry" not in flat
    assert "resilience" not in flat
    # The enriched payload is a strict superset of the flat one.
    assert set(flat) <= set(rich)
    for key in ("epoch", "rings", "offered", "refused"):
        assert rich[key] == flat[key]


# -- resilience surfacing ----------------------------------------------------


def test_stats_surfaces_resilience_counters_from_the_solver():
    with manual_service() as service:
        ok = service.submit_wait(request("r1"), 30.0)
        chaos = service.submit_wait(
            request("chaos", target="t4", fault_plan=CHAOS_PLAN), 30.0
        )
        stats = service.stats()
    assert ok.status == "ok"
    assert chaos.status == "error" and chaos.code == "fault_injected"
    resilience = stats["resilience"]
    assert resilience["faults_injected"] >= 1
    assert resilience["rung_served"] == {"exact": 1}
    for key in ("retries", "worker_lost", "degradations"):
        assert resilience[key] == 0


# -- health ------------------------------------------------------------------


def test_health_transitions_ready_degraded_draining():
    with manual_service() as service:
        assert service.health()["health"] == "ready"
        service.submit_wait(
            request("chaos", fault_plan=CHAOS_PLAN), 30.0
        )
        degraded = service.health()
        assert degraded["health"] == "degraded"
        assert any(
            "errors.fault_injected" in reason for reason in degraded["reasons"]
        )
        service.queue.close()
        assert service.health()["health"] == "draining"


def test_health_without_telemetry_still_answers():
    config = ServiceConfig(telemetry=False)
    with SelectionService(small_universe(), history(), config) as service:
        probe = service.health()
        assert probe["health"] == "ready"
        assert probe["reasons"] == []
        service.queue.close()
        assert service.health()["health"] == "draining"


# -- the wire ops ------------------------------------------------------------


def test_metrics_op_returns_prometheus_text():
    with manual_service() as service:
        service.submit_wait(request("r1"), 30.0)
        line, keep_going = handle_line(
            service, json.dumps({"op": "metrics", "id": "m1"})
        )
    assert keep_going
    payload = json.loads(line)
    assert payload["status"] == "ok"
    assert payload["content_type"].startswith("text/plain; version=0.0.4")
    body = payload["body"]
    assert "# TYPE repro_service_request_s histogram" in body
    assert "repro_service_requests_total 1" in body
    assert 'repro_service_request_s_bucket{le="+Inf"} 1' in body
    assert "repro_service_request_s_p99 3" in body
    assert "repro_solver" in body  # solver/legacy counters render too


def test_health_op_over_the_wire():
    with manual_service() as service:
        line, keep_going = handle_line(
            service, json.dumps({"op": "health", "id": "h1"})
        )
    assert keep_going
    payload = json.loads(line)
    assert payload["status"] == "ok"
    assert payload["health"] == "ready"
    assert payload["id"] == "h1"


def test_metrics_op_without_telemetry_degrades_gracefully():
    config = ServiceConfig(telemetry=False)
    with SelectionService(small_universe(), history(), config) as service:
        service.submit_wait(request("r1"), 30.0)
        line, _ = handle_line(service, json.dumps({"op": "metrics", "id": "m"}))
    payload = json.loads(line)
    assert payload["status"] == "ok"
    assert "repro_service_requests_total 1" in payload["body"]


# -- drain summary and the pretty printers -----------------------------------


def test_drain_summary_reports_served_p99_and_memo_rate():
    with manual_service() as service:
        service.submit_wait(request("r1"), 30.0)
        service.submit_wait(request("r1b"), 30.0)  # identical -> memo hit
        summary = service.drain_summary()
    assert summary is not None
    assert "served 2 request(s)" in summary
    assert "2 ok" in summary
    assert "p99 request 3000.0ms" in summary
    assert "memo hit rate 50.0%" in summary


def test_drain_summary_is_none_when_disabled():
    config = ServiceConfig(telemetry=False)
    with SelectionService(small_universe(), history(), config) as service:
        assert service.drain_summary() is None


def test_format_stats_and_top_render_the_enriched_payload():
    with manual_service() as service:
        service.submit_wait(request("r1"), 30.0)
        stats = service.stats()
        health = service.health()
    rendered = format_stats(stats)
    assert "== service stats ==" in rendered
    assert "request_s" in rendered
    assert "rung_served" in rendered
    top = format_top(stats, health)
    assert "== repro top ==" in top
    assert "health: ready" in top


# -- the CLI surfaces --------------------------------------------------------


def _serve_args(tokens: int = 12, hts: int = 5) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--tokens", str(tokens), "--hts", str(hts), "--seed", "3",
    ]


def _run_stdio(extra_args: list[str], lines: list[str]):
    return subprocess.run(
        _serve_args() + extra_args,
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def test_serve_prints_telemetry_summary_on_drain():
    select = {"op": "select", "id": "r1", "target": "t03", "c": 2.0, "ell": 2}
    completed = _run_stdio([], [json.dumps(select)])
    assert completed.returncode == 0, completed.stderr
    assert "telemetry: served 1 request(s)" in completed.stderr
    assert "memo hit rate" in completed.stderr


def test_serve_no_telemetry_omits_the_summary():
    select = {"op": "select", "id": "r1", "target": "t03", "c": 2.0, "ell": 2}
    completed = _run_stdio(["--no-telemetry"], [json.dumps(select)])
    assert completed.returncode == 0, completed.stderr
    assert "telemetry:" not in completed.stderr
    # The original drain line survives unchanged.
    assert "final epoch" in completed.stderr


def test_client_stats_watch_and_top_against_a_live_socket(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "svc.sock")
    with SelectionService(small_universe(), history()) as service:
        ready = threading.Event()
        server = threading.Thread(
            target=serve_socket, args=(service, path, ready), daemon=True
        )
        server.start()
        assert ready.wait(5.0)

        assert main(["client", "--socket", path, "--target", "t3"]) == 0
        assert main(["client", "--socket", path, "--stats"]) == 0
        assert main(
            ["client", "--socket", path, "--watch", "0.01",
             "--iterations", "2"]
        ) == 0
        assert main(
            ["top", "--socket", path, "--interval", "0.01",
             "--iterations", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("== service stats ==") >= 3  # stats + 2 watch polls
        assert "== repro top ==" in out
        assert "health: ready" in out

        from repro.service import ServiceClient

        with ServiceClient(path) as client:
            client.shutdown()
        server.join(timeout=5.0)
        assert not server.is_alive()


# -- cost --------------------------------------------------------------------


def test_telemetry_marks_cost_under_the_bench_budget():
    """Price the four lifecycle marks against the cheapest request the
    benches actually measure — a warm-cache *solve* (the bench workload
    never replays memoized answers; its requests cost milliseconds).
    The instrument must stay under a 5% margin even against
    this floor.

    One timing of each side is at the mercy of whatever else shares the
    CPU, so rounds of marks are interleaved with warm solves on distinct
    targets and the medians are compared."""
    telemetry = ServiceTelemetry()

    class _Ok:
        status = "ok"
        code = None
        rung = "exact"
        degraded = False
        warm_cache = True
        attrs = {"memo": True}

    response = _Ok()

    def marks_per_request(rounds: int = 400) -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            admitted = telemetry.admitted(0)
            telemetry.batch_started(1, 0)
            started = telemetry.request_started(admitted)
            telemetry.request_finished(response, admitted, started)
        return (time.perf_counter() - start) / rounds

    marks, solves = [], []
    with SelectionService(small_universe(), history()) as service:
        service.submit_wait(request("warmup"), 30.0)  # builds the caches
        # Distinct targets: real warm-cache solves, no memo replay.
        for target in ("t4", "t5", "t6", "t7", "t8"):
            marks.append(marks_per_request())
            start = time.perf_counter()
            service.submit_wait(request(f"warm-{target}", target=target), 30.0)
            solves.append(time.perf_counter() - start)
        marks.append(marks_per_request())

    per_request_marks = statistics.median(marks)
    warm_solve = statistics.median(solves)
    assert per_request_marks < 0.05 * warm_solve, (
        f"telemetry marks cost {per_request_marks * 1e6:.1f}us per request "
        f"vs {warm_solve * 1e6:.1f}us for the median warm solve"
    )
