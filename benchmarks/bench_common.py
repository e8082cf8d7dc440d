"""Shared plumbing for the figure benchmarks (not a test module).

Each bench regenerates one figure of the paper's Section 7: it runs the
sweep, prints the paper-style table, writes it under
``benchmarks/results/`` so the artifact survives pytest's output
capture, and asserts the *shape* claims the paper makes (who wins,
which way the trend bends) — absolute numbers are substrate-dependent.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.harness import SweepResult, format_table
from repro.obs import metrics as obs_metrics

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Instances per sweep point.  The paper samples 1000; benches default
#: lower to stay laptop-friendly.  Override via REPRO_BENCH_INSTANCES.
INSTANCES_PER_POINT = int(os.environ.get("REPRO_BENCH_INSTANCES", "25"))


def write_figure(name: str, sweep: SweepResult, note: str = "") -> str:
    """Render size+time tables for a sweep, save and return them."""
    parts = [f"# {name}"]
    if note:
        parts.append(note)
    parts.append("")
    parts.append("Mean ring size:")
    parts.append(format_table(sweep, "mean_size"))
    parts.append("")
    parts.append("Mean selection time (s):")
    parts.append(format_table(sweep, "mean_time"))
    text = "\n".join(parts)
    save_text(f"{name}.txt", text)
    return text


def save_text(filename: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(text + "\n")
    return path


def save_json(
    filename: str, payload: dict, recorder: obs_metrics.MemoryRecorder | None = None
) -> Path:
    """Machine-readable artifact (perf tracking across PRs).

    When a recorder is given — or one is actively installed via
    ``repro.obs.metrics`` — its snapshot is attached under a
    ``"metrics"`` key so the artifact carries cache hit rates and
    candidate counts alongside the timings.
    """
    if recorder is None:
        candidate = obs_metrics.active()
        if isinstance(candidate, obs_metrics.MemoryRecorder):
            recorder = candidate
    if recorder is not None and "metrics" not in payload:
        payload = {**payload, "metrics": recorder.snapshot()}
    if recorder is not None and "resilience" not in payload:
        payload = {**payload, "resilience": resilience_summary(recorder)}
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def resilience_summary(recorder: obs_metrics.MemoryRecorder) -> dict:
    """The resilience story of a run, as a small stable dict.

    Degradation/retry/fault counters (see ``repro.obs.events``) land in
    every bench artifact so a PR that starts degrading rings or
    retrying worker calls shows up in the perf history, not just in prose.
    """
    counters = recorder.counters
    return {
        "degradations": counters.get("resilience.degradations", 0),
        "retries": counters.get("resilience.retries", 0),
        "worker_lost": counters.get("resilience.worker_lost", 0),
        "faults_injected": counters.get("resilience.faults", 0),
        "fail_closed": counters.get("resilience.fail_closed", 0),
    }


def trend(values: list[float]) -> float:
    """Signed end-to-end slope of a series (ignores NaN-free interiors)."""
    return values[-1] - values[0]


def mean(values: list[float]) -> float:
    return sum(values) / len(values)
