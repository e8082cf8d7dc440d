#!/usr/bin/env python3
"""Track benchmark headlines across PRs and fail on regressions.

Möser et al.'s empirical methodology (PAPERS.md) argues for tracked
longitudinal measurements rather than one-off numbers; this tool makes
the repo's bench artifacts exactly that.  It reads the current
``benchmarks/results/BENCH_*.json`` artifacts, extracts the headline
metrics registered in :data:`METRICS`, and compares them against the
committed history in ``benchmarks/results/TREND.jsonl`` — one JSON
object per line, ``{"label": ..., "metrics": {name: value}}``, in
chronological order, no wall-clock timestamps (the file must be
byte-stable across reruns of the same code).

Modes (combinable; ``--report`` is the default):

``--report``
    print the metric history plus the current artifact values.
``--check``
    exit 1 if any current metric regressed more than ``--threshold``
    percent against the most recent recorded value (CI runs this
    against the committed artifacts, so a fresh checkout always
    passes and a perf-regressing PR fails its own bench refresh).
``--record LABEL``
    append the current artifact metrics as a new history entry.

Artifacts embed a ``workload`` fingerprint (budgets, sizes, seeds);
``--record`` stores it alongside the metrics and ``--check`` compares
a metric only when the current artifact's fingerprint matches the
recorded one.  A ``make bench-smoke`` run with tight caps therefore
*skips* the full-bench baselines instead of reading as a regression —
like is only ever compared with like.

Zero dependencies, stdlib only, like everything else in ``tools/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results"
TREND_NAME = "TREND.jsonl"

#: metric name -> (artifact file, path inside the JSON document,
#: direction).  ``higher`` means bigger is better; ``lower`` means the
#: metric is a cost.  Missing files/keys are skipped, not errors, so
#: the tool keeps working while an artifact is being regenerated.
METRICS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "bfs.speedup": ("BENCH_bfs.json", ("headline", "speedup"), "higher"),
    "bfs.optimized_seconds": (
        "BENCH_bfs.json",
        ("headline", "optimized_seconds"),
        "lower",
    ),
    "bfs.ring_index": ("BENCH_bfs.json", ("headline", "ring_index"), "higher"),
    "service.speedup": ("BENCH_service.json", ("speedup",), "higher"),
    "shard.throughput_rps": (
        "BENCH_shard.json",
        ("headline", "throughput_rps"),
        "higher",
    ),
    "shard.speedup_vs_single": (
        "BENCH_shard.json",
        ("headline", "speedup_vs_single"),
        "higher",
    ),
    # Not overhead_pct: it hovers around zero and can go negative
    # (fsync cost inside run-to-run noise), which makes a percentage
    # regression check meaningless.  The journaled throughput carries
    # the same signal with a stable sign.
    "recovery.journal_rps": (
        "BENCH_recovery.json",
        ("headline", "journal_rps"),
        "higher",
    ),
    "recovery.replay_rings_per_s": (
        "BENCH_recovery.json",
        ("headline", "replay_rings_per_s"),
        "higher",
    ),
}


def _dig(doc, path: tuple[str, ...]):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _load_artifacts(results_dir: Path) -> dict[str, dict | None]:
    cache: dict[str, dict | None] = {}
    for _name, (artifact, _path, _direction) in METRICS.items():
        if artifact in cache:
            continue
        try:
            cache[artifact] = json.loads((results_dir / artifact).read_text())
        except (OSError, ValueError):
            cache[artifact] = None
    return cache


def current_metrics(results_dir: Path) -> dict[str, float]:
    """The registered headline values present in today's artifacts."""
    values: dict[str, float] = {}
    cache = _load_artifacts(results_dir)
    for name, (artifact, path, _direction) in METRICS.items():
        doc = cache[artifact]
        if doc is None:
            continue
        value = _dig(doc, path)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values[name] = float(value)
    return values


def current_workloads(results_dir: Path) -> dict[str, dict]:
    """Each artifact's ``workload`` fingerprint, where present."""
    workloads: dict[str, dict] = {}
    for artifact, doc in _load_artifacts(results_dir).items():
        if isinstance(doc, dict) and isinstance(doc.get("workload"), dict):
            workloads[artifact] = doc["workload"]
    return workloads


def load_history(trend_path: Path) -> list[dict]:
    if not trend_path.exists():
        return []
    entries = []
    for line_no, line in enumerate(
        trend_path.read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise SystemExit(
                f"error: {trend_path}:{line_no}: not valid JSON: {exc}"
            )
        if "label" not in entry or not isinstance(entry.get("metrics"), dict):
            raise SystemExit(
                f"error: {trend_path}:{line_no}: entries need a 'label' "
                f"and a 'metrics' object"
            )
        entries.append(entry)
    return entries


def baseline_for(
    history: list[dict], metric: str
) -> tuple[str, float, dict | None] | None:
    """The most recent recorded (label, value, workload) for ``metric``.

    ``workload`` is the fingerprint the entry recorded for the metric's
    artifact, or ``None`` when the entry predates workload recording —
    older entries stay comparable against everything (wildcard).
    """
    artifact = METRICS[metric][0]
    for entry in reversed(history):
        value = entry["metrics"].get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            workload = entry.get("workloads", {}).get(artifact)
            if not isinstance(workload, dict):
                workload = None
            return str(entry["label"]), float(value), workload
    return None


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(history: list[dict], current: dict[str, float]) -> None:
    labels = [str(entry["label"]) for entry in history]
    print("bench trend (oldest -> newest, 'now' = current artifacts):")
    width = max((len(name) for name in METRICS), default=10)
    header = "  " + "metric".ljust(width) + "  " + "  ".join(
        f"{label:>10}" for label in labels + ["now"]
    )
    print(header)
    for name, (_artifact, _path, direction) in METRICS.items():
        cells = []
        for entry in history:
            value = entry["metrics"].get(name)
            cells.append(
                f"{_fmt(value):>10}"
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
                else f"{'-':>10}"
            )
        now = current.get(name)
        cells.append(f"{_fmt(now):>10}" if now is not None else f"{'-':>10}")
        arrow = "^" if direction == "higher" else "v"
        print("  " + name.ljust(width) + "  " + "  ".join(cells) + f"  ({arrow} better)")


def check(
    history: list[dict],
    current: dict[str, float],
    threshold_pct: float,
    workloads: dict[str, dict] | None = None,
) -> int:
    """Return the number of metrics regressed beyond ``threshold_pct``."""
    if not history:
        print("check: no TREND.jsonl history; nothing to compare against")
        return 0
    workloads = workloads or {}
    regressions = 0
    for name, (artifact, _path, direction) in METRICS.items():
        now = current.get(name)
        baseline = baseline_for(history, name)
        if now is None or baseline is None:
            continue
        label, base, base_workload = baseline
        now_workload = workloads.get(artifact)
        if (
            base_workload is not None
            and now_workload is not None
            and base_workload != now_workload
        ):
            # A capped smoke run vs. the full bench (or any other
            # parameter change) is not a regression — different work.
            print(
                f"check: {name}: skipped (workload changed since {label}; "
                f"re-record after a full bench run)"
            )
            continue
        if base == 0:
            continue
        if direction == "higher":
            change_pct = (now - base) / base * 100.0
            regressed = change_pct < -threshold_pct
        else:
            change_pct = (base - now) / base * 100.0
            regressed = change_pct < -threshold_pct
        status = "REGRESSED" if regressed else "ok"
        print(
            f"check: {name}: {_fmt(base)} ({label}) -> {_fmt(now)} "
            f"[{change_pct:+.1f}% vs -{threshold_pct:g}% allowed] {status}"
        )
        regressions += regressed
    if regressions:
        print(
            f"check: {regressions} metric(s) regressed beyond the "
            f"{threshold_pct:g}% threshold",
            file=sys.stderr,
        )
    return regressions


def record(
    trend_path: Path,
    label: str,
    current: dict[str, float],
    workloads: dict[str, dict] | None = None,
) -> None:
    if not current:
        raise SystemExit("error: no artifact metrics found; nothing to record")
    entry = {"label": label, "metrics": dict(sorted(current.items()))}
    if workloads:
        entry["workloads"] = dict(sorted(workloads.items()))
    with trend_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {len(current)} metric(s) as {label!r} in {trend_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Track BENCH_*.json headlines across PRs."
    )
    parser.add_argument(
        "--results", metavar="DIR", type=Path, default=DEFAULT_RESULTS,
        help="directory holding BENCH_*.json and TREND.jsonl",
    )
    parser.add_argument(
        "--trend", metavar="PATH", type=Path, default=None,
        help="history file (default: RESULTS/TREND.jsonl)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the metric history table (default action)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on a regression beyond --threshold",
    )
    parser.add_argument(
        "--record", metavar="LABEL", default=None,
        help="append the current artifact metrics as a history entry",
    )
    parser.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="allowed regression in percent for --check (default 10)",
    )
    args = parser.parse_args(argv)

    trend_path = args.trend or args.results / TREND_NAME
    history = load_history(trend_path)
    current = current_metrics(args.results)
    workloads = current_workloads(args.results)

    did_something = False
    exit_code = 0
    if args.report or not (args.check or args.record):
        report(history, current)
        did_something = True
    if args.check:
        if did_something:
            print()
        exit_code = 1 if check(history, current, args.threshold, workloads) else 0
        did_something = True
    if args.record is not None:
        if did_something:
            print()
        record(trend_path, args.record, current, workloads)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
