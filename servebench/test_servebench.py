"""The benchmark's own test: short profiles repeat their work exactly.

Run from the repository root: ``python3 -m pytest servebench/test_servebench.py``.
Each workload runs twice on one seed, once untraced and once traced;
both runs must pass every answer check, fail no operation, attempt the
same operations and report identical daemon work counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS, metric_units  # noqa: E402


def short_run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    counts = json.loads(lines[-2].removeprefix("work_counts "))
    return counts, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_profile_repeats_exactly(workload):
    plain_counts, plain = short_run(workload, 0)
    traced_counts, traced = short_run(workload, 1)
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
    assert plain["attempted"] == traced["attempted"]
    assert plain_counts == traced_counts
    assert plain_counts["bfs.selected"] > 0 and plain_counts["journal.fsyncs"] > 0
    assert list(plain["metrics"]) == list(metric_units("end_to_end"))
    assert list(traced["metrics"]) == list(metric_units("per_layer"))
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout the benchmark fails at once, even when an
    installed ``repro`` could be imported."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "servebench"
    bench.mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "memo-reads", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
