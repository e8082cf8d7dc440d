"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9", "fig10", "sim"):
            args = parser.parse_args(
                [name] if name in ("fig3", "fig4", "sim") else [name, "--instances", "1"]
            )
            assert args.command == name

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "outputs/tx" in out
        assert "285 transactions" in out

    def test_sweep_runs_small(self, capsys):
        assert main(["fig7", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "TM_P" in out
        assert "Mean ring size" in out

    def test_sim_runs(self, capsys):
        assert main(["sim", "--ticks", "2"]) == 0
        out = capsys.readouterr().out
        assert "tick" in out
        assert "final population" in out

    def test_sim_algorithm_choice(self, capsys):
        assert main(["sim", "--ticks", "1", "--algorithm", "smallest"]) == 0


class TestObservabilityFlags:
    def test_every_subcommand_accepts_obs_flags(self):
        parser = build_parser()
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9", "fig10", "sim"):
            args = parser.parse_args([name, "--metrics", "--trace-out", "x.jsonl"])
            assert args.metrics is True
            assert args.trace_out == "x.jsonl"

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["fig4"])
        assert args.metrics is False
        assert args.trace_out is None

    def test_metrics_flag_prints_summary(self, capsys):
        assert main(["fig4", "--budget", "2", "--max-rings", "2",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "bfs.candidates" in out
        assert "cache worlds hit rate" in out

    def test_trace_out_writes_parseable_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["fig4", "--budget", "2", "--max-rings", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"spans to {path}" in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert any(r["name"] == "bfs.select" for r in records)
        ends = [r["end"] for r in records]
        assert ends == sorted(ends)

    def test_without_flags_no_summary(self, capsys):
        assert main(["fig4", "--budget", "2", "--max-rings", "1"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" not in out


class TestSelectCommand:
    def test_select_registered_with_resilience_flags(self):
        args = build_parser().parse_args(
            ["select", "--rings", "2", "--budget", "1",
             "--fault-plan", "plan.json"]
        )
        assert args.command == "select"
        assert args.budget == 1.0
        assert args.fault_plan == "plan.json"

    def test_every_subcommand_accepts_fault_plan(self):
        parser = build_parser()
        for name in ("fig3", "fig4", "sim", "select"):
            args = parser.parse_args([name, "--fault-plan", "p.json"])
            assert args.fault_plan == "p.json"

    def test_select_runs_clean(self, capsys):
        assert main(["select", "--rings", "2", "--tokens", "12",
                     "--hts", "6", "--c", "2.0", "--ell", "2"]) == 0
        out = capsys.readouterr().out
        assert "rung" in out
        assert "exact" in out

    def test_exact_only_budget_trip_exits_75(self, capsys):
        assert main(["select", "--rings", "1", "--budget", "0",
                     "--exact-only"]) == 75
        err = capsys.readouterr().err
        assert "exceeded" in err

    def test_degraded_run_exits_zero_with_notice(self, capsys):
        assert main(["select", "--rings", "1", "--budget", "0"]) == 0
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "progressive" in captured.out

    def test_fault_plan_flag_installs_plan(self, tmp_path, capsys):
        from repro.resilience.faults import FaultPlan, FaultSpec

        plan_path = FaultPlan(
            [FaultSpec(site="bfs.candidate", action="delay", payload=0.0)]
        ).save(tmp_path / "plan.json")
        assert main(["select", "--rings", "1", "--tokens", "10",
                     "--hts", "5", "--c", "2.0", "--ell", "2",
                     "--fault-plan", str(plan_path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "resilience.faults" in out


SERVE_IMPORTS = """
import json, sys
before = set(sys.modules)
from repro import cli
code = cli.main(["serve"])
added = sorted(set(sys.modules) - before)
import repro
report = {"code": code, "added": added, "version": repro.__version__,
          "other": hasattr(repro, "no_such_attribute")}
print(json.dumps(report))
"""


def test_serve_imports_only_what_it_serves():
    # A daemon start paid for the figure harness (and the dataset
    # generators it pulls in) and for importlib.metadata, which the
    # package read at import for a __version__ nothing serving uses.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SERVE_IMPORTS],
        input="", capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    added = report["added"]
    assert "repro.service.daemon" in added
    assert not [m for m in added if m.startswith(("repro.experiments", "repro.data"))]
    assert "importlib.metadata" not in added
    # __version__ still resolves, on first access.
    assert isinstance(report["version"], str) and report["version"]
    assert report["other"] is False
