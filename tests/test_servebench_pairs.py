"""``tools/servebench_pairs.py``'s summary, on canned servebench results.

No daemon starts here: the pairs are result objects in the shape
``servebench/run.py`` prints as its last line.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SPECS = [
    {"name": "select_cpu_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "select_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "servebench_pairs.py"
    spec = importlib.util.spec_from_file_location("servebench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(cpu: float, rps: float, rss: float, failed: int = 0, counts=None) -> dict:
    return {
        "correct": True,
        "attempted": 100,
        "failed": failed,
        "work_counts": counts or {"bfs.candidates": 7},
        "metrics": {
            "select_cpu_ms": {"value": cpu, "unit": "ms"},
            "select_rps": {"value": rps, "unit": "1/s"},
            "rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def canned_pairs() -> list[dict]:
    # The change is faster in 9 of 10 pairs (pair 5 ties), serves as
    # many selects per second in every pair but one, and grows RSS by 10 %.
    parent_cpu = [0.80, 0.82, 0.81, 0.79, 0.70, 0.83, 0.80, 0.84, 0.81, 0.80]
    change_cpu = [0.70, 0.72, 0.71, 0.69, 0.70, 0.73, 0.70, 0.74, 0.71, 0.70]
    pairs = []
    for i, (parent, change) in enumerate(zip(parent_cpu, change_cpu)):
        pairs.append(
            {
                "parent": result(parent, 1000.0, 40.0),
                "change": result(change, 1001.0 if i else 999.0, 44.0, failed=int(i == 3)),
            }
        )
    pairs[7]["change"]["work_counts"] = {"bfs.candidates": 8}
    return pairs


def test_summary_reports_medians_quartiles_wins_and_flags():
    tool = load_tool()
    rows = {row["name"]: row for row in tool.summarize(SPECS, canned_pairs())}

    cpu = rows["select_cpu_ms"]
    q1, median, q3 = cpu["parent"]
    assert median == pytest.approx(0.805)
    assert q1 < median < q3
    assert cpu["change"][1] == pytest.approx(0.705)
    assert cpu["delta_pct"] == pytest.approx(100 * (0.705 - 0.805) / 0.805)
    assert (cpu["wins"], cpu["pairs"]) == (9, 10)  # the tie counts for neither
    assert cpu["gain"] and not cpu["worse"]

    rps = rows["select_rps"]  # higher is better
    assert rps["wins"] == 9
    assert rps["gain"]  # +1/s beats the parent's zero interquartile range
    assert not rps["worse"]

    rss = rows["rss_mb"]  # +10 % against a 5 % bound
    assert rss["delta_pct"] == pytest.approx(10.0)
    assert rss["worse"] and not rss["gain"] and rss["wins"] == 0


def test_rendered_summary_names_flags_totals_and_work_counts():
    tool = load_tool()
    pairs = canned_pairs()
    text = tool.render(tool.summarize(SPECS, pairs), pairs)
    lines = {line.split()[0]: line for line in text.splitlines()}
    assert "gain" in lines["select_cpu_ms"] and "WORSE" not in lines["select_cpu_ms"]
    assert "WORSE" in lines["rss_mb"]
    assert "9/10" in lines["select_cpu_ms"]
    assert "parent: 1000 operations attempted, 0 failed" in text
    assert "change: 1000 operations attempted, 1 failed" in text
    assert "work counts identical in 9 of 10 pairs" in text
    assert "  bfs.candidates differs in 1 pair(s): 70 -> 71 over all pairs" in text.splitlines()


def test_a_single_pair_has_its_value_as_every_quartile():
    tool = load_tool()
    (row,) = tool.summarize(SPECS[:1], canned_pairs()[:1])
    assert row["parent"] == (0.80, 0.80, 0.80)
    assert row["wins"] == 1


def test_an_incorrect_run_fails(tmp_path):
    tool = load_tool()
    script = tmp_path / "servebench" / "run.py"
    script.parent.mkdir()
    script.write_text('print("work_counts {}")\nprint(\'{"correct": false}\')\n')
    with pytest.raises(tool.RunFailed, match="incorrect"):
        tool.run_once(tmp_path, "spend-flow", 1, 0)
    script.write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(tool.RunFailed, match="exited 3 with no result"):
        tool.run_once(tmp_path, "spend-flow", 1, 0)
    script.write_text('print("interrupted")\n')
    with pytest.raises(tool.RunFailed, match="exited 0 with no result"):
        tool.run_once(tmp_path, "spend-flow", 1, 0)


def test_report_prints_one_table_per_workload_and_flags_any_worse_metric():
    tool = load_tool()
    clean = [
        {"parent": result(0.80, 1000.0, 40.0), "change": result(0.79, 1000.0, 40.0)}
        for _ in range(4)
    ]
    text, worse = tool.report(SPECS, {"spend-flow": clean, "cold-selects": canned_pairs()}, 11)
    assert worse  # cold-selects' rss_mb is past its bound
    tables = text.split("\n\n")
    assert [table.splitlines()[0] for table in tables] == [
        "spend-flow: 4 pairs, seeds 11-14",
        "cold-selects: 10 pairs, seeds 11-20",
    ]
    assert "WORSE" not in tables[0] and "WORSE" in tables[1]
    assert tool.report(SPECS, {"spend-flow": clean}, 11)[1] is False


def test_every_pair_runs_each_workload_on_its_seed_alternating_sides(
    tmp_path, monkeypatch, capsys
):
    tool = load_tool()
    for side in tool.SIDES:
        (tmp_path / side / "servebench").mkdir(parents=True)
        (tmp_path / side / "servebench" / "run.py").write_text("")
        (tmp_path / side / "src").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPECS, "per_layer": []})
    )
    calls = []

    def fake_run_once(checkout, workload, seed, trace):
        calls.append((checkout.name, workload, seed))
        # The change grows RSS by 10 % on memo-reads only.
        rss = 44.0 if (checkout.name, workload) == ("change", "memo-reads") else 40.0
        return result(0.8, 1000.0, rss)

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    code = tool.main([
        str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "cold-selects", "memo-reads", "--pairs", "3", "--seed", "5",
    ])
    assert code == 2
    expected = []
    for i in range(3):
        order = tool.SIDES if i % 2 == 0 else tool.SIDES[::-1]
        for workload in ("cold-selects", "memo-reads"):
            expected += [(side, workload, 5 + i) for side in order]
    assert calls == expected
    out = capsys.readouterr().out
    assert "cold-selects: 3 pairs, seeds 5-7" in out
    assert "memo-reads: 3 pairs, seeds 5-7" in out
