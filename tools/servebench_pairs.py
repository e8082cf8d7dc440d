#!/usr/bin/env python3
"""Compare two checkouts on servebench workloads, in alternating pairs.

    python3 tools/servebench_pairs.py PARENT CHANGE \
        --workload cold-selects spend-flow memo-reads --pairs 10 --seed 701

``PARENT`` and ``CHANGE`` are two checkouts of this repository (each
with its own ``servebench/run.py`` and ``src/``).  The tool first
byte-compiles both checkouts' ``src`` with ``compileall``: a daemon
start in a checkout without cached bytecode compiles every module it
imports, which moves ``setup_s`` by itself.  Pair ``i`` then runs
``servebench/run.py`` once in each checkout for every named workload,
on seed ``SEED + i``, the parent first in even pairs and the change
first in odd ones, so a drift in the machine's speed lands on both
sides alike.

It prints one table per workload.  Per metric of ``BENCHMARK.json``
(end-to-end ones, or the per-layer ones with ``--trace 1``): each
side's median and quartiles, the change of the median in %, and the
pairs the change won, ties counting for neither side.  A metric whose
median got worse by more than its bound is flagged ``WORSE``; ``gain``
marks a metric the change won in at least nine pairs of ten with
medians further apart than the parent's interquartile range.  Then the
attempted and failed operation totals of each side, in how many pairs
the two sides' daemon work counts were identical, and each count that
differed, with its total on each side.

Exit codes: 0 done, 1 a run failed or reported a wrong answer, 2 a
metric of any workload is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    """A servebench run exited non-zero, printed no result, or was not correct."""


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One servebench run: its result object plus its ``work_counts``."""
    cmd = [
        sys.executable, "servebench/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RunFailed(
            f"{checkout} {workload} seed {seed} exited {proc.returncode} with no "
            f"result:\n{proc.stderr[-2000:]}"
        )
    if not result.get("correct"):
        raise RunFailed(f"{checkout} {workload} seed {seed} reported an incorrect run")
    counts = [line for line in lines if line.startswith("work_counts ")]
    result["work_counts"] = json.loads(counts[-1].split(" ", 1)[1]) if counts else None
    return result


def relative(base: float, value: float) -> float:
    """``value``'s change from ``base`` as a fraction of ``base``."""
    if value == base:
        return 0.0
    return (value - base) / abs(base) if base else math.copysign(math.inf, value - base)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(specs: list[dict], pairs: list[dict[str, dict]]) -> list[dict]:
    """One row per metric of ``specs`` over ``pairs`` of run results.

    ``specs`` are ``BENCHMARK.json`` metric entries (``name``, ``better``
    and, for end-to-end ones, ``bound``); each pair maps
    ``"parent"`` and ``"change"`` to a run's result object.
    """
    rows = []
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES
        }
        wins = sum(
            (change < parent) if lower else (change > parent)
            for parent, change in zip(values["parent"], values["change"])
        )
        parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
        delta = relative(parent_q[1], change_q[1])
        worse_by = delta if lower else -delta
        bound = spec.get("bound")
        rows.append(
            {
                "name": name,
                "parent": parent_q,
                "change": change_q,
                "delta_pct": 100.0 * delta,
                "wins": wins,
                "pairs": len(pairs),
                "worse": bound is not None and worse_by > bound,
                "gain": wins >= 0.9 * len(pairs)
                and abs(change_q[1] - parent_q[1]) > parent_q[2] - parent_q[0],
            }
        )
    return rows


def render(rows: list[dict], pairs: list[dict[str, dict]]) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:10.4f} [{q[0]:.4f}, {q[2]:.4f}]"

    lines = [
        f"{'metric':<28} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
        f" {'change':>8} {'wins':>6}"
    ]
    for row in rows:
        marks = " ".join(mark for mark in ("WORSE", "gain") if row[mark.lower()])
        lines.append(
            f"{row['name']:<28} {side(row['parent']):>32} {side(row['change']):>32}"
            f" {row['delta_pct']:+7.1f}% {row['wins']:>3}/{row['pairs']:<2} {marks}".rstrip()
        )
    for name in SIDES:
        attempted = sum(pair[name]["attempted"] for pair in pairs)
        failed = sum(pair[name]["failed"] for pair in pairs)
        lines.append(f"{name}: {attempted} operations attempted, {failed} failed")
    counts = [{side: pair[side]["work_counts"] or {} for side in SIDES} for pair in pairs]
    same = sum(pair["parent"] == pair["change"] for pair in counts)
    lines.append(f"work counts identical in {same} of {len(pairs)} pairs")
    names = sorted({name for pair in counts for side in SIDES for name in pair[side]})
    for name in names:
        differ = sum(pair["parent"].get(name) != pair["change"].get(name) for pair in counts)
        if differ:
            parent, change = (sum(pair[side].get(name, 0) for pair in counts) for side in SIDES)
            lines.append(f"  {name} differs in {differ} pair(s): {parent} -> {change} over all pairs")
    return "\n".join(lines)


def report(specs: list[dict], runs: dict[str, list[dict[str, dict]]], seed: int) -> tuple[str, bool]:
    """One table per workload of ``runs`` (workload -> its pairs), and
    whether any metric of any workload is worse than its bound."""
    tables, worse = [], False
    for workload, pairs in runs.items():
        rows = summarize(specs, pairs)
        worse = worse or any(row["worse"] for row in rows)
        tables.append(
            f"{workload}: {len(pairs)} pairs, seeds {seed}-{seed + len(pairs) - 1}\n"
            + render(rows, pairs)
        )
    return "\n\n".join(tables), worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, nargs="+", action="extend",
        help="servebench workloads; every pair runs each of them",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "servebench" / "run.py").is_file():
            parser.error(f"{path} holds no servebench/run.py")
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(path / "src")], check=True)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, list[dict[str, dict]]] = {name: [] for name in args.workload}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload, pairs in runs.items():
                pairs.append(
                    {side: run_once(checkouts[side], workload, seed, args.trace) for side in order}
                )
            print(f"pair {i + 1}/{args.pairs}: seed {seed}, {order[0]} first", file=sys.stderr)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text, worse = report(spec["per_layer" if args.trace else "end_to_end"], runs, args.seed)
    print(text)
    return 2 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
