"""Before/after benchmark of the exact-BFS performance layer.

Runs the same sequential TM_B ladder (Figure-4 workload, harder
(5, 4)-diversity so the blow-up arrives by ring 5) twice: once with the
frozen seed solver (``bfs_select_reference``) and once with the
optimized solver (shared-work cache + compact worlds + incremental
matching), and writes ``benchmarks/results/BENCH_bfs.json`` with the
per-ring timings so the speedup is tracked across PRs.

Claims asserted:

* both solvers agree on every generation they both complete (ring
  tokens, sizes and ``candidates_checked``),
* at the largest ladder rung the seed completes, the optimized solver
  is >= 3x faster,
* the whole bench stays under a budget-scaled time box.

The artifact also records the batch kernel's work in the optimized
run (:mod:`repro.core.perf.kernels`: batches, candidates, states built
and the batch-size histogram).

Budgets are env-overridable: REPRO_BENCH_OPT_BUDGET (per-ring budget
for the optimized run, default 10 s), REPRO_BENCH_REF_BUDGET (seed
run, default 90 s — enough for the seed to complete rung 6, ~70 s on
the reference substrate; note the seed only honours the budget
*between* candidates), REPRO_BENCH_REF_TOTAL (cumulative cap on the
seed ladder, default 45 s).  ``make bench-smoke`` pins
REF_BUDGET=15/REF_TOTAL=30 so the smoke run budget-trips rung 6 and
claims rung 5; the full ``make bench`` lets the seed finish rung 6 and
claims the deepest rung.
"""

import os
import random
import time

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.perf.reference import bfs_select_reference
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.obs import metrics as obs_metrics

from bench_common import save_json, save_text

TOKEN_COUNT = 20
HT_COUNT = 10
C = 5.0
ELL = 4
SEED = 3
MAX_RINGS = 6

OPT_BUDGET = float(os.environ.get("REPRO_BENCH_OPT_BUDGET", "10"))
REF_BUDGET = float(os.environ.get("REPRO_BENCH_REF_BUDGET", "90"))
REF_TOTAL = float(os.environ.get("REPRO_BENCH_REF_TOTAL", "45"))
MIN_SPEEDUP = 3.0
MIN_REF_SECONDS = 0.05  # below this, timer noise dominates — no claim


def _ladder(solver, budget, total_cap=None):
    """The Figure-4 sequential workload, parameterized by solver.

    Deterministic: its own rng, seeded identically for both runs, is
    drawn from in the same order, so both solvers face the same
    universe, targets and histories rung by rung.
    """
    rng = random.Random(SEED)
    universe = TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(HT_COUNT)}" for i in range(TOKEN_COUNT)}
    )
    rings: list[Ring] = []
    consumed: set[str] = set()
    rows = []
    ladder_start = time.perf_counter()
    for index in range(MAX_RINGS):
        free = sorted(universe.tokens - consumed)
        target = free[rng.randrange(len(free))]
        if total_cap is not None and time.perf_counter() - ladder_start > total_cap:
            rows.append({"ring_index": index + 1, "outcome": "skipped"})
            break
        instance = DamsInstance(universe, list(rings), target, c=C, ell=ELL)
        start = time.perf_counter()
        try:
            result = solver(instance, time_budget=budget)
        except SearchBudgetExceeded:
            rows.append(
                {
                    "ring_index": index + 1,
                    "outcome": "budget",
                    "seconds": time.perf_counter() - start,
                }
            )
            break
        except InfeasibleError:
            rows.append(
                {
                    "ring_index": index + 1,
                    "outcome": "exhausted",
                    "seconds": time.perf_counter() - start,
                }
            )
            break
        rows.append(
            {
                "ring_index": index + 1,
                "outcome": "ok",
                "seconds": result.elapsed,
                "ring_size": len(result.ring.tokens),
                "candidates_checked": result.candidates_checked,
                "tokens": sorted(result.ring.tokens),
            }
        )
        rings.append(
            Ring(
                rid=f"r{index}",
                tokens=result.ring.tokens,
                c=C,
                ell=ELL,
                seq=result.ring.seq,
            )
        )
        consumed.add(target)
    return rows


def test_bfs_perf_layer_speedup():
    bench_start = time.perf_counter()
    # The optimized run records solver metrics; the snapshot rides along
    # in BENCH_bfs.json so cache hit rates are tracked next to timings.
    with obs_metrics.recording() as recorder:
        optimized = _ladder(bfs_select, OPT_BUDGET)
    reference = _ladder(bfs_select_reference, REF_BUDGET, total_cap=REF_TOTAL)

    ref_by_index = {row["ring_index"]: row for row in reference}
    rows = []
    for opt in optimized:
        ref = ref_by_index.get(opt["ring_index"], {"outcome": "skipped"})
        row = {
            "ring_index": opt["ring_index"],
            "optimized_outcome": opt["outcome"],
            "seed_outcome": ref["outcome"],
            "optimized_seconds": opt.get("seconds"),
            "seed_seconds": ref.get("seconds"),
        }
        if opt["outcome"] == "ok" and ref["outcome"] == "ok":
            # Equivalence on the shared rungs — the bench doubles as an
            # end-to-end check on the exact workload it times.
            assert opt["tokens"] == ref["tokens"], (
                f"solver divergence at ring {opt['ring_index']}"
            )
            assert opt["candidates_checked"] == ref["candidates_checked"]
            row["ring_size"] = opt["ring_size"]
            row["candidates_checked"] = opt["candidates_checked"]
            row["speedup"] = ref["seconds"] / max(opt["seconds"], 1e-9)
        rows.append(row)

    claimable = [
        row
        for row in rows
        if row.get("speedup") is not None
        and row["seed_seconds"] >= MIN_REF_SECONDS
    ]
    assert claimable, (
        "no ladder rung where both solvers finished and the seed took "
        f">= {MIN_REF_SECONDS}s — workload too easy to claim anything"
    )
    headline = max(claimable, key=lambda row: row["ring_index"])

    total = time.perf_counter() - bench_start
    snapshot = recorder.snapshot()
    kernel_counters = snapshot.get("counters", {})
    kernel = {
        "batches": kernel_counters.get("kernel.batches", 0),
        "candidates": kernel_counters.get("kernel.candidates", 0),
        "states_built": kernel_counters.get("kernel.states", 0),
        "batch_size": snapshot.get("histograms", {}).get("kernel.batch_size"),
    }
    payload = {
        "kernel": kernel,
        "workload": {
            "token_count": TOKEN_COUNT,
            "ht_count": HT_COUNT,
            "c": C,
            "ell": ELL,
            "seed": SEED,
            "max_rings": MAX_RINGS,
            "opt_budget_s": OPT_BUDGET,
            "ref_budget_s": REF_BUDGET,
        },
        "rows": rows,
        "headline": {
            "ring_index": headline["ring_index"],
            "seed_seconds": headline["seed_seconds"],
            "optimized_seconds": headline["optimized_seconds"],
            "speedup": headline["speedup"],
        },
        "total_bench_seconds": total,
    }
    save_json("BENCH_bfs.json", payload, recorder=recorder)

    lines = ["# Exact-BFS perf layer: seed vs optimized (per ladder rung)", ""]
    lines.append(
        f"{'ring':>4} | {'seed (s)':>10} | {'optimized (s)':>13} | {'speedup':>8}"
    )
    lines.append("-" * 48)
    for row in rows:
        seed_s = row["seed_seconds"]
        opt_s = row["optimized_seconds"]
        speedup = row.get("speedup")
        lines.append(
            f"{row['ring_index']:>4} | "
            f"{seed_s if seed_s is None else format(seed_s, '10.3f')} | "
            f"{opt_s if opt_s is None else format(opt_s, '13.3f')} | "
            f"{'-' if speedup is None else format(speedup, '8.1f')}"
        )
    lines.append("")
    batch_hist = kernel["batch_size"] or {}
    mean_batch = batch_hist.get("sum", 0) / max(batch_hist.get("count", 0), 1)
    lines.append(
        f"kernel: {kernel['batches']} batches, {kernel['candidates']} candidates, "
        f"mean batch {mean_batch:.1f}, "
        f"{kernel['states_built']} states built"
    )
    text = "\n".join(lines)
    save_text("BENCH_bfs.txt", text)
    print("\n" + text)

    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"ring {headline['ring_index']}: expected >= {MIN_SPEEDUP}x, got "
        f"{headline['speedup']:.2f}x "
        f"({headline['seed_seconds']:.3f}s -> {headline['optimized_seconds']:.3f}s)"
    )
    # The total cap only gates *starting* a rung, so the seed can spend
    # up to one full REF_BUDGET past it; the box scales with both caps
    # (60 s under the bench-smoke pins, 150 s at the full defaults).
    assert total < REF_TOTAL + REF_BUDGET + 15, (
        f"bench overran its time box: {total:.1f}s"
    )
