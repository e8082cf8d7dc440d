"""Disabled-recorder overhead guard (< 3% of the BFS baseline).

Direct before/after wall-clock comparison of two sub-second runs is
noise-bound, so the guard prices the instrumentation instead:

1. run the smallest complete bench ladder with observability disabled
   and measure its runtime ``T`` — every guard executes its disabled
   branch during this run;
2. rerun it recording, and read off how many times each guard site
   fired (the work is deterministic, so the counts transfer);
3. microbenchmark the cost ``c`` of the *most expensive* disabled
   guard (``events.enabled()`` — a call plus two global loads; the
   matcher's captured-recorder check is strictly cheaper);
4. assert ``G_upper * c < 3% of T`` with ``G_upper`` a deliberate
   overcount of the guard executions.

If instrumentation creeps into a hot loop without a cheap guard, the
fired-count explodes and this test trips long before users notice.
"""

import random
import time

from repro.core.bfs import bfs_select
from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse
from repro.obs import events, metrics

C = 5.0
ELL = 4  # the bench's harder requirement: rungs 4-6 do real work
SEED = 3
MAX_RINGS = 6
OVERHEAD_BUDGET = 0.03


def _ladder() -> float:
    """The smallest complete bench workload; returns elapsed seconds."""
    rng = random.Random(SEED)
    universe = TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(10)}" for i in range(20)}
    )
    rings: list[Ring] = []
    consumed: set[str] = set()
    start = time.perf_counter()
    for index in range(MAX_RINGS):
        free = sorted(universe.tokens - consumed)
        target = free[rng.randrange(len(free))]
        instance = DamsInstance(universe, list(rings), target, c=C, ell=ELL)
        result = bfs_select(instance)
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
    return time.perf_counter() - start


def _price_disabled_guard(iterations: int = 200_000) -> float:
    """Per-call seconds of the disabled ``events.enabled()`` guard."""
    assert metrics.active() is None
    enabled = events.enabled
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iterations):
            enabled()
        best = min(best, time.perf_counter() - start)
    return best / iterations


def test_disabled_observability_overhead_under_three_percent():
    baseline_s = _ladder()

    with metrics.recording() as rec:
        _ladder()
    counters = rec.counters

    # One enabled()/active() execution per firing of each guarded site;
    # spans, strata and slack are folded into a flat overcount.
    guard_fires = (
        counters["bfs.candidates"]
        + counters.get("matcher.built", 0)
        + counters.get("matcher.queries", 0)
        + counters.get("dtrs.sweeps", 0)
        + counters.get("worlds.built", 0)
        + counters.get("cache.worlds_hits", 0)
        + counters.get("cache.worlds_misses", 0)
        + counters.get("kernel.batches", 0)
        + counters.get("kernel.states", 0)
        + counters.get("kernel.candidates", 0)
        + 2_000
    )
    guard_upper = 2 * guard_fires  # headroom for uncounted cheap checks

    per_guard_s = _price_disabled_guard()
    priced_overhead_s = guard_upper * per_guard_s

    assert priced_overhead_s < OVERHEAD_BUDGET * baseline_s, (
        f"disabled obs guards priced at {priced_overhead_s * 1e3:.2f}ms "
        f"({guard_upper} fires x {per_guard_s * 1e9:.0f}ns) vs "
        f"{OVERHEAD_BUDGET:.0%} of the {baseline_s:.3f}s baseline"
    )
