"""The exact rung's per-select paths leave no reference cycle.

Each check runs its work with the cyclic collector disabled, then asks
``gc.collect()`` how many unreachable objects the work left: every one
of them would otherwise wait for a collector pass over the daemon's
whole heap.  The searches of Algorithms 2–3 (the kernel's DTRS sweep,
world enumeration, the DTRS enumeration of the Definition 5 re-check)
are self-recursive closures; each clears its own name when it returns,
so refcounting frees a call's scratch state at once — on success, on
an exhausted stratum, on an infeasible instance and on a deadline trip.
"""

from __future__ import annotations

import gc
from itertools import combinations

import pytest

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.perf import kernels
from repro.core.perf.cache import SolverCache
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.resilience.ladder import ladder_select
from repro.service import SelectionService, SelectRequest, ServiceConfig
from tests.test_perf_kernels import random_instance

#: random_instance(seed, token_count=9, history=3) outcomes: solved in
#: the lowest stratum, solved after exhausting one or more strata, and
#: infeasible (every stratum exhausted).
SOLVED_FIRST_STRATUM = (2, 7, 10, 23, 27)
SOLVED_AFTER_EXHAUSTED = (1, 9, 11, 16, 32)
INFEASIBLE = (0, 4, 5, 12)


def seeded(seed: int) -> DamsInstance:
    return random_instance(seed, token_count=9, history=3)


def unreachable_after(work) -> int:
    """Objects ``work()`` left that only the cyclic collector frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
    finally:
        found = gc.collect()
        if enabled:
            gc.enable()
    return found


def raises(error: type[BaseException], call) -> bool:
    """Run ``call``; True iff it raised ``error`` (the traceback is dropped)."""
    try:
        call()
    except error:
        return True
    return False


@pytest.mark.parametrize("seed", SOLVED_FIRST_STRATUM + SOLVED_AFTER_EXHAUSTED)
def test_solved_bfs_select_leaves_no_cycle(seed):
    instance = seeded(seed)
    result = bfs_select(instance)  # warm imports and lazy module state
    exhausted = len(result.mixins) > instance.ell - 1  # past the lowest stratum
    assert exhausted == (seed in SOLVED_AFTER_EXHAUSTED)
    assert unreachable_after(lambda: bfs_select(instance)) == 0


@pytest.mark.parametrize("seed", INFEASIBLE)
def test_infeasible_bfs_select_leaves_no_cycle(seed):
    instance = seeded(seed)
    assert raises(InfeasibleError, lambda: bfs_select(instance))
    assert unreachable_after(lambda: raises(InfeasibleError, lambda: bfs_select(instance))) == 0


def test_deadline_in_the_kernel_sweep_leaves_no_cycle(monkeypatch):
    # The kernel looks at the clock on every sweep step; world
    # enumeration keeps its stride and this closure's base worlds take
    # fewer steps than one stride, so the only clock the expired
    # deadline can meet is the kernel sweep's.
    monkeypatch.setattr(kernels, "_DEADLINE_STRIDE", 1)
    instance = seeded(16)
    cache = SolverCache(instance.universe, instance.rings)
    sigma = sorted(instance.candidate_mixins())
    chunk = list(combinations(sigma, instance.ell - 1))[: kernels.KERNEL_BATCH_SIZE]
    # bfs_select's first chunk, at an expired deadline: worlds are
    # enumerated and a kernel state built before the sweep trips.
    assert kernels.prefilter_chunk(instance, cache, chunk, deadline=0.0) is None
    assert cache.stats.kernel_builds == 1

    def tripped():
        return raises(SearchBudgetExceeded, lambda: bfs_select(instance, time_budget=0.0))

    assert tripped()
    assert unreachable_after(tripped) == 0


def test_deadline_in_world_enumeration_leaves_no_cycle():
    # 11 rings over 12 shared tokens with distinct HTs: the first
    # candidate, ("t1",), passes its HT gate, and the base worlds of
    # its closure take far more steps than one deadline stride.
    tokens = {f"t{i}" for i in range(12)}
    universe = TokenUniverse({t: f"h{t[1:]}" for t in tokens})
    rings = [
        Ring(rid=f"r{i}", tokens=frozenset(tokens), c=1.0, ell=1, seq=i)
        for i in range(11)
    ]
    instance = DamsInstance(universe, rings, "t0", c=2.0, ell=2)
    cache = SolverCache(universe, rings)

    def tripped():
        return raises(
            SearchBudgetExceeded,
            lambda: bfs_select(instance, time_budget=0.0, cache=cache),
        )

    assert tripped()
    assert (cache.stats.worlds_misses, cache.stats.kernel_builds) == (1, 0)
    assert unreachable_after(tripped) == 0


@pytest.mark.parametrize("seed", SOLVED_FIRST_STRATUM + SOLVED_AFTER_EXHAUSTED)
def test_ladder_select_with_its_definition5_recheck_leaves_no_cycle(seed):
    instance = seeded(seed)
    outcome = ladder_select(instance)
    assert (outcome.rung, outcome.degraded) == ("exact", False)
    assert unreachable_after(lambda: ladder_select(instance)) == 0


def test_partitioned_service_select_and_commit_leave_no_cycle():
    batches = 4
    labels = {
        f"b{b}t{i}": f"b{b}x{i // 2}" for b in range(batches) for i in range(10)
    }
    rings = [
        Ring(f"b{b}r0", frozenset(f"b{b}t{i}" for i in range(4)), c=1.0, ell=2, seq=b)
        for b in range(batches)
    ]
    service = SelectionService(
        TokenUniverse(labels), rings, ServiceConfig(partition=batches)
    )

    def select_then_commit(b: int, spend: int) -> None:
        request = SelectRequest(
            request_id=f"s{b}.{spend}", target=f"b{b}t{spend}", c=2.0, ell=2
        )
        (response,) = service.execute_requests([request])
        assert response.status == "ok", response
        service.commit_ring(list(response.tokens), 2.0, 2, rid=f"c{b}.{spend}")

    # Per batch: a super-ring member, then two fresh tokens.  The first
    # spend runs unmeasured, to pay the service's one-off set-up.
    spends = [(b, spend) for b in range(batches) for spend in (1, 6, 8)]
    select_then_commit(*spends[0])
    for b, spend in spends[1:]:
        assert unreachable_after(lambda: select_then_commit(b, spend)) == 0
