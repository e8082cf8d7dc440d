"""End-to-end equivalence of the perf layer against the frozen seed.

The contract of the performance layer: caching, incremental matching,
compact worlds and the batch kernels change *nothing* observable —
same optimum, same mixin set, same ``candidates_checked``, same
exceptions — only wall-clock.  These tests pin that contract, plus the
budget-regression fix the seed lacked (a deadline that fires *inside*
one pathological candidate's DTRS sweep).
"""

import random
import time

import pytest

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.perf.cache import SolverCache
from repro.core.perf.reference import bfs_select_reference
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse


def random_instance(seed, token_count=8, ht_count=4, history=2):
    rng = random.Random(seed)
    tokens = [f"t{i}" for i in range(token_count)]
    universe = TokenUniverse(
        {token: f"h{rng.randrange(ht_count)}" for token in tokens}
    )
    rings = []
    for i in range(rng.randint(0, history)):
        size = rng.randint(2, 4)
        rings.append(
            Ring(
                rid=f"r{i}",
                tokens=frozenset(rng.sample(tokens, size)),
                c=1.0,
                ell=1,
                seq=i,
            )
        )
    target = tokens[rng.randrange(token_count)]
    c = rng.choice([1.0, 2.0])
    ell = rng.choice([2, 3])
    return DamsInstance(universe, rings, target, c=c, ell=ell)


def outcomes_of(solver, instance, **kwargs):
    """(kind, payload): 'ok' results compare by ring/mixins/checked."""
    try:
        result = solver(instance, **kwargs)
    except InfeasibleError:
        return ("infeasible", None)
    return (
        "ok",
        (result.ring.tokens, result.mixins, result.candidates_checked),
    )


class TestBfsEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_optimized_equals_reference(self, seed):
        instance = random_instance(seed)
        assert outcomes_of(bfs_select, instance) == outcomes_of(
            bfs_select_reference, instance
        ), f"solver divergence on seed {seed}"

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_cache_across_calls(self, seed):
        # One SolverCache reused for every target over the same history
        # must not leak state between searches.
        instance = random_instance(80 + seed, history=2)
        cache = SolverCache(instance.universe, instance.rings)
        for target in sorted(instance.universe.tokens)[:4]:
            probe = DamsInstance(
                instance.universe,
                list(instance.rings),
                target,
                c=instance.c,
                ell=instance.ell,
            )
            assert outcomes_of(bfs_select, probe, cache=cache) == outcomes_of(
                bfs_select_reference, probe
            )

    def test_sequential_workload_equals_reference(self):
        # Fig-4 style: each accepted ring enters the next instance's
        # history, so cache/worlds bugs would compound and diverge.
        rng = random.Random(3)
        universe = TokenUniverse(
            {f"t{i:02d}": f"h{rng.randrange(5)}" for i in range(12)}
        )
        rings = []
        consumed = set()
        for index in range(3):
            free = sorted(universe.tokens - consumed)
            target = free[rng.randrange(len(free))]
            instance = DamsInstance(universe, list(rings), target, c=2.0, ell=3)
            ours = outcomes_of(bfs_select, instance)
            theirs = outcomes_of(bfs_select_reference, instance)
            assert ours == theirs, f"divergence at generation {index}"
            if ours[0] != "ok":
                break
            tokens, _, _ = ours[1]
            rings.append(
                Ring(
                    rid=f"g{index}", tokens=tokens, c=2.0, ell=3, seq=index
                )
            )
            consumed.add(target)


class TestBudgetRegression:
    def test_deadline_fires_inside_one_candidate(self):
        # 11 rings over 12 fully-shared tokens: the very first candidate
        # ({t0} alone) pulls the whole component into its closure, whose
        # world enumeration has ~12!/1 states.  The seed only looked at
        # the clock between candidates, so it would grind through the
        # entire enumeration; the fixed solver must trip its deadline
        # inside the sweep and return promptly.
        tokens = {f"t{i}" for i in range(12)}
        universe = TokenUniverse({t: f"h{t[1:]}" for t in tokens})
        rings = [
            Ring(rid=f"r{i}", tokens=frozenset(tokens), c=1.0, ell=1, seq=i)
            for i in range(11)
        ]
        instance = DamsInstance(universe, rings, "t0", c=1.0, ell=1)
        start = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded):
            bfs_select(instance, time_budget=0.3)
        assert time.perf_counter() - start < 5.0
