"""Unit tests for the resilience layer (repro.resilience).

The chaos scenarios (faults actually firing inside the pipeline) live
in ``tests/test_failure_injection.py``; this module covers the layer's
own contracts: fault-plan serialization and deterministic firing, the
degradation ladder's ordering and fail-closed semantics, and the priced disabled-path
overhead guard (< 3%, same methodology as ``tests/test_obs_overhead``).
"""

import random
import time
from collections import Counter
from itertools import product

import pytest

from repro.core.bfs import bfs_select
from repro.core.diversity import ht_counts_satisfy
from repro.core.perf.reference import (
    check_non_eliminated_reference,
    get_dtrss_reference,
)
from repro.core.problem import DamsInstance, InfeasibleError, is_feasible_exact
from repro.core.ring import Ring, TokenUniverse, related_ring_set
from repro.obs import metrics
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active,
    injecting,
)
from repro.resilience.ladder import (
    CONSTRAINTS,
    RUNGS,
    ConstraintViolation,
    DegradedResult,
    ladder_select,
    verify_ring,
)


def dams_instance(tokens=14, hts=5, c=2.0, ell=3, seed=0, rings=()):
    rng = random.Random(seed)
    universe = TokenUniverse(
        {f"t{i}": f"h{rng.randrange(hts)}" for i in range(tokens)}
    )
    return DamsInstance(universe, list(rings), "t0", c=c, ell=ell)


class TestFaultPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec(site="bfs.candidate", action="delay",
                          at_hit=3, payload=0.5),
                FaultSpec(site="shard.batch", action="die",
                          at_index=1, on_attempt=0),
                FaultSpec(site="cache.worlds", action="corrupt",
                          probability=0.25, max_fires=None),
            ],
            seed=7,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.specs == plan.specs
        assert restored.seed == plan.seed

    def test_save_load(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="chain.load", action="io_error")])
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path).specs == plan.specs

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "faults": []})

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_dict(
                {"version": 1, "faults": [{"site": "x", "bogus": True}]}
            )

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="bfs.candidate", action="explode")


class TestFaultPlanDeterminism:
    def test_at_hit_fires_exactly_once(self):
        plan = FaultPlan(
            [FaultSpec(site="s", action="error", at_hit=2)]
        )
        assert plan.check("s") is None
        with pytest.raises(InjectedFault):
            plan.check("s")
        for _ in range(5):
            assert plan.check("s") is None  # max_fires=1 caps it

    def test_probability_stream_is_seed_deterministic(self):
        def fire_pattern(seed):
            plan = FaultPlan(
                [FaultSpec(site="s", action="corrupt",
                           probability=0.5, max_fires=None)],
                seed=seed,
            )
            return [plan.check("s") is not None for _ in range(64)]

        assert fire_pattern(1) == fire_pattern(1)
        assert fire_pattern(1) != fire_pattern(2)

    def test_at_index_ignores_other_indices_and_attempts(self):
        plan = FaultPlan(
            [FaultSpec(site="s", action="error", at_index=3, on_attempt=0)]
        )
        assert plan.check("s", index=2, attempt=0) is None
        assert plan.check("s", index=3, attempt=1) is None
        with pytest.raises(InjectedFault):
            plan.check("s", index=3, attempt=0)

    def test_slot_disabled_by_default(self):
        assert active() is None
        plan = FaultPlan()
        with injecting(plan):
            assert active() is plan
        assert active() is None


class TestLadder:
    def test_exact_success_is_not_degraded(self):
        outcome = ladder_select(dams_instance())
        assert isinstance(outcome, DegradedResult)
        assert outcome.rung == "exact"
        assert not outcome.degraded
        assert outcome.trigger is None
        assert outcome.claimed_c == 2.0 and outcome.claimed_ell == 3

    def test_budget_trip_steps_down_in_order(self):
        outcome = ladder_select(dams_instance(), time_budget=0.0)
        assert outcome.degraded
        assert outcome.rung in RUNGS[1:]
        assert RUNGS.index(outcome.rung) >= 1

    def test_exact_infeasibility_propagates(self):
        # Only one HT: no ell=2 requirement can ever hold, and the
        # exact rung's proof must not be papered over by degradation.
        universe = TokenUniverse({f"t{i}": "h0" for i in range(4)})
        instance = DamsInstance(universe, [], "t0", c=1.0, ell=2)
        with pytest.raises(InfeasibleError):
            ladder_select(instance)

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown ladder rung"):
            ladder_select(dams_instance(), rungs=("warp",))

    def test_relaxation_rung_claims_relaxed_requirement(self):
        # Force the relaxation rung; whatever it returns must be
        # labeled with the claim it verified at.
        try:
            outcome = ladder_select(
                dams_instance(), rungs=("relaxation",), rng=random.Random(0)
            )
        except (InfeasibleError, ConstraintViolation):
            return  # refusal is an acceptable outcome
        assert outcome.rung == "relaxation"
        if outcome.relaxation_level > 0:
            assert (outcome.claimed_c, outcome.claimed_ell) != (2.0, 3)


def reference_failures(instance, tokens):
    """The Definition 5 re-check rebuilt from the frozen seed functions
    (eager worlds per ``get_dtrss`` call, fresh Kuhn matchings), the way
    ``servebench/checks.py`` builds it."""
    universe = instance.universe
    candidate = instance.make_ring(set(tokens) - {instance.target_token})
    related = related_ring_set(candidate, instance.rings)
    closure = related + [candidate]

    def diverse_in(ring, rings):
        if not ht_counts_satisfy(universe.ht_counts(ring.tokens), ring.c, ring.ell):
            return False
        return all(
            ht_counts_satisfy(universe.ht_counts(dtrs.tokens), ring.c, ring.ell)
            for dtrs in get_dtrss_reference(ring, rings, universe)
        )

    failed = []
    if not diverse_in(candidate, closure):
        failed.append("diversity")
    if not check_non_eliminated_reference(closure):
        failed.append("non_eliminated")
    if any(diverse_in(ring, related) and not diverse_in(ring, closure)
           for ring in related):
        failed.append("immutability")
    return tuple(failed), related


def random_ring_to_verify(rng):
    """A random history, requirement and mixin set; overlapping small
    rings with mixed claims make every constraint fail now and then."""
    tokens = [f"t{i}" for i in range(rng.randint(5, 8))]
    universe = TokenUniverse({t: f"h{rng.randrange(4)}" for t in tokens})
    rings = [
        Ring(f"r{i}", frozenset(rng.sample(tokens, rng.randint(2, 3))),
             c=rng.choice([1.0, 2.0]), ell=rng.choice([1, 2]), seq=i)
        for i in range(rng.randint(1, 4))
    ]
    target = rng.choice(tokens)
    instance = DamsInstance(
        universe, rings, target, c=rng.choice([1.0, 2.0]),
        ell=rng.choice([1, 2, 3]),
    )
    mixins = rng.sample([t for t in tokens if t != target], rng.randint(1, 4))
    return instance, frozenset(mixins) | {target}


class TestVerifyRing:
    def test_matches_the_seed_recheck_on_random_rings(self):
        """verify_ring reports exactly the violations the seed functions
        find, on feasible and violating rings alike, and enumerates one
        world set for the closure plus one for the closure without the
        candidate (never one per checked ring)."""
        rng = random.Random(0)
        seen = Counter()
        for case in range(400):
            instance, tokens = random_ring_to_verify(rng)
            expected, related = reference_failures(instance, tokens)
            with metrics.recording() as rec:
                try:
                    reported = verify_ring(instance, tokens)
                except ConstraintViolation as exc:
                    assert exc.rung == "verify"
                    failed = exc.failed
                else:
                    assert reported == CONSTRAINTS
                    failed = ()
            assert failed == expected, f"case {case}: {failed} != {expected}"
            assert rec.counters["worlds.built"] == (2 if related else 1)
            mixins = tokens - {instance.target_token}
            assert is_feasible_exact(instance, mixins) == (not expected)
            seen[failed] += 1
        every_combination = {
            tuple(name for name, on in zip(CONSTRAINTS, flags) if on)
            for flags in product((False, True), repeat=len(CONSTRAINTS))
        }
        assert set(seen) == every_combination, seen


class TestDisabledFaultOverhead:
    """Priced guard: faults-disabled cost < 3% of the BFS baseline.

    Same methodology as ``tests/test_obs_overhead``: measure the
    workload, count the guarded-site executions, microbenchmark one
    disabled guard (``faults.active()`` + ``is None``), and assert the
    priced total stays under budget.
    """

    OVERHEAD_BUDGET = 0.03

    def _workload(self) -> float:
        rng = random.Random(3)
        universe = TokenUniverse(
            {f"t{i:02d}": f"h{rng.randrange(10)}" for i in range(20)}
        )
        rings = []
        consumed = set()
        start = time.perf_counter()
        for index in range(6):
            free = sorted(universe.tokens - consumed)
            target = free[rng.randrange(len(free))]
            instance = DamsInstance(universe, list(rings), target,
                                    c=5.0, ell=4)
            result = bfs_select(instance)
            rings.append(Ring(rid=f"r{index}", tokens=result.ring.tokens,
                              c=5.0, ell=4, seq=index))
            consumed.add(target)
        return time.perf_counter() - start

    @staticmethod
    def _price_disabled_guard(iterations: int = 200_000) -> float:
        assert active() is None
        probe = active
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(iterations):
                probe() is None
            best = min(best, time.perf_counter() - start)
        return best / iterations

    def test_disabled_fault_guards_under_three_percent(self):
        baseline_s = self._workload()
        with metrics.recording() as rec:
            self._workload()
        counters = rec.counters

        # One faults.active() per candidate check plus one per cache
        # lookup; strata/setup slack folded into a flat overcount.
        guard_fires = (
            counters["bfs.candidates"]
            + counters.get("cache.worlds_hits", 0)
            + counters.get("cache.worlds_misses", 0)
            + 2_000
        )
        guard_upper = 2 * guard_fires

        per_guard_s = self._price_disabled_guard()
        priced_overhead_s = guard_upper * per_guard_s
        assert priced_overhead_s < self.OVERHEAD_BUDGET * baseline_s, (
            f"disabled fault guards priced at {priced_overhead_s * 1e3:.2f}ms "
            f"({guard_upper} fires x {per_guard_s * 1e9:.0f}ns) vs "
            f"{self.OVERHEAD_BUDGET:.0%} of the {baseline_s:.3f}s baseline"
        )
