"""The exact search's bookkeeping, published per chunk instead of per candidate.

The in-order replay tallies a chunk's verdicts and publishes them as
one event, and the kernel pre-filter publishes a chunk's solver-cache
lookups as one event.  The recorder must still receive exactly one
count per candidate and per lookup, also when a deadline, an injected
fault or cache corruption cuts a chunk short.  These tests count both
independently (the seed gates of the candidates replayed, a spy on
every base-world lookup) and compare.

They also pin the two pieces of candidate-independent work that moved
out of the flat pass (the one-token diversity test in closed form), and
that the module decomposition is built only when a degraded rung runs.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from repro.core import modules as core_modules
from repro.core import bfs
from repro.core.diversity import satisfies_recursive_diversity
from repro.core.perf import kernels, worlds
from repro.core.perf.cache import SolverCache
from repro.core.perf.kernels import one_token_fails
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service import SelectionService, SelectRequest, ServiceConfig
from tests.test_perf_kernels import random_instance, reference_gate

CANDIDATE_COUNTERS = ("bfs.candidates", "bfs.feasible", "bfs.filtered.")


def enumeration(instance):
    """Every candidate of the exact search, in its enumeration order."""
    sigma = sorted(instance.candidate_mixins())
    for size in range(max(0, instance.ell - 1), len(sigma) + 1):
        for mixins in combinations(sigma, size):
            yield size, mixins


def tally_of_first(instance, count: int) -> dict[str, int]:
    """One count per candidate, by the seed gates, for the first
    ``count`` candidates the search enumerates."""
    counters: Counter = Counter()
    for index, (size, mixins) in enumerate(enumeration(instance)):
        if index == count:
            break
        gate = reference_gate(instance, mixins)
        counters["bfs.candidates"] += 1
        counters[f"bfs.candidates.size{size}"] += 1
        counters["bfs.feasible" if gate == "feasible" else f"bfs.filtered.{gate}"] += 1
    return dict(counters)


def winner_position(instance) -> int:
    """How many candidates a complete search replays."""
    for index, (_, mixins) in enumerate(enumeration(instance)):
        if reference_gate(instance, mixins) == "feasible":
            return index + 1
    return index + 1


def candidate_counters(recorder) -> dict[str, int]:
    return {
        name: value
        for name, value in recorder.counters.items()
        if name.startswith(CANDIDATE_COUNTERS)
    }


def lookup_counters(recorder) -> dict[str, int]:
    return {
        name: recorder.counters[name]
        for name in ("cache.worlds_hits", "cache.worlds_misses")
        if name in recorder.counters
    }


@pytest.fixture
def lookups(monkeypatch):
    """Counts every base-world lookup, hit or miss, one by one."""
    seen: Counter = Counter()
    original = SolverCache.base_worlds

    def spy(self, key, deadline=None):
        hits, misses = self.stats.worlds_hits, self.stats.worlds_misses
        try:
            return original(self, key, deadline=deadline)
        finally:
            seen["cache.worlds_hits"] += self.stats.worlds_hits - hits
            seen["cache.worlds_misses"] += self.stats.worlds_misses - misses

    monkeypatch.setattr(SolverCache, "base_worlds", spy)
    return seen


def positive(counts: Counter) -> dict[str, int]:
    return {name: value for name, value in counts.items() if value}


class SteppingClock:
    """``time`` for the search modules: each read advances one step."""

    def __init__(self, start: float, step: float) -> None:
        self.now = start
        self.step = step

    def perf_counter(self) -> float:
        now = self.now
        self.now += self.step
        return now


@pytest.mark.parametrize("seed", range(8))
def test_complete_search_counts_one_per_candidate_and_lookup(seed, lookups):
    instance = random_instance(90 + seed, history=3)
    with metrics.recording() as rec:
        try:
            bfs.bfs_select(instance)
        except InfeasibleError:
            pass
    assert candidate_counters(rec) == tally_of_first(instance, winner_position(instance))
    assert lookup_counters(rec) == positive(lookups)


def test_a_replay_deadline_trip_inside_a_chunk_counts_what_it_replayed(
    monkeypatch, lookups
):
    # Only the replay reads this clock: one step per read, so a budget
    # of k + 1/2 steps trips at the replay's check of candidate k + 1.
    # The kernel's own checks read the real clock, far below the
    # deadline.
    tripped = 0
    for seed in range(12):
        instance = random_instance(300 + seed, token_count=9, history=3)
        total = winner_position(instance)
        if total < 3:
            continue
        replayed = total // 2
        monkeypatch.setattr(bfs, "time", SteppingClock(time.perf_counter(), 1000.0))
        lookups.clear()
        with metrics.recording() as rec:
            with pytest.raises(bfs.SearchBudgetExceeded) as excinfo:
                bfs.bfs_select(instance, time_budget=1000.0 * replayed + 500.0)
        assert f"after {replayed} candidates" in str(excinfo.value)
        assert candidate_counters(rec) == tally_of_first(instance, replayed), seed
        assert lookup_counters(rec) == positive(lookups)
        tripped += excinfo.value.scanned_in_size > 0
    assert tripped >= 4, "the trips must land inside chunks"


@pytest.mark.parametrize("seed", range(6))
def test_a_fault_on_the_kth_candidate_counts_the_ones_before_it(seed, lookups):
    instance = random_instance(400 + seed, token_count=9, history=3)
    total = winner_position(instance)
    k = max(1, (2 * total) // 3)
    plan = FaultPlan([FaultSpec(site="bfs.candidate", action="error", at_hit=k)])
    with metrics.recording() as rec, faults.injecting(plan):
        with pytest.raises(faults.InjectedFault):
            bfs.bfs_select(instance)
    assert candidate_counters(rec) == tally_of_first(instance, k - 1)
    assert lookup_counters(rec) == positive(lookups)


def test_cache_corruption_counts_every_lookup_as_a_miss(lookups):
    missed = 0
    for seed in range(6):
        instance = random_instance(500 + seed, token_count=9, history=3)
        plan = FaultPlan(
            [FaultSpec(site="cache.worlds", action="corrupt", max_fires=None)]
        )
        lookups.clear()
        with metrics.recording() as rec, faults.injecting(plan):
            try:
                bfs.bfs_select(instance)
            except InfeasibleError:
                pass
        expected = tally_of_first(instance, winner_position(instance))
        assert candidate_counters(rec) == expected, seed
        assert lookups["cache.worlds_hits"] == 0
        assert lookup_counters(rec) == positive(lookups)
        missed += lookups["cache.worlds_misses"]
    assert missed > 10


def test_a_chunk_the_kernel_abandons_still_publishes_its_lookups(monkeypatch, lookups):
    # 11 rings over 12 shared tokens: the first candidate's base world
    # enumeration passes the deadline, the kernel returns no verdict
    # and counts as no batch, but its lookup was made.
    names = {f"t{i}" for i in range(12)}
    universe = TokenUniverse({t: f"h{t[1:]}" for t in names})
    rings = [
        Ring(rid=f"r{i}", tokens=frozenset(names), c=1.0, ell=1, seq=i)
        for i in range(11)
    ]
    instance = DamsInstance(universe, rings, "t0", c=1.0, ell=1)
    clock = SteppingClock(0.0, step=1.0)
    for module in (bfs, kernels, worlds):
        monkeypatch.setattr(module, "time", clock)
    with metrics.recording() as rec:
        with pytest.raises(bfs.SearchBudgetExceeded):
            bfs.bfs_select(instance, time_budget=2.5)
    assert lookups == {"cache.worlds_hits": 0, "cache.worlds_misses": 1}
    assert lookup_counters(rec) == {"cache.worlds_misses": 1}
    # The size-0 chunk ({t0} alone fails its HT gate) is the one batch.
    assert (rec.counters["kernel.batches"], rec.counters["kernel.resolved"]) == (1, 1)
    assert rec.counters["bfs.deadline_trips"] == 1


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "c",
    [float("-inf"), -1.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 1.5, 2.0, 10.0,
     float("inf"), float("nan")],
)
def test_one_token_test_in_closed_form_matches_the_diversity_check(c, ell):
    assert one_token_fails(c, ell) is (not satisfies_recursive_diversity([1], c, ell))


# -- the module decomposition, built for degraded rungs only -----------------


def small_universe() -> TokenUniverse:
    rng = random.Random(11)
    return TokenUniverse({f"t{i:02d}": f"h{rng.randrange(4)}" for i in range(12)})


@pytest.fixture
def module_builds(monkeypatch):
    builds = []
    original = core_modules.ModuleUniverse.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(core_modules.ModuleUniverse, "__init__", counting)
    return builds


@pytest.mark.parametrize("mode", ["exact", "ladder"])
def test_selects_the_exact_rung_answers_never_build_the_decomposition(
    mode, module_builds
):
    universe = small_universe()
    tokens = sorted(universe.tokens)
    answered = 0
    with SelectionService(universe, (), ServiceConfig(telemetry=False)) as service:
        for step in range(6):
            response = service.submit_wait(
                SelectRequest(request_id=f"q{step}", target=tokens[step], c=2.0,
                              ell=2, mode=mode),
                timeout=60.0,
            )
            if response.ok:
                assert response.rung == "exact"
                answered += 1
                service.commit_ring(
                    tokens=response.tokens, c=2.0, ell=2, rid=f"c{step}"
                )
        delta = service.stats()["delta"]
    assert answered >= 3
    assert module_builds == []
    assert (delta["modules_extended"], delta["modules_rebuilt"]) == (0, 0)


def canon(response) -> dict:
    payload = response.to_dict()
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    payload.pop("attrs", None)
    return payload


def test_degraded_answers_after_commits_equal_a_cold_rebuild(module_builds):
    # A zero budget trips the exact rung at its first candidate, so the
    # progressive rung answers from the decomposition (seeded).  The
    # live service builds it at its first degraded select and extends
    # it through later commits; the oracle builds it cold.
    universe = small_universe()
    tokens = sorted(universe.tokens)
    config = ServiceConfig(telemetry=False)
    degraded = 0
    with SelectionService(universe, (), config) as live:
        for step in range(8):
            if step % 3 == 2:
                members = tokens[step : step + 3]
                live.commit_ring(tokens=members, c=2.0, ell=2, rid=f"c{step}")
                continue
            request = SelectRequest(
                request_id=f"q{step}", target=tokens[step + 3], c=2.0, ell=2,
                time_budget=0.0, seed=7 + step,
            )
            head = live.state.current()
            answer = live.submit_wait(request, timeout=60.0)
            with SelectionService(universe, head.rings, config, epoch=head.epoch) as oracle:
                expected = oracle.submit_wait(request, timeout=60.0)
            assert canon(answer) == canon(expected), f"q{step} at epoch {head.epoch}"
            degraded += answer.ok and answer.degraded
        delta = live.stats()["delta"]
    assert degraded >= 3
    assert delta["modules_extended"] + delta["modules_rebuilt"] > 0
    assert module_builds  # built on first degraded use, here and in every oracle
