"""The columnar batch kernel against the frozen seed.

The kernel contract: verdicts are exact and per-candidate.  Each names
the gate the seed per-candidate check (:mod:`repro.core.perf.reference`)
fails first — its own HT multiset, then non-elimination over the
closure, then the DTRS sweep — or is ``feasible`` exactly when the seed
accepts the candidate.  So ``bfs_select``, and the per-candidate event
stream it emits, must match the seed solver.  These tests pin that
contract, the factorized ``slices_of`` against the closure's world
set enumerated from its rings, and the deadline-abort path.

Tests of the kernel carry its backend's name, ``python`` (big-int
masks), in their ids, as they did when the kernel had more than one.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.diversity import ht_counts_satisfy
from repro.core.perf.cache import SolverCache
from repro.core.perf.kernels import BACKEND, KERNEL_BATCH_SIZE, prefilter_chunk
from repro.core.perf.reference import (
    _candidate_feasible_reference,
    bfs_select_reference,
    check_non_eliminated_reference,
)
from repro.core.perf.worlds import WorldSet
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.obs import metrics

BACKENDS = ["python"]


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


def outcomes_of(solver, instance):
    try:
        result = solver(instance)
    except InfeasibleError:
        return ("infeasible", None)
    return (
        "ok",
        (result.ring.tokens, result.mixins, result.candidates_checked),
    )


def reference_gate(instance, mixin_tuple) -> str:
    """The verdict the seed checks give a candidate: ``"feasible"`` iff
    the seed accepts it, else the first seed check it fails."""
    candidate = instance.make_ring(mixin_tuple)
    if _candidate_feasible_reference(instance, candidate):
        return "feasible"
    universe = instance.universe
    if not ht_counts_satisfy(
        universe.ht_counts(candidate.tokens), candidate.c, candidate.ell
    ):
        return "ht"
    if not check_non_eliminated_reference(
        instance.related_rings(candidate) + [candidate]
    ):
        return "eliminated"
    return "dtrs"


def reference_bfs_counters(instance) -> dict[str, int]:
    """The ``bfs.*`` counters a search must record, candidate by
    candidate in the seed's enumeration order, from the seed gates."""
    sigma = sorted(instance.candidate_mixins())
    counters: Counter = Counter()
    for size in range(max(0, instance.ell - 1), len(sigma) + 1):
        for mixin_tuple in combinations(sigma, size):
            gate = reference_gate(instance, mixin_tuple)
            counters["bfs.candidates"] += 1
            counters[f"bfs.candidates.size{size}"] += 1
            if gate == "feasible":
                counters["bfs.feasible"] += 1
                counters["bfs.selected"] += 1
                return dict(counters)
            counters[f"bfs.filtered.{gate}"] += 1
        counters["bfs.strata_exhausted"] += 1
    return dict(counters)


def make_ring(rid, tokens, seq=0):
    return Ring(rid=rid, tokens=frozenset(tokens), c=1.0, ell=1, seq=seq)


class TestExtendBatch:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_materialized_extend(self, backend_name, seed):
        rng = random.Random(seed)
        tokens = [f"t{i}" for i in range(9)]
        universe = TokenUniverse({t: f"h{i % 4}" for i, t in enumerate(tokens)})
        rings = [
            make_ring(f"r{i}", rng.sample(tokens, rng.randint(2, 4)), seq=i)
            for i in range(rng.randint(1, 3))
        ]
        worlds = WorldSet(rings)
        state = BACKEND.build_state(worlds, universe)
        candidates = [
            frozenset(rng.sample(tokens, rng.randint(1, 4))) for _ in range(8)
        ]
        for cand_tokens in candidates:
            slices, _ = state.slices_of(cand_tokens)
            count = sum(free.bit_count() for free in slices.values())
            candidate = make_ring("r_tau", cand_tokens, seq=99)
            assert count == len(WorldSet(worlds.rings + [candidate])), (
                f"extension count diverged for {sorted(cand_tokens)}"
            )


class TestVerdictSemantics:
    @staticmethod
    def gate_case(seed):
        # Histories of 0-4 rings, so closures of up to 5 rings: the
        # sweep has no size bound, so every verdict must be exact there.
        instance = random_instance(1000 + seed, history=4)
        sigma = sorted(instance.candidate_mixins())
        chunks = [
            list(combinations(sigma, size))[:KERNEL_BATCH_SIZE]
            for size in (1, 2, 3)
        ]
        return instance, chunks

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_resolved_verdicts_match_seed_feasibility(self, backend_name, seed):
        instance, chunks = self.gate_case(seed)
        cache = SolverCache(instance.universe, instance.rings)
        for chunk in chunks:
            # Verdicts stop at the first feasible candidate, so walk the
            # chunk: each call resolves a prefix of what is left, and
            # only its last verdict may be feasible.
            verdicts = []
            while len(verdicts) < len(chunk):
                part = prefilter_chunk(instance, cache, chunk[len(verdicts):])
                assert part, "every call resolves at least one candidate"
                assert "feasible" not in part[:-1]
                verdicts.extend(part)
            for mixin_tuple, verdict in zip(chunk, verdicts):
                expected = reference_gate(instance, mixin_tuple)
                assert verdict == expected, (
                    f"seed {seed}: kernel says {verdict}, seed gate is "
                    f"{expected} for {mixin_tuple}"
                )

    def test_gate_cases_reach_every_gate_and_history(self):
        # The per-seed cases above pin every verdict only if, together,
        # they meet each gate and each history length 0-4.
        gates, histories = set(), set()
        for seed in range(10):
            instance, chunks = self.gate_case(seed)
            histories.add(len(instance.rings))
            for chunk in chunks:
                gates.update(reference_gate(instance, m) for m in chunk)
        assert histories == {0, 1, 2, 3, 4}
        assert gates == {"ht", "eliminated", "dtrs", "feasible"}, gates

    def test_serial_scan_computes_one_verdict_per_candidate(self):
        # The kernel stops at a chunk's first feasible candidate, which
        # is where the in-order replay returns: no verdict is computed
        # for a candidate the scan never reaches, on solvable and
        # infeasible instances alike.
        outcomes = set()
        for seed in range(12):
            instance = random_instance(500 + seed, token_count=9, history=4)
            with metrics.recording() as rec:
                outcome, _ = outcomes_of(bfs_select, instance)
            outcomes.add(outcome)
            scanned = rec.counters["bfs.candidates"]
            assert scanned > 0
            assert rec.counters["kernel.resolved"] == scanned, f"seed {seed}"
        assert outcomes == {"ok", "infeasible"}

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_every_candidate_resolves(self, backend_name):
        # The sweep is complete at any closure size: every verdict
        # names a gate, none is deferred.
        instance = random_instance(7, history=2)
        cache = SolverCache(instance.universe, instance.rings)
        sigma = sorted(instance.candidate_mixins())
        chunk = list(combinations(sigma, 2))[:KERNEL_BATCH_SIZE]
        verdicts = prefilter_chunk(instance, cache, chunk)
        assert verdicts
        assert set(verdicts) <= {"ht", "eliminated", "dtrs", "feasible"}


class TestBfsEquivalence:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_backend_equals_reference(self, backend_name, seed):
        instance = random_instance(seed, history=3)
        assert outcomes_of(bfs_select, instance) == outcomes_of(
            bfs_select_reference, instance
        ), f"backend {backend_name} diverged from the seed on seed {seed}"

    @pytest.mark.parametrize("seed", range(6))
    def test_sequential_chain_identical_across_backends(self, seed):
        # Fig-4-style chains: each accepted ring joins the next
        # instance's history, compounding any verdict bug.  The batch
        # kernel and the seed's per-candidate checks must produce
        # identical chains.
        def run_chain(solver):
            rng = random.Random(2000 + seed)
            universe = TokenUniverse(
                {f"t{i:02d}": f"h{rng.randrange(5)}" for i in range(12)}
            )
            rings, out, consumed = [], [], set()
            for index in range(3):
                free = sorted(universe.tokens - consumed)
                target = free[rng.randrange(len(free))]
                instance = DamsInstance(universe, list(rings), target, c=2.0, ell=3)
                outcome = outcomes_of(solver, instance)
                out.append(outcome)
                if outcome[0] != "ok":
                    break
                tokens = outcome[1][0]
                rings.append(
                    Ring(rid=f"g{index}", tokens=tokens, c=2.0, ell=3, seq=index)
                )
                consumed.add(target)
            return out

        assert run_chain(bfs_select) == run_chain(bfs_select_reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_events_identical_across_backends(self, seed):
        # The replay emits one CandidateScanned per candidate naming its
        # gate, so the bfs.* counters must equal the seed gates of the
        # candidates the seed enumerates up to its winner.
        instance = random_instance(90 + seed, history=3)
        with metrics.recording() as rec:
            outcomes_of(bfs_select, instance)
        observed = {
            name: value
            for name, value in rec.counters.items()
            if name.startswith("bfs.")
        }
        expected = reference_bfs_counters(instance)
        assert expected.get("bfs.candidates")
        assert observed == expected


class TestDeadlines:
    def blowup_instance(self):
        # 11 rings over 12 fully-shared tokens: the first candidate's
        # closure world enumeration is astronomically large.
        tokens = {f"t{i}" for i in range(12)}
        universe = TokenUniverse({t: f"h{t[1:]}" for t in tokens})
        rings = [
            Ring(rid=f"r{i}", tokens=frozenset(tokens), c=1.0, ell=1, seq=i)
            for i in range(11)
        ]
        return DamsInstance(universe, rings, "t0", c=1.0, ell=1)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_prefilter_returns_none_on_expired_deadline(self, backend_name):
        instance = self.blowup_instance()
        cache = SolverCache(instance.universe, instance.rings)
        verdicts = prefilter_chunk(instance, cache, [("t1",)], deadline=0.0)
        assert verdicts is None  # state build aborted; the solver trips

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_budget_trips_inside_candidate(self, backend_name):
        import time as time_module

        instance = self.blowup_instance()
        start = time_module.perf_counter()
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            bfs_select(instance, time_budget=0.3)
        assert time_module.perf_counter() - start < 5.0
        # {t0} alone fails its own HT gate; ("t1",) starts the blowup.
        assert (excinfo.value.size, excinfo.value.scanned_in_size) == (1, 0)
