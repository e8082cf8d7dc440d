"""Cross-backend equivalence of the columnar batch kernels.

The kernel contract: verdicts are exact, per-candidate, and backend-
independent — pure-python big-int masks, numpy boolean columns, and
batching turned off entirely must all leave ``bfs_select`` (and the
per-candidate event stream it emits) byte-identical to the frozen seed
reference.  These tests pin that contract, the factorized
``extend_batch`` against the materializing ``WorldSet.extend``, the
verdict semantics against the seed feasibility check, backend
selection/override, and the deadline-abort path.
"""

import random

import pytest

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.perf import kernels
from repro.core.perf.cache import SolverCache
from repro.core.perf.kernels import (
    KERNEL_BATCH_SIZE,
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    prefilter_chunk,
    resolve_backend,
    use_backend,
)
from repro.core.perf.reference import (
    _candidate_feasible_reference,
    bfs_select_reference,
)
from repro.core.perf.worlds import WorldSet
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.obs import events, metrics

HAVE_NUMPY = "numpy" in kernels.available_backends()
BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


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
    try:
        result = solver(instance, **kwargs)
    except InfeasibleError:
        return ("infeasible", None)
    return (
        "ok",
        (result.ring.tokens, result.mixins, result.candidates_checked),
    )


class TestBackendSelection:
    def test_resolve_names(self):
        assert resolve_backend("python") is PYTHON_BACKEND
        assert resolve_backend("off") is None
        assert resolve_backend("OFF") is None

    def test_auto_picks_python(self):
        # auto is the measured-fastest backend at realistic world
        # counts, numpy-installed or not; numpy is explicit opt-in.
        assert resolve_backend("auto") is PYTHON_BACKEND
        if HAVE_NUMPY:
            assert resolve_backend("numpy") is NUMPY_BACKEND

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_BACKEND, "python")
        assert resolve_backend() is PYTHON_BACKEND
        monkeypatch.setenv(kernels.ENV_BACKEND, "off")
        assert resolve_backend() is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_numpy_requested_but_missing(self, monkeypatch):
        monkeypatch.setattr(kernels, "_import_numpy", lambda: None)
        with pytest.raises(RuntimeError, match="perf"):
            resolve_backend("numpy")
        # auto degrades silently to the pure-python path instead.
        assert resolve_backend("auto") is PYTHON_BACKEND

    def test_use_backend_restores_previous(self):
        before = kernels.active_backend()
        with use_backend("off") as backend:
            assert backend is None
            assert kernels.active_backend() is None
        assert kernels.active_backend() is before

    def test_off_disables_prefiltering(self):
        instance = random_instance(0)
        cache = SolverCache(instance.universe, instance.rings)
        with use_backend("off"):
            assert prefilter_chunk(instance, cache, [("t1",)]) is None


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
        backend = resolve_backend(backend_name)
        state = backend.build_state(worlds, universe)
        candidates = [
            frozenset(rng.sample(tokens, rng.randint(1, 4))) for _ in range(8)
        ]
        extensions = state.extend_batch(candidates)
        for cand_tokens, extension in zip(candidates, extensions):
            candidate = make_ring("r_tau", cand_tokens, seq=99)
            assert extension.count == len(worlds.extend(candidate)), (
                f"extension count diverged for {sorted(cand_tokens)}"
            )

    @needs_numpy
    @pytest.mark.parametrize("seed", range(6))
    def test_numpy_masks_equal_python_masks(self, seed):
        rng = random.Random(300 + seed)
        tokens = [f"t{i}" for i in range(8)]
        universe = TokenUniverse({t: f"h{i % 3}" for i, t in enumerate(tokens)})
        rings = [
            make_ring(f"r{i}", rng.sample(tokens, rng.randint(2, 4)), seq=i)
            for i in range(rng.randint(1, 3))
        ]
        worlds = WorldSet(rings)
        py = PYTHON_BACKEND.build_state(worlds, universe)
        np_state = NUMPY_BACKEND.build_state(worlds, universe)

        def int_bits(mask):
            return {w for w in range(len(worlds)) if mask >> w & 1}

        def arr_bits(mask):
            return {int(w) for w in mask.nonzero()[0]}

        assert len(py.rows) == len(np_state.rows)
        for py_row, np_row in zip(py.rows, np_state.rows):
            assert py_row.token_masks.keys() == np_row.token_masks.keys()
            for name in py_row.token_masks:
                assert int_bits(py_row.token_masks[name]) == arr_bits(
                    np_row.token_masks[name]
                )
            assert py_row.ht_masks.keys() == np_row.ht_masks.keys()
            for ht in py_row.ht_masks:
                assert int_bits(py_row.ht_masks[ht]) == arr_bits(
                    np_row.ht_masks[ht]
                )
        assert py.presence.keys() == np_state.presence.keys()
        for name in py.presence:
            assert int_bits(py.presence[name]) == arr_bits(
                np_state.presence[name]
            )


class TestVerdictSemantics:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_resolved_verdicts_match_seed_feasibility(self, backend_name, seed):
        # Large histories force closures of 4+ rings: the sweep has no
        # size bound, so every verdict must be exact even there.
        instance = random_instance(1000 + seed, token_count=9, history=4)
        cache = SolverCache(instance.universe, instance.rings)
        backend = resolve_backend(backend_name)
        sigma = sorted(instance.candidate_mixins())
        from itertools import combinations

        chunk = [combo for combo in combinations(sigma, 2)][:KERNEL_BATCH_SIZE]
        # Verdicts stop at the first feasible candidate, so walk the
        # chunk: each call resolves a prefix of what is left, and only
        # its last verdict may be feasible.
        verdicts = []
        while len(verdicts) < len(chunk):
            part = prefilter_chunk(
                instance, cache, chunk[len(verdicts):], backend=backend
            )
            assert part, "every call resolves at least one candidate"
            assert "feasible" not in part[:-1]
            verdicts.extend(part)
        assert len(verdicts) == len(chunk)
        for mixin_tuple, verdict in zip(chunk, verdicts):
            candidate = instance.make_ring(mixin_tuple)
            truth = _candidate_feasible_reference(instance, candidate)
            if verdict == "feasible":
                assert truth, f"kernel feasible but seed rejects {mixin_tuple}"
            else:
                assert verdict in ("ht", "eliminated", "dtrs")
                assert not truth, (
                    f"kernel filtered at {verdict} but seed accepts {mixin_tuple}"
                )

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
        # The sweep is complete at any closure size — no candidate is
        # ever deferred to the per-candidate tail.
        instance = random_instance(7, history=2)
        cache = SolverCache(instance.universe, instance.rings)
        backend = resolve_backend(backend_name)
        sigma = sorted(instance.candidate_mixins())
        from itertools import combinations

        chunk = list(combinations(sigma, 2))[:KERNEL_BATCH_SIZE]
        verdicts = prefilter_chunk(instance, cache, chunk, backend=backend)
        assert verdicts is not None
        assert set(verdicts) <= {"ht", "eliminated", "dtrs", "feasible"}


class TestBfsEquivalence:
    @pytest.mark.parametrize("backend_name", BACKENDS + ["off"])
    @pytest.mark.parametrize("seed", range(8))
    def test_backend_equals_reference(self, backend_name, seed):
        instance = random_instance(seed, history=3)
        with use_backend(backend_name):
            ours = outcomes_of(bfs_select, instance)
        assert ours == outcomes_of(bfs_select_reference, instance), (
            f"backend {backend_name} diverged on seed {seed}"
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_equals_serial_per_backend(self, backend_name, seed):
        instance = random_instance(40 + seed, history=3)
        with use_backend(backend_name):
            serial = outcomes_of(bfs_select, instance)
            parallel = outcomes_of(bfs_select, instance, workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(6))
    def test_sequential_chain_identical_across_backends(self, seed):
        # Fig-4-style chains: each accepted ring joins the next
        # instance's history, compounding any verdict bug.  All
        # backends (and batching off) must produce identical chains.
        def run_chain(backend_name):
            rng = random.Random(2000 + seed)
            universe = TokenUniverse(
                {f"t{i:02d}": f"h{rng.randrange(5)}" for i in range(12)}
            )
            rings, out, consumed = [], [], set()
            with use_backend(backend_name):
                for index in range(3):
                    free = sorted(universe.tokens - consumed)
                    target = free[rng.randrange(len(free))]
                    instance = DamsInstance(
                        universe, list(rings), target, c=2.0, ell=3
                    )
                    outcome = outcomes_of(bfs_select, instance)
                    out.append(outcome)
                    if outcome[0] != "ok":
                        break
                    tokens = outcome[1][0]
                    rings.append(
                        Ring(
                            rid=f"g{index}", tokens=tokens, c=2.0, ell=3,
                            seq=index,
                        )
                    )
                    consumed.add(target)
            return out

        chains = {name: run_chain(name) for name in BACKENDS + ["off"]}
        baseline = chains["off"]
        for name, chain in chains.items():
            assert chain == baseline, f"backend {name} chain diverged"

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_events_identical_across_backends(self, seed):
        # The replay emits CandidateScanned with the same gate the
        # per-candidate path reports, so the bfs.* counters — part of
        # the deterministic view — must match with batching on or off.
        instance = random_instance(90 + seed, history=3)

        def bfs_counters(backend_name):
            with use_backend(backend_name):
                with metrics.recording() as rec:
                    outcomes_of(bfs_select, instance)
            return {
                name: value
                for name, value in events.deterministic_view(
                    rec.counters
                ).items()
                if name.startswith("bfs.")
            }

        baseline = bfs_counters("off")
        assert baseline.get("bfs.candidates")
        for name in BACKENDS:
            assert bfs_counters(name) == baseline, (
                f"backend {name} event stream diverged"
            )


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
        backend = resolve_backend(backend_name)
        verdicts = prefilter_chunk(
            instance, cache, [("t1",)], deadline=0.0, backend=backend
        )
        assert verdicts is None  # state build aborted, caller falls back

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_budget_trips_inside_candidate(self, backend_name):
        import time as time_module

        instance = self.blowup_instance()
        start = time_module.perf_counter()
        with use_backend(backend_name):
            with pytest.raises(SearchBudgetExceeded):
                bfs_select(instance, time_budget=0.3)
        assert time_module.perf_counter() - start < 5.0
