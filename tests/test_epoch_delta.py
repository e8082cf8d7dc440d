"""Epoch advance: warm across commits, byte-identical answers.

Three layers of pinning, mirroring the implementation layers:

* the incremental core structures equal their from-scratch rebuilds on
  randomized histories — :meth:`ModuleUniverse.extended` (Thm 6.1's
  superset-or-disjoint locality; ``None``, i.e. rebuild on first use,
  for configuration-1 violations) and :meth:`SolverCache.advance`
  (component-wise invalidation: entries keyed off components the new
  ring does not reach survive, object-identical);
* :meth:`ChainSnapshot.advance` carries warm state and drops exactly
  what a commit can affect (the memo always; untouched batch
  sub-snapshots never), leaving the old snapshot untouched for
  in-flight batches;
* a live :class:`SelectionService` answers every select of a
  randomized commit/request interleaving byte-identically (modulo
  execution coordinates) to a cold :class:`SelectionService` built
  from scratch at the same chain — the sequential oracle — both
  unpartitioned and partitioned, while surfacing ``delta.*`` retention
  counters through ``stats``/``metrics``.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.modules import ModuleUniverse, is_superset_or_disjoint
from repro.core.perf.cache import SolverCache
from repro.core.ring import Ring, TokenUniverse
from repro.service import (
    ChainSnapshot,
    EpochDelta,
    SelectionService,
    SelectRequest,
    ServiceConfig,
    ServiceState,
    TokenPartition,
)

C, ELL = 2.0, 2


def make_universe(tokens: int = 16, hts: int = 5, seed: int = 7) -> TokenUniverse:
    rng = random.Random(seed)
    return TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(hts)}" for i in range(tokens)}
    )


def random_history(
    rng: random.Random, tokens: list[str], count: int, config1_bias: float = 0.8
) -> list[Ring]:
    """A ring history, biased toward (but not limited to) configuration 1."""
    rings: list[Ring] = []
    for seq in range(count):
        members = _random_ring_tokens(rng, tokens, rings, config1_bias)
        rings.append(Ring(f"r{seq}", members, c=C, ell=ELL, seq=seq))
    return rings


def _random_ring_tokens(
    rng: random.Random,
    tokens: list[str],
    rings: list[Ring],
    config1_bias: float,
) -> frozenset[str]:
    if rings and rng.random() >= config1_bias:
        # Free-form: frequently overlaps-without-containing some ring.
        return frozenset(rng.sample(tokens, rng.randint(2, 5)))
    covered = set().union(*(r.tokens for r in rings)) if rings else set()
    fresh = [t for t in tokens if t not in covered]
    if rings and rng.random() < 0.5:
        # Superset of an existing ring plus some fresh tokens.
        base = set(rng.choice(rings).tokens)
        base.update(rng.sample(fresh, min(len(fresh), rng.randint(0, 2))))
        return frozenset(base)
    if len(fresh) >= 2:
        return frozenset(rng.sample(fresh, rng.randint(2, min(4, len(fresh)))))
    return frozenset(rng.sample(tokens, rng.randint(2, 4)))


# -- ModuleUniverse.extended ------------------------------------------------


def universe_fingerprint(modules: ModuleUniverse) -> dict:
    return {
        "super_rings": [r.rid for r in modules.super_rings],
        "fresh_tokens": list(modules.fresh_tokens),
        "modules": [m.mid for m in modules.modules],
        "module_of": {
            token: modules.module_of(token).mid for token in modules.universe.tokens
        },
        "subset_counts": {
            r.rid: modules.subset_count_of(r.rid) for r in modules.rings
        },
    }


def test_extended_matches_rebuild_randomized():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    incremental_seen = dropped_seen = 0
    for trial in range(120):
        rng = random.Random(1000 + trial)
        rings = random_history(rng, tokens, rng.randint(0, 6))
        base = ModuleUniverse(universe, rings)
        ring = Ring(
            "new",
            _random_ring_tokens(rng, tokens, rings, config1_bias=0.7),
            c=C,
            ell=ELL,
            seq=len(rings),
        )
        extended = base.extended(ring)
        # The ring is the newest and its rid is fresh, so only a
        # configuration-1 violation may refuse the local path.
        assert (extended is None) == (
            not is_superset_or_disjoint(ring.tokens, rings)
        ), f"trial {trial}"
        if extended is None:
            dropped_seen += 1
            continue
        incremental_seen += 1
        rebuilt = ModuleUniverse(universe, rings + [ring])
        assert universe_fingerprint(extended) == universe_fingerprint(rebuilt), (
            f"trial {trial}: extended decomposition diverged"
        )
    # The bias must actually exercise both paths.
    assert incremental_seen > 20 and dropped_seen > 10


def test_extended_falls_back_on_stale_seq():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [Ring("r0", frozenset(tokens[0:3]), c=C, ell=ELL, seq=5)]
    base = ModuleUniverse(universe, rings)
    # Disjoint (config 1 holds) but not newer than the history: the
    # Def 7 locality argument needs the ring to be later than everything.
    stale = Ring("new", frozenset(tokens[4:7]), c=C, ell=ELL, seq=5)
    assert base.extended(stale) is None


def test_extended_falls_back_on_duplicate_rid():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [
        Ring("r0", frozenset(tokens[0:2]), c=C, ell=ELL, seq=0),
        Ring("r1", frozenset(tokens[4:6]), c=C, ell=ELL, seq=1),
    ]
    base = ModuleUniverse(universe, rings)
    # Newer and disjoint (config 1 holds) but reusing a surviving super
    # RS's rid: the incremental path keys super-RS modules by "s:<rid>",
    # so taking it would alias r1's module slot to the new ring's tokens.
    dup = Ring("r1", frozenset(tokens[8:10]), c=C, ell=ELL, seq=2)
    assert base.extended(dup) is None
    # A snapshot advanced past it drops the decomposition; the rebuild
    # on first use keeps the surviving super ring on its own tokens.
    snap = ChainSnapshot(epoch=0, universe=universe, rings=tuple(rings))
    snap._modules = base
    delta = EpochDelta(ring=dup)
    modules = snap.advance(delta).module_universe()
    assert delta.modules_rebuilt == 1 and delta.modules_extended == 0
    assert modules.module_of(tokens[4]).tokens == frozenset(tokens[4:6])
    assert modules.module_of(tokens[8]).tokens == frozenset(tokens[8:10])


def test_extended_shares_surviving_modules():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [
        Ring("r0", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),
        Ring("r1", frozenset(tokens[4:7]), c=C, ell=ELL, seq=1),
    ]
    base = ModuleUniverse(universe, rings)
    ring = Ring("new", frozenset(tokens[0:4]), c=C, ell=ELL, seq=2)
    extended = base.extended(ring)
    assert extended is not None
    # r1 is untouched: its Module object (not just its content) survives.
    assert extended.module_of(tokens[4]) is base.module_of(tokens[4])
    # r0 was swallowed by the superset: its tokens move to the new super.
    assert extended.module_of(tokens[0]).mid == "s:new"
    assert base.module_of(tokens[0]).mid == "s:r0"  # base untouched


# -- SolverCache.advance ----------------------------------------------------


def component_partition(cache: SolverCache) -> set[frozenset[int]]:
    return {
        frozenset(component.ring_indices)
        for component in cache._components
        if component.ring_indices
    }


def test_cache_advance_matches_fresh_build_randomized():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    for trial in range(60):
        rng = random.Random(2000 + trial)
        rings = random_history(rng, tokens, rng.randint(1, 6), config1_bias=0.5)
        cache = SolverCache(universe, rings)
        # Warm a few worlds entries through the public path.
        for _ in range(3):
            probe = rng.sample(tokens, 2)
            cache.base_worlds(cache.related_key(probe))
        ring = Ring(
            "new",
            frozenset(rng.sample(tokens, rng.randint(2, 4))),
            c=C,
            ell=ELL,
            seq=len(rings),
        )
        advanced, report = cache.advance(ring)
        fresh = SolverCache(universe, rings + [ring])
        assert component_partition(advanced) == component_partition(fresh), (
            f"trial {trial}: advanced component partition diverged"
        )
        for probe in (rng.sample(tokens, 3) for _ in range(4)):
            key_a = advanced.related_key(probe)
            key_f = fresh.related_key(probe)
            assert [r.rid for r in advanced.related_rings(key_a)] == [
                r.rid for r in fresh.related_rings(key_f)
            ], f"trial {trial}: related closure diverged for {probe}"
        # Every retained entry is object-shared with the old cache and
        # still describes exactly its key's current closure.
        assert report.worlds_retained == len(advanced._worlds)
        for key, worlds in advanced._worlds.items():
            assert key.isdisjoint(report.touched_components)
            assert cache._worlds[key] is worlds
            assert [r.rid for r in advanced.related_rings(key)] == [
                r.rid for r in worlds.rings
            ]


def test_cache_advance_invalidates_touched_retains_disjoint():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [
        Ring("a", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),
        Ring("b", frozenset(tokens[4:7]), c=C, ell=ELL, seq=1),
    ]
    cache = SolverCache(universe, rings)
    key_a = cache.related_key([tokens[0]])
    key_b = cache.related_key([tokens[4]])
    cache.base_worlds(key_a)
    kept = cache.base_worlds(key_b)

    touching = Ring("t", frozenset(tokens[2:5]), c=C, ell=ELL, seq=2)
    advanced, report = cache.advance(touching)
    assert report.touched_components == key_a | key_b == frozenset({0, 1})
    assert report.worlds_retained == 0 and report.worlds_invalidated == 2
    assert advanced._worlds == {}
    # Old cache untouched: in-flight requests keep their warm entries.
    assert cache.base_worlds(key_b) is kept
    assert cache.stats.worlds_hits == 1

    disjoint = Ring("d", frozenset(tokens[8:11]), c=C, ell=ELL, seq=2)
    advanced, report = cache.advance(disjoint)
    assert report.touched_components == frozenset()
    assert report.worlds_retained == 2 and report.worlds_invalidated == 0
    assert advanced.base_worlds(advanced.related_key([tokens[4]])) is kept
    assert advanced.stats.worlds_hits == 1  # fresh stats, warm entry


def test_cache_advance_kernel_states_follow_components():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [
        Ring("a", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),
        Ring("b", frozenset(tokens[4:7]), c=C, ell=ELL, seq=1),
    ]
    cache = SolverCache(universe, rings)
    key_a = cache.related_key([tokens[0]])
    key_b = cache.related_key([tokens[4]])
    state_a = cache.kernel_state(key_a)
    state_b = cache.kernel_state(key_b)

    touching_a = Ring("t", frozenset(tokens[0:2]), c=C, ell=ELL, seq=2)
    advanced, report = cache.advance(touching_a)
    assert report.kernel_retained == 1 and report.kernel_invalidated == 1
    assert advanced.kernel_state(key_b) is state_b
    assert advanced.stats.kernel_builds == 0
    rebuilt_a = advanced.kernel_state(advanced.related_key([tokens[0]]))
    assert rebuilt_a is not state_a
    assert advanced.stats.kernel_builds == 1


def test_cache_advance_is_atomic_under_concurrent_fills():
    """advance() must filter atomic snapshots of the warm dicts.

    Solver threads keep inserting worlds/kernel entries into the *old*
    cache while a delta commit advances it on a connection thread.
    Iterating the live dicts raced those inserts and raised
    "dictionary changed size during iteration", failing a commit the
    journal had already recorded.
    """
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = [
        Ring("a", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),
        Ring("b", frozenset(tokens[4:7]), c=C, ell=ELL, seq=1),
    ]
    cache = SolverCache(universe, rings)
    # Seed enough entries that the filtering pass spans many thread
    # switches.  Synthetic component ids are fine: advance only looks
    # at the keys.
    for i in range(4000):
        cache._worlds[frozenset({100 + i})] = None
        cache._kernel_states[frozenset({100 + i})] = (None, None)
    ring = Ring("t", frozenset(tokens[0:2]), c=C, ell=ELL, seq=2)
    stop = threading.Event()

    def filler() -> None:
        i = 10**6
        while not stop.is_set():
            cache._worlds[frozenset({i})] = None
            cache._kernel_states[frozenset({i})] = (None, None)
            i += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=filler, daemon=True)
    thread.start()
    try:
        for _ in range(30):
            advanced, report = cache.advance(ring)
            # The report describes exactly the snapshot that was filtered.
            assert report.worlds_retained == len(advanced._worlds)
            assert report.kernel_retained == len(advanced._kernel_states)
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(old_interval)


# -- ChainSnapshot.advance / ServiceState -----------------------------------


def test_snapshot_advance_unpartitioned():
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = (
        Ring("a", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),
        Ring("b", frozenset(tokens[4:7]), c=C, ell=ELL, seq=1),
    )
    state = ServiceState(universe, rings)
    snap = state.current()
    cache = snap.solver_cache()
    cache.base_worlds(cache.related_key([tokens[0]]))
    kept = cache.base_worlds(cache.related_key([tokens[4]]))
    snap.module_universe()
    snap.result_memo()["memo-key"] = "memo-value"

    ring = Ring("new", frozenset(tokens[0:2]), c=C, ell=ELL, seq=2)
    head = state.commit(ring)

    assert head.epoch == snap.epoch + 1
    assert head.rings == rings + (ring,)
    # The warm entry of the untouched component survived, the memo died.
    new_cache = head.solver_cache()
    assert new_cache.base_worlds(new_cache.related_key([tokens[4]])) is kept
    assert head.result_memo() == {}
    # The old snapshot still serves in-flight batches unchanged.
    assert snap.result_memo() == {"memo-key": "memo-value"}
    assert snap.solver_cache() is cache
    counters = state.delta_counters
    assert state.epochs_advanced == 1
    assert counters["worlds_retained"] == 1
    assert counters["worlds_invalidated"] == 1
    assert counters["modules_extended"] + counters["modules_rebuilt"] == 1
    assert counters["memo_dropped"] == 1
    assert state.caches_invalidated == 1


def test_delta_memo_only_commit_is_not_a_cache_invalidation():
    """caches_invalidated counts commits that dropped warm solver state.

    The request memo dies on *every* commit (a selection is a function
    of the whole history), so counting memo drops would turn the
    counter into a commit counter.  Only dropped warm solver state —
    worlds, kernel states, a dropped module decomposition — counts.
    """
    universe = make_universe()
    tokens = sorted(universe.tokens)
    rings = (Ring("a", frozenset(tokens[0:3]), c=C, ell=ELL, seq=0),)
    state = ServiceState(universe, rings)
    snap = state.current()
    cache = snap.solver_cache()
    cache.base_worlds(cache.related_key([tokens[0]]))
    snap.module_universe()
    snap.result_memo()["memo-key"] = "memo-value"

    # Disjoint from every warm component, config-1 clean: only the memo
    # is dropped.
    state.commit(Ring("d", frozenset(tokens[8:11]), c=C, ell=ELL, seq=1))
    counters = state.delta_counters
    assert counters["memo_dropped"] == 1
    assert counters["worlds_invalidated"] == 0
    assert counters["kernel_invalidated"] == 0
    assert counters["modules_rebuilt"] == 0
    assert state.caches_invalidated == 0

    # A ring that reaches warm state still counts.
    state.commit(Ring("t", frozenset(tokens[0:2]), c=C, ell=ELL, seq=2))
    assert state.delta_counters["worlds_invalidated"] == 1
    assert state.caches_invalidated == 1


def test_snapshot_advance_partitioned_carries_untouched_batches():
    universe = make_universe(tokens=24, hts=6, seed=3)
    part = TokenPartition(universe, batches=4)
    state = ServiceState(universe, (), partition=part)
    snap = state.current()
    touched_token = part.tokens_of(0)[0]
    kept_token = part.tokens_of(2)[0]
    touched_view = snap.solve_view(touched_token)
    touched_view.solver_cache()
    touched_view.result_memo()["k"] = "v"
    kept_view = snap.solve_view(kept_token)
    kept_view.solver_cache()
    kept_view.result_memo()["k"] = "v"

    ring = Ring("c0", frozenset(part.tokens_of(0)[0:3]), c=C, ell=ELL, seq=0)
    head = state.commit(ring)

    # Untouched batch: the whole sub-snapshot (memo included) is carried
    # by identity — its (universe, rings) pair did not move.
    assert head.solve_view(kept_token) is kept_view
    assert head.solve_view(kept_token).result_memo() == {"k": "v"}
    # Touched batch: advanced (new sub-snapshot, ring appended, memo gone).
    new_touched = head.solve_view(touched_token)
    assert new_touched is not touched_view
    assert [r.rid for r in new_touched.rings] == ["c0"]
    assert new_touched.epoch == touched_view.epoch + 1
    assert new_touched.result_memo() == {}
    assert state.delta_counters["parts_retained"] == 1
    assert state.delta_counters["memo_dropped"] == 1


def test_epoch_delta_counter_names_match_state():
    universe = make_universe()
    state = ServiceState(universe)
    reported = set(EpochDelta(ring=None).as_counters())
    assert reported == set(state.delta_counters)


# -- live service vs the cold-rebuild oracle ---------------------------------


def interleaving_script(
    rng: random.Random,
    universe: TokenUniverse,
    steps: int,
    partition: TokenPartition | None = None,
):
    """A randomized commit/request interleaving (commit ~1 in 4 steps).

    Partitioned, commit members are drawn from a single batch slice —
    the batch-locality the partition contract enforces.  Selects
    alternate at random between the exact rung and the ladder, whose
    degraded rungs read the module decomposition.
    """
    tokens = sorted(universe.tokens)
    script, committed = [], 0
    for step in range(steps):
        if rng.random() < 0.25:
            pool = tokens
            if partition is not None:
                pool = sorted(partition.tokens_of(rng.randrange(partition.batches)))
            members = tuple(rng.sample(pool, min(len(pool), rng.randint(2, 4))))
            script.append(("commit", f"c{committed}", members))
            committed += 1
        else:
            mode = rng.choice(("exact", "ladder"))
            script.append(("select", f"q{step}", rng.choice(tokens), mode))
    return script


def canon(response) -> dict:
    payload = response.to_dict()
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    attrs = payload.get("attrs")
    if attrs is not None:
        attrs.pop("memo", None)
        if not attrs:
            payload.pop("attrs")
    return payload


@pytest.mark.parametrize("batches", [None, 3])
def test_live_service_matches_cold_rebuild_oracle(batches):
    """Every live answer equals a from-scratch service's at the same chain.

    The live service carries warm state (solver cache, module
    decomposition, batch sub-snapshots, memo within an epoch) across
    every commit; the oracle is a fresh ``SelectionService(universe,
    rings_so_far, epoch=k)`` with nothing warm, asked the same request.
    """
    universe = make_universe(tokens=12, hts=4, seed=11)
    part = None if batches is None else TokenPartition(universe, batches=batches)
    script = interleaving_script(random.Random(42), universe, 24, partition=part)
    config = ServiceConfig(telemetry=False, partition=part)
    checked = 0
    with SelectionService(universe, (), config) as live:
        for step in script:
            if step[0] == "commit":
                _, rid, members = step
                live.commit_ring(tokens=members, c=C, ell=ELL, rid=rid)
                continue
            _, request_id, target, mode = step
            request = SelectRequest(
                request_id=request_id, target=target, c=C, ell=ELL, mode=mode
            )
            head = live.state.current()
            answer = live.submit_wait(request, timeout=120.0)
            with SelectionService(
                universe, head.rings, config, epoch=head.epoch
            ) as oracle:
                expected = oracle.submit_wait(request, timeout=120.0)
            assert canon(answer) == canon(expected), f"{request_id} at epoch {head.epoch}"
            checked += 1
        stats = live.stats()
    assert checked > 10 and stats["epochs_advanced"] > 0
    assert stats["delta"]["worlds_retained"] > 0


def test_delta_counters_surface_in_stats_health_metrics():
    universe = make_universe(tokens=12, hts=4, seed=11)
    tokens = sorted(universe.tokens)
    config = ServiceConfig(telemetry=False)
    with SelectionService(universe, (), config) as service:
        service.submit_wait(
            SelectRequest(
                request_id="warm", target=tokens[0], c=C, ell=ELL, mode="exact"
            ),
            timeout=120.0,
        )
        service.commit_ring(tokens=tokens[0:3], c=C, ell=ELL, rid="c0")
        stats = service.stats()
        health = service.health()
        metrics = service.metrics_text()
    assert stats["epochs_advanced"] == 1
    assert stats["delta"]["memo_dropped"] >= 1
    # No commit count that would only repeat epochs_advanced.
    assert "commits" not in stats["delta"] and "delta_commits" not in health
    assert "repro_service_delta_memo_dropped_total" in metrics
    assert "repro_service_delta_worlds_retained_total" in metrics
