"""WorldSet (compact bitset worlds + memoized DTRS enumeration) vs seed.

Equivalence targets:

* the world set itself equals ``enumerate_combinations`` (as sets of
  rid -> token dicts),
* the pair masks made during enumeration, and the column, row and dict
  views built from them, equal a one-bit-per-world rescan of the worlds
  in backtracking order,
* a closure's worlds are its base worlds extended by every candidate
  token each leaves free (the factorization the batch kernels use),
* ``dtrss_of`` produces exactly the seed ``get_dtrss_reference`` DTRSs
  (same (pairs, determined HT) sets),
* deadline enforcement raises inside enumeration, not after it.
"""

import random

import pytest

from repro.core.combinations import enumerate_combinations
from repro.core.ring import related_ring_set
from repro.core.dtrs import get_dtrss
from repro.core.perf.reference import get_dtrss_reference
from repro.core.perf.worlds import DeadlineExceeded, WorldSet
from repro.core.ring import Ring, TokenUniverse


def make_ring(rid, tokens, seq=0, c=1.0, ell=1):
    return Ring(rid=rid, tokens=frozenset(tokens), c=c, ell=ell, seq=seq)


def random_system(seed, token_count=8, ring_count=None, max_size=4, ht_count=4):
    rng = random.Random(seed)
    tokens = [f"t{i}" for i in range(token_count)]
    universe = TokenUniverse(
        {token: f"h{rng.randrange(ht_count)}" for token in tokens}
    )
    count = ring_count if ring_count is not None else rng.randint(2, 5)
    rings = [
        make_ring(f"r{i}", rng.sample(tokens, rng.randint(1, max_size)), seq=i)
        for i in range(count)
    ]
    return universe, rings


def world_key(world):
    return frozenset(world.items())


class TestWorldEnumeration:
    @pytest.mark.parametrize("seed", range(15))
    def test_equals_enumerate_combinations(self, seed):
        _, rings = random_system(seed)
        ours = {world_key(w) for w in WorldSet(rings).as_dicts()}
        expected = {world_key(w) for w in enumerate_combinations(rings)}
        assert ours == expected

    def test_duplicate_rids_rejected(self):
        rings = [make_ring("r0", {"a"}), make_ring("r0", {"b"}, seq=1)]
        with pytest.raises(ValueError):
            WorldSet(rings)

    def test_empty_ring_set_has_one_empty_world(self):
        worlds = WorldSet([])
        assert worlds.as_dicts() == [{}]


def reference_rows(rings):
    """The worlds as rows of token indices (sorted-name interning), in
    the backtracking order ``WorldSet`` numbers them: most-constrained
    ring first, each ring's tokens ascending, one world per leaf."""
    names = sorted({token for ring in rings for token in ring.tokens})
    index = {name: i for i, name in enumerate(names)}
    candidates = [sorted(index[token] for token in ring.tokens) for ring in rings]
    order = sorted(range(len(rings)), key=lambda i: len(candidates[i]))
    assignment = [0] * len(rings)
    rows = []

    def backtrack(depth, used):
        if depth == len(rings):
            rows.append(tuple(assignment))
            return
        position = order[depth]
        for token in candidates[position]:
            if token not in used:
                assignment[position] = token
                backtrack(depth + 1, used | {token})

    backtrack(0, frozenset())
    return names, rows


def rescanned_masks(rows):
    """Pair masks from rows, one bit per world per ring."""
    masks = {}
    for world, row in enumerate(rows):
        for position, token in enumerate(row):
            masks[(position, token)] = masks.get((position, token), 0) | (1 << world)
    return masks


def mask_view_cases():
    """Ring sets of 0-4 rings over 2-9 tokens: random ones, ones with
    more rings than tokens (no SDR, so no world), and the empty set."""
    cases = [[]]
    for seed in range(60):
        rng = random.Random(1500 + seed)
        tokens = [f"t{i}" for i in range(rng.randint(2, 9))]
        cases.append(
            [
                make_ring(f"r{i}", rng.sample(tokens, rng.randint(1, min(4, len(tokens)))), seq=i)
                for i in range(rng.randint(0, 4))
            ]
        )
    cases.append([make_ring(f"r{i}", {"a", "b"}, seq=i) for i in range(3)])
    cases.append([make_ring("r0", {"a"}), make_ring("r1", {"a"}, seq=1)])
    cases.append(
        [make_ring("r0", {"a", "b"}), make_ring("r1", {"a"}, seq=1),
         make_ring("r2", {"b"}, seq=2), make_ring("r3", {"c", "d"}, seq=3)]
    )
    return cases


class TestMaskViews:
    def test_masks_and_views_equal_a_rescan_of_the_rows(self):
        sizes, empty = set(), 0
        for rings in mask_view_cases():
            names, rows = reference_rows(rings)
            worlds = WorldSet(rings)
            masks = rescanned_masks(rows)
            assert worlds.pair_masks() == masks, [sorted(r.tokens) for r in rings]
            by_position = [
                sorted(token for position, token in masks if position == p)
                for p in range(len(rings))
            ]
            assert worlds.tokens_by_position() == by_position
            if rings:
                assert len(worlds) == len(rows)
                assert worlds.worlds == rows
                assert [list(column) for column in worlds.columns] == [
                    [row[p] for row in rows] for p in range(len(rings))
                ]
            else:
                assert len(worlds) == 1 and worlds.worlds == [()]
                assert worlds.columns == ()
            assert worlds.full_mask == (1 << len(worlds)) - 1
            assert worlds.as_dicts() == [
                {ring.rid: names[token] for ring, token in zip(rings, row)}
                for row in worlds.worlds
            ]
            sizes.add(len(rings))
            empty += rings != [] and not rows
        assert sizes == {0, 1, 2, 3, 4}
        assert empty >= 3, "cases must include ring sets with no SDR"


class TestExtend:
    """A closure's worlds are its base worlds extended by the candidate
    row: one world per base world and candidate token it leaves free.
    The batch kernels answer from exactly this factorization."""

    @staticmethod
    def extended(base_rings, candidate):
        worlds = set()
        for world in WorldSet(base_rings).as_dicts():
            taken = set(world.values())
            for token in candidate.tokens - taken:
                worlds.add(world_key({**world, candidate.rid: token}))
        return worlds

    @pytest.mark.parametrize("seed", range(15))
    def test_extend_equals_rebuild(self, seed):
        _, rings = random_system(600 + seed, token_count=9)
        candidate = make_ring("r_tau", {"t0", "t4", "t7"}, seq=len(rings))
        rebuilt = {
            world_key(w) for w in WorldSet(rings + [candidate]).as_dicts()
        }
        assert self.extended(rings, candidate) == rebuilt

    def test_extend_empty_base(self):
        candidate = make_ring("r_tau", {"a", "b"})
        assert self.extended([], candidate) == {
            world_key(w) for w in WorldSet([candidate]).as_dicts()
        } == {
            frozenset({("r_tau", "a")}),
            frozenset({("r_tau", "b")}),
        }


def dtrs_keys(dtrss):
    return {(dtrs.pairs, dtrs.determined_ht) for dtrs in dtrss}


class TestDtrsEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_dtrss_of_matches_reference(self, seed):
        universe, rings = random_system(700 + seed)
        worlds = WorldSet(rings)
        for target in rings:
            assert dtrs_keys(
                worlds.dtrss_of(target.rid, universe)
            ) == dtrs_keys(get_dtrss_reference(target, rings, universe)), (
                f"DTRS disagreement for {target.rid} (seed {seed})"
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_public_get_dtrss_matches_reference(self, seed):
        universe, rings = random_system(800 + seed)
        for target in rings:
            assert dtrs_keys(get_dtrss(target, rings, universe)) == dtrs_keys(
                get_dtrss_reference(target, rings, universe)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_max_size_cap_matches_reference(self, seed):
        universe, rings = random_system(900 + seed, ring_count=4)
        target = rings[0]
        for cap in (0, 1, 2):
            assert dtrs_keys(
                WorldSet(rings).dtrss_of(target.rid, universe, max_size=cap)
            ) == dtrs_keys(
                get_dtrss_reference(target, rings, universe, max_size=cap)
            )

    @staticmethod
    def determining_case(seed):
        """Closures over two or three HTs, with a candidate ring added:
        few HTs make many pair sets determine, so the enumeration meets
        determining prefixes (and cuts them) at every size."""
        rng = random.Random(seed)
        tokens = [f"t{i}" for i in range(rng.randint(5, 9))]
        universe = TokenUniverse(
            {token: f"h{rng.randrange(rng.choice([2, 3]))}" for token in tokens}
        )
        rings = [
            make_ring(f"r{i}", rng.sample(tokens, rng.randint(2, 4)), seq=i)
            for i in range(rng.randint(2, 5))
        ]
        candidate = make_ring("r_tau", rng.sample(tokens, 3), seq=len(rings))
        return universe, related_ring_set(candidate, rings) + [candidate]

    @pytest.mark.parametrize("max_size", [None, 1, 2])
    def test_many_determining_sets_match_reference(self, max_size):
        deep = 0
        for seed in range(40):
            universe, rings = self.determining_case(3000 + seed)
            worlds = WorldSet(rings)
            for target in rings:
                ours = worlds.dtrss_of(target.rid, universe, max_size=max_size)
                assert dtrs_keys(ours) == dtrs_keys(
                    get_dtrss_reference(target, rings, universe, max_size=max_size)
                ), f"seed {seed}, target {target.rid}, max_size {max_size}"
                deep += sum(len(dtrs) >= 2 for dtrs in ours)
        if max_size != 1:
            assert deep > 20, "the cases must reach determining sets of size 2+"

    def test_memoized_repeat_query_hits_cache(self):
        universe, rings = random_system(1)
        worlds = WorldSet(rings)
        first = worlds.dtrss_of(rings[0].rid, universe)
        second = worlds.dtrss_of(rings[0].rid, universe)
        # The list is a defensive copy but its entries come straight
        # from the cache — same Dtrs objects, no re-enumeration.
        assert second == first
        assert all(a is b for a, b in zip(first, second))


class TestDeadline:
    def test_deadline_trips_inside_enumeration(self):
        # 10 rings over 11 tokens, all full: ~10^7-world blow-up.  A
        # deadline in the past must abort the backtracking immediately
        # instead of enumerating to completion first.
        tokens = {f"t{i}" for i in range(11)}
        rings = [make_ring(f"r{i}", tokens, seq=i) for i in range(10)]
        with pytest.raises(DeadlineExceeded):
            WorldSet(rings, deadline=0.0)
