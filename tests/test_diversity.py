"""Unit tests for recursive (c, l)-diversity."""

import random
from collections import Counter

import pytest

from repro.core.diversity import (
    diversity_deficit,
    ht_counts_deficit,
    ht_counts_satisfy,
    ht_labels_satisfy,
    most_frequent_count,
    satisfies_recursive_diversity,
    sorted_frequencies,
)
from repro.core.ring import TokenUniverse


class TestSortedFrequencies:
    def test_from_counter(self):
        assert sorted_frequencies(Counter({"a": 3, "b": 1, "c": 2})) == [3, 2, 1]

    def test_from_iterable(self):
        assert sorted_frequencies([1, 5, 2]) == [5, 2, 1]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sorted_frequencies([1, 0])


class TestRecursiveDiversity:
    def test_paper_example_passes_2_1(self):
        # r3's HTs: h1 x2, h2 x1 -> q=[2,1]; (2,1): 2 < 2*(2+1).
        assert satisfies_recursive_diversity([2, 1], c=2, ell=1)

    def test_paper_dtrs_example_passes_2_2(self):
        # DTRS tokens {t1, t3} both from h1... the paper checks 2 < 2*2
        # on the ring's own HTs under (2, 1)... here the (2,2) variant:
        assert satisfies_recursive_diversity([2, 2], c=2, ell=2)

    def test_paper_example_fails_3_2(self):
        # (3,2) on q=[2]: 2 >= 3*0 -> fails (the paper's example).
        assert not satisfies_recursive_diversity([2], c=3, ell=2)

    def test_ell_beyond_theta_fails(self):
        assert not satisfies_recursive_diversity([1, 1], c=10, ell=3)

    def test_ell_one_counts_whole_tail(self):
        # q1 < c * (q1 + ... + q_theta): 3 < 1 * (3+2+1).
        assert satisfies_recursive_diversity([3, 2, 1], c=1, ell=1)

    def test_singleton_fails_1_1(self):
        assert not satisfies_recursive_diversity([1], c=1, ell=1)

    def test_strict_inequality(self):
        # 2 < 1*2 is false: boundary must fail.
        assert not satisfies_recursive_diversity([2, 2], c=1, ell=2)

    def test_fractional_c(self):
        assert satisfies_recursive_diversity([1, 1, 1, 1], c=0.6, ell=2)
        assert not satisfies_recursive_diversity([2, 1, 1], c=0.6, ell=2)

    def test_empty_fails(self):
        assert not satisfies_recursive_diversity([], c=1, ell=1)

    def test_invalid_ell_rejected(self):
        with pytest.raises(ValueError):
            satisfies_recursive_diversity([1], c=1, ell=0)

    def test_monotone_in_c(self):
        freqs = [3, 2, 2, 1]
        satisfied = [satisfies_recursive_diversity(freqs, c, 2) for c in (0.5, 1, 2, 5)]
        # Once satisfied at some c, stays satisfied at larger c.
        assert satisfied == sorted(satisfied)

    def test_antitone_in_ell(self):
        freqs = [2, 2, 2, 2]
        results = [satisfies_recursive_diversity(freqs, 1.5, ell) for ell in (1, 2, 3, 4, 5)]
        # Once violated at some l, stays violated at larger l.
        assert results == sorted(results, reverse=True)


class TestDeficit:
    def test_negative_iff_satisfied(self):
        for freqs in ([2, 1], [3, 3, 1], [1, 1, 1, 1], [5]):
            for c in (0.2, 0.6, 1.0, 2.0):
                for ell in (1, 2, 3):
                    deficit = diversity_deficit(freqs, c, ell)
                    satisfied = satisfies_recursive_diversity(freqs, c, ell)
                    assert (deficit < 0) == satisfied

    def test_exact_value(self):
        # q=[3,2,1], c=1, l=2: 3 - (2+1) = 0.
        assert diversity_deficit([3, 2, 1], c=1, ell=2) == 0

    def test_empty_is_infinite(self):
        assert diversity_deficit([], c=1, ell=1) == float("inf")

    def test_invalid_ell_rejected(self):
        with pytest.raises(ValueError):
            diversity_deficit([1], c=1, ell=0)


class TestCounterHelpers:
    def test_ht_counts_satisfy(self):
        counts = Counter({"h1": 2, "h2": 1, "h3": 1})
        assert ht_counts_satisfy(counts, c=2, ell=2)
        assert not ht_counts_satisfy(counts, c=0.5, ell=3)

    def test_ht_counts_satisfy_empty(self):
        assert not ht_counts_satisfy(Counter(), c=1, ell=1)

    def test_ht_counts_deficit_matches(self):
        counts = Counter({"h1": 3, "h2": 2, "h3": 1})
        assert ht_counts_deficit(counts, c=1, ell=2) == diversity_deficit([3, 2, 1], 1, 2)

    def test_ht_counts_deficit_empty(self):
        assert ht_counts_deficit(Counter(), c=1, ell=1) == float("inf")

    def test_most_frequent_count(self):
        assert most_frequent_count(Counter({"h1": 4, "h2": 2})) == 4
        assert most_frequent_count(Counter()) == 0


class TestLabelPredicate:
    @pytest.mark.parametrize("c", [0.5, 1, 1.5, 2, 5])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_equals_the_counter_check_on_token_multisets(self, c, ell):
        # The kernel's Counter-free predicate must answer exactly what
        # ht_counts_satisfy answers, on random token multisets (tokens
        # may repeat) and on the empty one.
        rng = random.Random(f"{c}:{ell}")
        universe = TokenUniverse({f"t{i}": f"h{i % 6}" for i in range(12)})
        tokens = sorted(universe.tokens)
        multisets = [[]] + [
            rng.choices(tokens, k=rng.randint(1, 9)) for _ in range(200)
        ]
        outcomes = set()
        for multiset in multisets:
            expected = ht_counts_satisfy(universe.ht_counts(multiset), c, ell)
            assert ht_labels_satisfy(map(universe.ht_of, multiset), c, ell) == expected
            outcomes.add(expected)
        if (c, ell) in ((2, 2), (5, 1)):
            assert outcomes == {True, False}
