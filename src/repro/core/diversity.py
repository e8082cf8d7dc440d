"""Recursive (c, l)-diversity over historical-transaction labels.

Section 2.5 of the paper: a multiset of sensitive values with descending
frequencies q_1 >= q_2 >= ... >= q_theta satisfies *recursive
(c, l)-diversity* iff

    q_1 < c * (q_l + q_{l+1} + ... + q_theta).

In the ring-signature setting the sensitive value of a token is the
historical transaction (HT) that output it.  A ring is a *recursive
(c, l)-diversity RS* (Definition 4) when both its own HT multiset and
the HT multiset of each of its DTRSs satisfy the test.

This module implements the test itself plus the derived quantities the
Progressive algorithm uses (the violation "deficit" delta of Algorithm 4).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = [
    "sorted_frequencies",
    "satisfies_recursive_diversity",
    "diversity_deficit",
    "ht_counts_satisfy",
    "ht_labels_satisfy",
    "ht_counts_deficit",
    "most_frequent_count",
]


def sorted_frequencies(counts: Counter[str] | Iterable[int]) -> list[int]:
    """Return the frequency vector q_1 >= q_2 >= ... >= q_theta.

    Accepts either a Counter over labels or an iterable of raw counts.
    """
    if isinstance(counts, Counter):
        values = list(counts.values())
    else:
        values = list(counts)
    if any(value <= 0 for value in values):
        raise ValueError("frequencies must be positive")
    return sorted(values, reverse=True)


def satisfies_recursive_diversity(frequencies: list[int], c: float, ell: int) -> bool:
    """Evaluate q_1 < c * (q_l + ... + q_theta) on a descending vector.

    When l exceeds the number of distinct labels theta, the right-hand
    sum is empty and the test fails (matching the paper's "2 >= 3*0"
    example).  An empty vector trivially fails: a ring always has at
    least one token, so there is nothing to protect.
    """
    if ell < 1:
        raise ValueError("l must be >= 1")
    if not frequencies:
        return False
    tail = sum(frequencies[ell - 1 :])
    return frequencies[0] < c * tail


def diversity_deficit(frequencies: list[int], c: float, ell: int) -> float:
    """The violation measure delta = q_1 - c * (q_l + ... + q_theta).

    Negative values mean the recursive (c, l)-diversity test passes;
    the Progressive algorithm's second phase greedily drives this below
    zero (Algorithm 4, beta scores).
    """
    if ell < 1:
        raise ValueError("l must be >= 1")
    if not frequencies:
        return float("inf")
    tail = sum(frequencies[ell - 1 :])
    return frequencies[0] - c * tail


def ht_counts_satisfy(counts: Counter[str], c: float, ell: int) -> bool:
    """Recursive (c, l)-diversity of an HT multiset given as a Counter."""
    if not counts:
        return False
    return satisfies_recursive_diversity(sorted_frequencies(counts), c, ell)


def ht_labels_satisfy(labels: Iterable[str], c: float, ell: int) -> bool:
    """Recursive (c, l)-diversity of an HT multiset given label by label.

    Equal to ``ht_counts_satisfy(Counter(labels), c, ell)`` without
    building the Counter: the exact solver's kernel asks it once per
    scanned candidate and once per DTRS its sweep meets.
    """
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    if not counts:
        return False
    return satisfies_recursive_diversity(sorted(counts.values(), reverse=True), c, ell)


def ht_counts_deficit(counts: Counter[str], c: float, ell: int) -> float:
    """Deficit delta of an HT multiset given as a Counter."""
    if not counts:
        return float("inf")
    return diversity_deficit(sorted_frequencies(counts), c, ell)


def most_frequent_count(counts: Counter[str]) -> int:
    """q_M: multiplicity of the most frequent HT (Theorems 6.2/6.5/6.7)."""
    if not counts:
        return 0
    return max(counts.values())
