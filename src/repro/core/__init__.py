"""Core of the paper's contribution: DA-MS semantics, solvers, selectors.

Public surface:

* data model — :class:`Ring`, :class:`TokenUniverse`, :class:`RingSet`,
  :func:`related_ring_set`;
* privacy semantics — recursive (c, l)-diversity tests, token-RS
  combinations, DTRS enumeration;
* the DA-MS problem — :class:`DamsInstance` and exact constraint checks;
* solvers — :func:`bfs_select` (exact, Algorithm 2),
  :func:`progressive_select` (Algorithm 4), :func:`game_select`
  (Algorithm 5), :func:`smallest_select` / :func:`random_select`
  (the TM_S / TM_R baselines);
* the practical configurations — :class:`ModuleUniverse`,
  Theorem 6.1's polynomial DTRS check and the second configuration's
  l+1 rule.
"""

from .baselines import random_select, smallest_select
from .bfs import BfsResult, SearchBudgetExceeded, bfs_select
from .combinations import (
    count_combinations,
    eliminated_tokens,
    enumerate_combinations,
    has_complete_assignment,
    possible_consumed_tokens,
)
from .diversity import (
    diversity_deficit,
    ht_counts_deficit,
    ht_counts_satisfy,
    most_frequent_count,
    satisfies_recursive_diversity,
    sorted_frequencies,
)
from .dtrs import Dtrs, get_dtrss, ring_is_recursive_diverse_exact
from .game import game_select
from .modules import (
    Module,
    ModuleUniverse,
    find_fresh_tokens,
    find_super_rings,
    is_superset_or_disjoint,
    ring_is_recursive_diverse_config,
    second_config_ell,
    subset_count,
    theorem61_dtrs_token_sets,
)
from .problem import (
    DamsInstance,
    InfeasibleError,
    check_diversity_constraint,
    check_immutability_constraint,
    check_non_eliminated_constraint,
    definition5_violations,
    is_feasible_exact,
)
from .progressive import progressive_select
from .relaxation import RelaxationStep, relaxation_schedule, select_with_relaxation
from .ring import Ring, RingSet, TokenUniverse, related_ring_set
from .selector import SELECTORS, SelectionResult, get_selector, register_selector

__all__ = [
    "Ring",
    "RingSet",
    "TokenUniverse",
    "related_ring_set",
    "satisfies_recursive_diversity",
    "sorted_frequencies",
    "diversity_deficit",
    "ht_counts_satisfy",
    "ht_counts_deficit",
    "most_frequent_count",
    "enumerate_combinations",
    "count_combinations",
    "has_complete_assignment",
    "possible_consumed_tokens",
    "eliminated_tokens",
    "Dtrs",
    "get_dtrss",
    "ring_is_recursive_diverse_exact",
    "DamsInstance",
    "InfeasibleError",
    "check_diversity_constraint",
    "check_non_eliminated_constraint",
    "check_immutability_constraint",
    "definition5_violations",
    "is_feasible_exact",
    "BfsResult",
    "SearchBudgetExceeded",
    "bfs_select",
    "Module",
    "ModuleUniverse",
    "find_super_rings",
    "find_fresh_tokens",
    "subset_count",
    "is_superset_or_disjoint",
    "theorem61_dtrs_token_sets",
    "ring_is_recursive_diverse_config",
    "second_config_ell",
    "progressive_select",
    "game_select",
    "smallest_select",
    "random_select",
    "SelectionResult",
    "SELECTORS",
    "get_selector",
    "register_selector",
    "RelaxationStep",
    "relaxation_schedule",
    "select_with_relaxation",
]
