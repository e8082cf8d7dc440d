"""The Diversity-Aware Mixins Selection (DA-MS) problem — Definition 5.

Given a mixin universe T, a token t_tau to consume and a requirement
(c_tau, l_tau), pick a minimum-cardinality mixin set M so that the ring
r_tau = M ∪ {t_tau} satisfies:

* **diversity**: r_tau is a recursive (c_tau, l_tau)-diversity RS
  (Definition 4 — both the ring's own HT multiset and every DTRS's);
* **non-eliminated**: after proposing r_tau, no token of any ring in
  the closure can be ruled out by chain-reaction analysis;
* **immutability**: every previously proposed ring in the related set
  keeps its own claimed recursive (c_i, l_i)-diversity.

This module defines the problem instance object and exact (exponential)
constraint checkers used by the BFS solver and by tests; the practical
configurations in :mod:`repro.core.modules` provide the polynomial
counterparts.  :func:`definition5_violations` is the re-check every
served ring passes: it enumerates the closure's worlds once, and the
worlds of the closure without the candidate only when a related ring
fails its claim in the closure, so a ring that passes costs one world
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .diversity import ht_counts_satisfy
from .perf.worlds import WorldSet
from .ring import Ring, TokenUniverse, related_ring_set

__all__ = [
    "DamsInstance",
    "InfeasibleError",
    "check_diversity_constraint",
    "check_non_eliminated_constraint",
    "check_immutability_constraint",
    "definition5_violations",
    "is_feasible_exact",
]


class InfeasibleError(RuntimeError):
    """Raised when no mixin set can satisfy the DA-MS constraints."""


@dataclass(slots=True)
class DamsInstance:
    """One DA-MS problem instance.

    Attributes:
        universe: the mixin universe T with token -> HT labels.
        rings: previously proposed rings over T (ordered by seq).
        target_token: the token t_tau to consume.
        c: required diversity parameter c_tau.
        ell: required diversity parameter l_tau.
    """

    universe: TokenUniverse
    rings: list[Ring]
    target_token: str
    c: float
    ell: int
    _next_seq: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.target_token not in self.universe:
            raise ValueError(f"target token {self.target_token!r} not in universe")
        if not math.isfinite(self.c) or self.c <= 0 or self.ell < 1:
            raise ValueError("invalid diversity requirement")
        if len({ring.rid for ring in self.rings}) != len(self.rings):
            raise ValueError("ring history contains duplicate rids")
        self._next_seq = 1 + max((ring.seq for ring in self.rings), default=-1)

    def candidate_mixins(self) -> frozenset[str]:
        """sigma = T \\ {t_tau} (Algorithm 2, line 1)."""
        return self.universe.tokens - {self.target_token}

    def make_ring(self, mixins: Iterable[str], rid: str = "r_tau") -> Ring:
        """Assemble the candidate ring t_tau ∪ mixins."""
        tokens = frozenset(mixins) | {self.target_token}
        return Ring(rid=rid, tokens=tokens, c=self.c, ell=self.ell, seq=self._next_seq)

    def related_rings(self, candidate: Ring) -> list[Ring]:
        """R_pi^{r_tau}: the related RS set of the candidate (Definition 1)."""
        return related_ring_set(candidate, self.rings)


def check_diversity_constraint(
    candidate: Ring,
    closure: Sequence[Ring],
    universe: TokenUniverse,
) -> bool:
    """Exact Definition 4 check for the new ring (both conditions)."""
    return _diverse_in(candidate, WorldSet(closure), universe)


def check_non_eliminated_constraint(
    closure: Sequence[Ring],
) -> bool:
    """No token of any ring in the closure may be eliminated.

    Polynomial: for every ring r and token t in r there must exist a
    token-RS combination assigning t to r.  One maximum matching is
    built for the whole closure and each (r, t) query is an
    augmenting-path repair on it.
    """
    from .perf.matching import IncrementalMatcher

    matcher = IncrementalMatcher(closure)
    return all(matcher.non_eliminated(ring.rid) for ring in closure)


def check_immutability_constraint(
    candidate: Ring,
    closure: Sequence[Ring],
    universe: TokenUniverse,
) -> bool:
    """Every existing related ring *maintains* its claimed (c_i, l_i)-diversity.

    Exact (exponential): a ring that satisfied Definition 4 before the
    candidate was proposed must still satisfy it afterwards.  Rings that
    already violated their own claim beforehand cannot be broken by the
    newcomer, so they do not constrain it ("maintain" in Definition 5).
    """
    return _immutable(candidate, closure, WorldSet(closure), universe)


def definition5_violations(
    instance: DamsInstance, mixins: Iterable[str]
) -> Iterator[str]:
    """Yield the Definition 5 constraints that ``mixins`` + target break.

    Names come in the order ``"diversity"``, ``"non_eliminated"``,
    ``"immutability"``; nothing is yielded for a feasible ring.  A
    generator, so a caller asking only *whether* the ring fails stops
    at the first violation, while ``tuple(...)`` lists every one.

    One :class:`~repro.core.perf.worlds.WorldSet` of the closure
    answers the candidate's DTRSs and every related ring's DTRSs after
    the candidate.  A second one, of the closure without the candidate,
    is enumerated only when some related ring fails its claim in the
    closure, to ask whether it held before (see :func:`_immutable`);
    a ring that passes builds one world set.  Checking constraint by
    constraint through ``get_dtrss`` enumerated ``1 + 2k`` world sets
    for ``k`` related rings.  Every world set is built from the closure
    on every call and never shared with a solver cache, so the check
    stays independent of the solver whose answer it verifies.
    """
    candidate = instance.make_ring(mixins)
    closure = instance.related_rings(candidate) + [candidate]
    universe = instance.universe
    worlds = WorldSet(closure)
    if not _diverse_in(candidate, worlds, universe):
        yield "diversity"
    if not check_non_eliminated_constraint(closure):
        yield "non_eliminated"
    if not _immutable(candidate, closure, worlds, universe):
        yield "immutability"


def _immutable(
    candidate: Ring,
    closure: Sequence[Ring],
    worlds: WorldSet,
    universe: TokenUniverse,
) -> bool:
    """Immutability of ``closure``'s other rings; ``worlds`` is the
    closure's world set.

    A ring broken by the candidate held its claim before it and fails
    after it.  So the rings are asked after the candidate first, and
    the world set before it is enumerated only when some ring fails
    there: a ring that holds after the candidate cannot break "held
    before ⇒ holds after", whatever it did before.
    """
    before = [ring for ring in closure if ring.rid != candidate.rid]
    failing = [ring for ring in before if not _diverse_in(ring, worlds, universe)]
    if not failing:
        return True
    before_worlds = WorldSet(before)
    return not any(_diverse_in(ring, before_worlds, universe) for ring in failing)


def _diverse_in(ring: Ring, worlds: WorldSet, universe: TokenUniverse) -> bool:
    """Definition 4 for ``ring`` under its own claim, within the ring
    set ``worlds`` enumerates."""
    if not ht_counts_satisfy(universe.ht_counts(ring.tokens), ring.c, ring.ell):
        return False
    return all(
        ht_counts_satisfy(universe.ht_counts(dtrs.tokens), ring.c, ring.ell)
        for dtrs in worlds.dtrss_of(ring.rid, universe)
    )


def is_feasible_exact(instance: DamsInstance, mixins: Iterable[str]) -> bool:
    """Do ``mixins`` give a ring satisfying all three DA-MS constraints?

    This is the decision version DDA-MS of Theorem 3.1 — exponential in
    general, intended for small instances and cross-checking tests.
    """
    return next(definition5_violations(instance, mixins), None) is None
