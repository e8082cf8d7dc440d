"""Answer checks made apart from the daemon's own verify path.

The ladder re-verifies every ring through ``repro.core.problem``; these
checks instead use the frozen seed functions of
``repro.core.perf.reference`` (eager world enumeration, fresh Kuhn
matchings, the cache-free BFS), so a fault shared by the optimized
solver and the checkers it is verified with still shows here.
"""

from __future__ import annotations

from repro.core.diversity import ht_counts_satisfy
from repro.core.perf.reference import (
    bfs_select_reference,
    check_non_eliminated_reference,
    get_dtrss_reference,
)
from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse, related_ring_set


def _diverse_in(ring: Ring, closure: list[Ring], universe: TokenUniverse) -> bool:
    """Definition 4 for ``ring`` under its own claim, within ``closure``."""
    if not ht_counts_satisfy(universe.ht_counts(ring.tokens), ring.c, ring.ell):
        return False
    return all(
        ht_counts_satisfy(universe.ht_counts(dtrs.tokens), ring.c, ring.ell)
        for dtrs in get_dtrss_reference(ring, closure, universe)
    )


class BatchView:
    """One batch's universe and ring history, as a served epoch saw it."""

    def __init__(self, universe: TokenUniverse, tokens, rings) -> None:
        self.tokens = frozenset(tokens)
        self.universe = TokenUniverse({t: universe.ht_of(t) for t in sorted(tokens)})
        self.rings = [ring for ring in rings if ring.tokens <= self.tokens]
        #: (ring id, ids of the rings it was checked among) -> diverse
        #: before the served ring; many answers share a related ring set.
        self._held_before: dict[tuple[str, frozenset], bool] = {}

    def ring_failures(self, target: str, tokens, c: float, ell: int) -> list[str]:
        """Which Definition 5 conditions the served ring breaks (empty = none)."""
        tokens = frozenset(tokens)
        if target not in tokens:
            return ["target missing from ring"]
        if not tokens <= self.tokens:
            return ["ring leaves the target's batch"]
        seq = 1 + max((ring.seq for ring in self.rings), default=-1)
        candidate = Ring("served", tokens, c=c, ell=ell, seq=seq)
        related = related_ring_set(candidate, self.rings)
        closure = related + [candidate]
        failed = []
        if not _diverse_in(candidate, closure, self.universe):
            failed.append("diversity")
        if not check_non_eliminated_reference(closure):
            failed.append("non_eliminated")
        related_ids = frozenset(ring.rid for ring in related)
        for ring in related:
            key = (ring.rid, related_ids)
            if key not in self._held_before:
                self._held_before[key] = _diverse_in(ring, related, self.universe)
            if self._held_before[key] and not _diverse_in(ring, closure, self.universe):
                failed.append(f"immutability of {ring.rid}")
        return failed

    def optimum_size(self, target: str, c: float, ell: int) -> int:
        """The seed BFS's optimal ring size for this instance."""
        instance = DamsInstance(self.universe, list(self.rings), target, c=c, ell=ell)
        return len(bfs_select_reference(instance).ring.tokens)
