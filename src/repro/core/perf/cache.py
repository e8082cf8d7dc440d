"""Per-instance memoization for the exact BFS pipeline.

Every candidate mixin set of a given size walks the same three steps:
find the related-ring closure, check non-elimination, sweep the DTRSs
of every closure ring.  Across the thousands of candidates the BFS
enumerates, almost all of that work is shared:

* the related set of a candidate is exactly the union of the connected
  components (token-overlap graph) its tokens touch — computed once
  per instance, the per-candidate lookup is O(|candidate|);
* the token-RS combinations of the *existing* related rings — the
  expensive backtracking enumeration — depend only on which components
  are touched, so each distinct component set's :class:`WorldSet` is
  built once, with its :class:`~repro.core.perf.kernels.KernelState`,
  and every candidate is resolved against it by factorized slice masks
  (no candidate's closure worlds are ever materialized);
* likewise one complete base matching per component set seeds the
  :class:`IncrementalMatcher` of every candidate's closure.

Fingerprints are frozensets of component ids (equivalently: the frozen
rids + token sets of the related rings, which the components determine
uniquely within one instance).  Cache hits/misses are counted so tests
and benchmarks can assert the sharing actually happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ...obs import events
from ...resilience import faults
from ..ring import Ring, TokenUniverse
from .kernels import BACKEND, KernelState
from .worlds import WorldSet

__all__ = ["SolverCache", "CacheStats", "CacheAdvance"]


@dataclass(slots=True)
class CacheStats:
    """Observable cache behavior (asserted by tests, reported by benches)."""

    related_queries: int = 0
    worlds_hits: int = 0
    worlds_misses: int = 0
    kernel_builds: int = 0

    @property
    def worlds_queries(self) -> int:
        return self.worlds_hits + self.worlds_misses


@dataclass(slots=True)
class CacheAdvance:
    """What one :meth:`SolverCache.advance` kept and dropped.

    Attributes:
        touched_components: component ids the new ring's tokens hit
            (empty when the ring opened a fresh component).
        worlds_retained / worlds_invalidated: cached :class:`WorldSet`
            entries carried into / dropped from the advanced cache.
        kernel_retained / kernel_invalidated: same for kernel states.
    """

    touched_components: frozenset[int] = frozenset()
    worlds_retained: int = 0
    worlds_invalidated: int = 0
    kernel_retained: int = 0
    kernel_invalidated: int = 0


@dataclass(slots=True)
class _Component:
    """One connected component of the token-overlap graph."""

    cid: int
    ring_indices: list[int] = field(default_factory=list)


class SolverCache:
    """Shared-work cache for one :class:`~repro.core.problem.DamsInstance`.

    Args:
        universe: the instance's token universe.
        rings: the previously proposed rings (the instance's history).
    """

    def __init__(self, universe: TokenUniverse, rings: Sequence[Ring]) -> None:
        self.universe = universe
        self.rings = list(rings)
        self.stats = CacheStats()
        self._component_of_token: dict[str, int] = {}
        self._components: list[_Component] = []
        self._build_components()
        self._worlds: dict[frozenset[int], WorldSet] = {}
        # key -> (source WorldSet, KernelState).  The source is kept so
        # a chaos-dropped worlds entry also invalidates the kernel state
        # derived from it.
        self._kernel_states: dict[
            frozenset[int], tuple[WorldSet, KernelState]
        ] = {}

    # -- component decomposition ------------------------------------------

    def _build_components(self) -> None:
        # Union-find over ring indices, linked through shared tokens.
        parent = list(range(len(self.rings)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        first_ring_of_token: dict[str, int] = {}
        for index, ring in enumerate(self.rings):
            for token in ring.tokens:
                owner = first_ring_of_token.setdefault(token, index)
                if owner != index:
                    union(owner, index)

        cid_of_root: dict[int, int] = {}
        for index in range(len(self.rings)):
            root = find(index)
            cid = cid_of_root.get(root)
            if cid is None:
                cid = len(self._components)
                cid_of_root[root] = cid
                self._components.append(_Component(cid=cid))
            self._components[cid].ring_indices.append(index)
        for token, owner in first_ring_of_token.items():
            self._component_of_token[token] = cid_of_root[find(owner)]

    # -- incremental advance ----------------------------------------------

    def advance(self, ring: Ring) -> tuple["SolverCache", CacheAdvance]:
        """A new cache for ``rings + [ring]`` keeping every untouched entry.

        The token-overlap components the new ring's tokens do *not*
        reach are left byte-for-byte alone by an append: their ring
        lists, related closures and hence their cached
        :class:`WorldSet`/kernel-state entries are still exact, so they
        are carried into the new cache (Thm 6.1's locality made
        operational).  Entries whose component-set key intersects a
        touched component are dropped — those closures gained a ring.

        ``self`` is not mutated: requests still in flight against the
        old snapshot keep solving against the old cache.  Shared
        :class:`WorldSet` objects are safe to alias — their content is
        a pure function of the ring list they were built from.

        Returns the advanced cache and a :class:`CacheAdvance` report.
        """
        new = SolverCache.__new__(SolverCache)
        new.universe = self.universe
        new.rings = self.rings + [ring]
        new.stats = CacheStats()
        new._component_of_token = dict(self._component_of_token)
        new._components = [
            _Component(cid=comp.cid, ring_indices=list(comp.ring_indices))
            for comp in self._components
        ]
        touched = frozenset(
            cid
            for token in ring.tokens
            if (cid := new._component_of_token.get(token)) is not None
        )
        index = len(self.rings)
        if not touched:
            cid = len(new._components)
            new._components.append(_Component(cid=cid, ring_indices=[index]))
            for token in ring.tokens:
                new._component_of_token[token] = cid
        else:
            target = min(touched)
            merged = new._components[target]
            for cid in sorted(touched - {target}):
                vacated = new._components[cid]
                merged.ring_indices.extend(vacated.ring_indices)
                vacated.ring_indices = []
            merged.ring_indices.append(index)
            if len(touched) > 1:
                for token, cid in new._component_of_token.items():
                    if cid in touched:
                        new._component_of_token[token] = target
            for token in ring.tokens:
                new._component_of_token[token] = target
        # Solver threads may still be filling this (old) cache while a
        # commit thread advances it: filter atomic snapshots (dict.copy
        # holds the GIL for the whole copy) rather than iterating the
        # live dicts, which would race those inserts/pops and raise
        # "dictionary changed size during iteration".  Entries landing
        # after the copy are merely cold misses in the new cache.
        worlds_snapshot = self._worlds.copy()
        kernel_snapshot = self._kernel_states.copy()
        new._worlds = {
            key: worlds
            for key, worlds in worlds_snapshot.items()
            if key.isdisjoint(touched)
        }
        new._kernel_states = {
            key: entry
            for key, entry in kernel_snapshot.items()
            if key.isdisjoint(touched)
        }
        report = CacheAdvance(
            touched_components=touched,
            worlds_retained=len(new._worlds),
            worlds_invalidated=len(worlds_snapshot) - len(new._worlds),
            kernel_retained=len(new._kernel_states),
            kernel_invalidated=len(kernel_snapshot) - len(new._kernel_states),
        )
        return new, report

    # -- related-ring closures --------------------------------------------

    def related_key(self, tokens: Iterable[str]) -> frozenset[int]:
        """The component-set fingerprint a candidate's tokens touch."""
        self.stats.related_queries += 1
        return frozenset(
            cid
            for token in tokens
            if (cid := self._component_of_token.get(token)) is not None
        )

    def related_rings(self, key: frozenset[int]) -> list[Ring]:
        """The related RS set (Definition 1) for a component-set key.

        Identical to :func:`~repro.core.ring.related_ring_set` — the
        fixpoint of token-overlap is exactly the union of the touched
        components — including the original ring order.
        """
        indices = sorted(
            index for cid in key for index in self._components[cid].ring_indices
        )
        return [self.rings[index] for index in indices]

    # -- shared world prefixes --------------------------------------------

    def base_worlds(self, key: frozenset[int], deadline: float | None = None) -> WorldSet:
        """The (cached) WorldSet of the related rings under ``key``."""
        plan = faults.active()
        if plan is not None and plan.check("cache.worlds") is not None:
            # Cooperative corruption: drop the cached entry so the world
            # set is rebuilt from the rings — correctness must not
            # depend on a cache hit.
            self._worlds.pop(key, None)
        worlds = self._worlds.get(key)
        if worlds is None:
            self.stats.worlds_misses += 1
            if events.enabled():
                events.emit(events.CacheWorldsLookup(hit=False))
            worlds = WorldSet(self.related_rings(key), deadline=deadline)
            self._worlds[key] = worlds
        else:
            self.stats.worlds_hits += 1
            if events.enabled():
                events.emit(events.CacheWorldsLookup(hit=True))
        return worlds

    def kernel_state(
        self, key: frozenset[int], deadline: float | None = None
    ) -> KernelState:
        """The (cached) batch-kernel state of the base worlds under ``key``.

        Routes through :meth:`base_worlds` every call — the state is
        derived data, so it must follow the worlds entry through cache
        chaos: a corrupted/dropped worlds entry yields a fresh
        :class:`WorldSet` and therefore a rebuilt state.
        """
        worlds = self.base_worlds(key, deadline=deadline)
        entry = self._kernel_states.get(key)
        if entry is not None and entry[0] is worlds:
            return entry[1]
        self.stats.kernel_builds += 1
        state = BACKEND.build_state(worlds, self.universe)
        self._kernel_states[key] = (worlds, state)
        if events.enabled():
            events.emit(
                events.KernelStateBuilt(rings=len(worlds.rings), worlds=len(worlds))
            )
        return state
