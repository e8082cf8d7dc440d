"""Solver performance layer: shared-work caching and batch kernels.

The exact pipeline (Algorithm 2's BFS over mixin sets, Algorithm 3's
DTRS enumeration, and the matching-based chain-reaction analysis) is
exponential by Theorem 3.1 — but the *seed* implementation also paid
for the same sub-results thousands of times over.  This package holds
the machinery that removes the redundancy without changing a single
answer:

* :class:`WorldSet` (:mod:`~repro.core.perf.worlds`) — token-RS
  combinations of a ring set as per-pair world masks, made during the
  one enumeration and queried for DTRSs via big-integer mask
  intersections instead of repeated world scans.
* :class:`SolverCache` (:mod:`~repro.core.perf.cache`) — per-instance
  memoization keyed by ring-set fingerprints: connected components of
  the token-overlap graph give O(tokens) related-ring closures, and the
  base worlds / base matchings of each distinct related set are shared
  by every BFS candidate that touches it.
* :class:`IncrementalMatcher` (:mod:`~repro.core.perf.matching`) — one
  maximum bipartite matching per ring set; every "can ring r consume
  token t?" query is answered with a single augmenting-path repair
  instead of a full Kuhn run.
* :mod:`~repro.core.perf.kernels` — columnar batch kernels: whole
  strata of candidates are resolved against one cached base world set
  via factorized big-integer slice masks (bulk extension, batched HT
  filtering, an early-exit DTRS sweep).
* :mod:`~repro.core.perf.reference` — the seed (pre-optimization)
  algorithms, kept verbatim so equivalence tests and the
  ``BENCH_bfs.json`` benchmark can prove the fast path returns the same
  output and measure how much faster it is.
"""

from .cache import SolverCache
from .kernels import KernelBackend, KernelState, prefilter_chunk
from .matching import IncrementalMatcher
from .worlds import WorldSet

__all__ = [
    "SolverCache",
    "IncrementalMatcher",
    "WorldSet",
    "KernelBackend",
    "KernelState",
    "prefilter_chunk",
]
