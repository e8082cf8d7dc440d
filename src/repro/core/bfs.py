"""The exact breadth-first-search solver for DA-MS — Algorithm 2.

Searches candidate mixin sets in ascending size order (sizes start at
l_tau - 1 since at least l_tau distinct HTs are needed), so the first
candidate passing all three constraints is a minimum-cardinality
optimum.  The per-candidate checks mirror the paper:

1. the candidate's own HT multiset must satisfy (c, l)-diversity
   (cheap; done first to prune),
2. the non-eliminated constraint over the closure,
3. every ring in the closure — existing rings under their own claimed
   (c_k, l_k), the candidate under (c_tau, l_tau) — must have all its
   DTRSs diversity-compliant.

The search space is O(2^n) candidates and the DTRS check is itself
exponential (Theorem 3.1 says no better exact method is expected);
Figure 4 of the paper measures exactly this blow-up and so does the
``bench_fig04_bfs_scaling`` benchmark.

What changed versus the seed solver (kept verbatim as
:func:`repro.core.perf.reference.bfs_select_reference`, with the
equivalence test suite proving identical output):

* a per-instance :class:`~repro.core.perf.SolverCache` shares the
  related-ring closures and the base token-RS world enumerations across
  all candidates of the search;
* each stratum's candidates are resolved in chunks by the batch
  kernel (:func:`~repro.core.perf.kernels.prefilter_chunk`), which
  answers the non-eliminated and DTRS checks from factorized world
  masks instead of materializing each closure's worlds, and stops at
  the chunk's first feasible candidate; an in-order replay then fires
  each candidate's fault hook, publishes the chunk's verdicts as one
  tally event and returns at that candidate;
* the ``time_budget`` is threaded *into* the kernel as a deadline —
  the seed only looked at the clock between candidates, so a single
  candidate's DTRS sweep could overshoot the budget unboundedly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations as subset_combinations
from itertools import islice

from ..obs import events, metrics, trace
from ..resilience import faults
from .perf.cache import SolverCache
from .perf.kernels import KERNEL_BATCH_SIZE, prefilter_chunk
from .problem import DamsInstance, InfeasibleError
from .ring import Ring

__all__ = ["BfsResult", "bfs_select", "SearchBudgetExceeded"]


class SearchBudgetExceeded(RuntimeError):
    """Raised when the exact search exceeds its time/node budget.

    Carries a best-effort payload locating the trip inside the search
    (the seed only reported elapsed time, which made Figure-4 budget
    rows impossible to compare across runs):

    Attributes:
        size: the mixin-set size stratum being scanned at the trip.
        scanned_in_size: candidates of that size whose check had
            started when the budget ran out.
        margin_s: ``deadline - now`` at the trip (negative means the
            search overshot the budget by that much).
    """

    def __init__(
        self,
        message: str,
        size: int | None = None,
        scanned_in_size: int | None = None,
        margin_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.size = size
        self.scanned_in_size = scanned_in_size
        self.margin_s = margin_s


@dataclass(frozen=True, slots=True)
class BfsResult:
    """Outcome of the exact search.

    Attributes:
        ring: the optimal ring (target token + minimal mixins).
        mixins: the chosen mixin set.
        candidates_checked: number of candidate rings examined: the
            1-based enumeration position of the winner.
        elapsed: wall-clock seconds spent.
    """

    ring: Ring
    mixins: frozenset[str]
    candidates_checked: int
    elapsed: float


def bfs_select(
    instance: DamsInstance,
    time_budget: float | None = None,
    max_mixins: int | None = None,
    cache: SolverCache | None = None,
) -> BfsResult:
    """Run Algorithm 2 on ``instance`` and return the optimal ring.

    Args:
        instance: the DA-MS instance.
        time_budget: optional wall-clock cap in seconds; exceeding it
            raises :class:`SearchBudgetExceeded` (the paper's Figure 4
            run hit 2 hours for the 8th RS — callers need a guard).
            The budget is enforced *inside* the kernel's DTRS sweep
            too, so one pathological candidate cannot overshoot.
        max_mixins: optional cap on the mixin-set size to search.
        cache: reuse a :class:`SolverCache` across calls sharing the
            same universe + ring history (one is created if omitted).

    Raises:
        InfeasibleError: the full search space holds no feasible ring.
        SearchBudgetExceeded: the time budget ran out first.

    Example — the paper's Example 1 (two prior rings over {t1, t2};
    spending t3 at (2, 2)-diversity needs exactly one mixin):

        >>> from repro.core.problem import DamsInstance
        >>> from repro.core.ring import Ring, TokenUniverse
        >>> universe = TokenUniverse(
        ...     {"t1": "h1", "t2": "h2", "t3": "h1", "t4": "h3"})
        >>> history = [
        ...     Ring("r1", frozenset({"t1", "t2"}), c=2.0, ell=2, seq=0),
        ...     Ring("r2", frozenset({"t1", "t2"}), c=2.0, ell=2, seq=1)]
        >>> result = bfs_select(
        ...     DamsInstance(universe, history, "t3", c=2.0, ell=2))
        >>> sorted(result.ring.tokens)
        ['t3', 't4']
        >>> sorted(result.mixins)
        ['t4']
    """
    start = time.perf_counter()
    deadline = None if time_budget is None else start + time_budget
    sigma = sorted(instance.candidate_mixins())
    upper = len(sigma) if max_mixins is None else min(max_mixins, len(sigma))
    lower = max(0, instance.ell - 1)
    if cache is None:
        cache = SolverCache(instance.universe, instance.rings)
    checked = 0

    with trace.span(
        "bfs.select",
        target=instance.target_token,
        mixin_pool=len(sigma),
        budget=time_budget,
    ) as select_span:
        for size in range(lower, upper + 1):
            with trace.span("bfs.stratum", size=size) as stratum_span:
                scanned_in_size = 0
                stream = subset_combinations(sigma, size)
                while batch := list(islice(stream, KERNEL_BATCH_SIZE)):
                    # One kernel pass resolves the chunk up to and
                    # including its first feasible candidate; the
                    # in-order replay keeps the seed's deadline and
                    # fault-hook semantics, and the search returns at
                    # that candidate.
                    verdicts = prefilter_chunk(
                        instance, cache, batch, deadline=deadline
                    )
                    if verdicts is None:  # the kernel passed the deadline
                        raise _trip_budget(
                            time_budget, checked, size, scanned_in_size, deadline
                        )
                    _replay_chunk(
                        verdicts, size, deadline, time_budget, checked,
                        scanned_in_size,
                    )
                    checked += len(verdicts)
                    scanned_in_size += len(verdicts)
                    if verdicts[-1] == "feasible":
                        if stratum_span is not None:
                            stratum_span.attrs["candidates"] = scanned_in_size
                        mixin_tuple = batch[len(verdicts) - 1]
                        return _finish(
                            select_span, instance.make_ring(mixin_tuple),
                            frozenset(mixin_tuple), checked, start,
                        )
                if stratum_span is not None:
                    stratum_span.attrs["candidates"] = scanned_in_size
                if events.enabled():
                    events.emit(
                        events.StratumExhausted(
                            size=size, candidates=scanned_in_size
                        )
                    )
        raise InfeasibleError(
            f"no feasible ring for token {instance.target_token!r} under "
            f"({instance.c}, {instance.ell})-diversity"
        )


def _finish(
    select_span, ring: Ring, mixins: frozenset[str], checked: int, start: float
) -> BfsResult:
    """Assemble the result and flush the per-call observability."""
    elapsed = time.perf_counter() - start
    rec = metrics.active()
    if rec is not None:
        rec.observe("bfs.select_s", elapsed)
        rec.count("bfs.selected")
    if select_span is not None:
        select_span.attrs["ring_size"] = len(ring.tokens)
        select_span.attrs["candidates_checked"] = checked
    return BfsResult(
        ring=ring, mixins=mixins, candidates_checked=checked, elapsed=elapsed
    )


def _trip_budget(
    time_budget: float | None,
    checked: int,
    size: int,
    scanned_in_size: int,
    deadline: float | None,
) -> SearchBudgetExceeded:
    """Build the enriched budget exception and emit its event."""
    margin = 0.0 if deadline is None else deadline - time.perf_counter()
    if events.enabled():
        events.emit(
            events.DeadlineTripped(
                size=size, scanned_in_size=scanned_in_size, margin_s=margin
            )
        )
    budget_text = "?" if time_budget is None else f"{time_budget:.1f}"
    return SearchBudgetExceeded(
        f"exact BFS exceeded {budget_text}s after {checked} candidates "
        f"({scanned_in_size} of size {size})",
        size=size,
        scanned_in_size=scanned_in_size,
        margin_s=margin,
    )


def _replay_chunk(
    verdicts: list[str],
    size: int,
    deadline: float | None,
    time_budget: float | None,
    checked: int,
    scanned_in_size: int,
) -> None:
    """Replay one chunk's verdicts in enumeration order.

    Per candidate, as the seed's scan did: the deadline is checked
    before it and the ``bfs.candidate`` fault hook fires for it (the
    active plan is read once per chunk).  The replayed prefix is
    published as one :class:`~repro.obs.events.CandidatesScanned`
    tally on every exit, so a chunk cut short by a deadline trip or an
    injected fault counts the candidates it got through.  ``checked``
    and ``scanned_in_size`` are the search's counts before the chunk,
    for the budget exception.
    """
    plan = faults.active()
    replayed = 0
    try:
        if plan is None and deadline is None:
            replayed = len(verdicts)
            return
        for _ in verdicts:
            if deadline is not None and time.perf_counter() > deadline:
                raise _trip_budget(
                    time_budget, checked + replayed, size,
                    scanned_in_size + replayed, deadline,
                )
            if plan is not None:
                plan.check("bfs.candidate")
            replayed += 1
    finally:
        if replayed and events.enabled():
            events.emit(events.CandidatesScanned.tally(size, verdicts[:replayed]))
