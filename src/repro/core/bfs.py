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
* the non-eliminated constraint runs on one incremental matching per
  closure instead of |ring| full Kuhn runs per ring;
* the ``time_budget`` is threaded *into* the per-candidate check as a
  deadline — the seed only looked at the clock between candidates, so a
  single candidate's DTRS sweep could overshoot the budget unboundedly;
* ``workers > 1`` fans the candidate stream of each size across
  processes.  The winner is the first feasible candidate in
  lexicographic enumeration order, so the parallel result — optimum,
  mixin set and ``candidates_checked`` — is identical to serial.
  ``candidates_checked`` always reports the *serial* semantics: the
  1-based enumeration position of the winner (workers may have
  speculatively checked candidates past it; those are not counted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations as subset_combinations

from ..obs import events, metrics, trace
from ..resilience import faults
from .diversity import ht_counts_satisfy
from .perf.cache import SolverCache
from .perf.kernels import KERNEL_BATCH_SIZE, prefilter_chunk
from .perf.matching import IncrementalMatcher
from .perf.parallel import chunked, resolve_workers, scan_candidates
from .perf.worlds import DeadlineExceeded
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
        checkpoint_path: where the last stratum-boundary checkpoint was
            written (None when checkpointing was off or no stratum had
            completed) — pass it back as ``resume_from`` to continue.
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
        self.checkpoint_path = None


@dataclass(frozen=True, slots=True)
class BfsResult:
    """Outcome of the exact search.

    Attributes:
        ring: the optimal ring (target token + minimal mixins).
        mixins: the chosen mixin set.
        candidates_checked: number of candidate rings examined (serial
            enumeration-order semantics, identical for all worker
            counts).
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
    workers: int = 0,
    cache: SolverCache | None = None,
    supervision=None,
    checkpoint_path=None,
    resume_from=None,
) -> BfsResult:
    """Run Algorithm 2 on ``instance`` and return the optimal ring.

    Args:
        instance: the DA-MS instance.
        time_budget: optional wall-clock cap in seconds; exceeding it
            raises :class:`SearchBudgetExceeded` (the paper's Figure 4
            run hit 2 hours for the 8th RS — callers need a guard).
            The budget is enforced *inside* the per-candidate DTRS
            sweep too, so one pathological candidate cannot overshoot.
        max_mixins: optional cap on the mixin-set size to search.
        workers: fan the candidate stream across this many processes
            (<= 1 means serial).  Results are identical to serial.
        cache: reuse a :class:`SolverCache` across calls sharing the
            same universe + ring history (one is created if omitted).
        supervision: a :class:`~repro.resilience.supervisor.RetryPolicy`
            to requeue chunks lost to dead/hung workers (parallel runs
            only); ``None`` detects the loss but does not retry.
        checkpoint_path: write a stratum-boundary
            :class:`~repro.resilience.checkpoint.BfsCheckpoint` here
            after every exhausted stratum, so a later call can resume.
        resume_from: a checkpoint (path or
            :class:`~repro.resilience.checkpoint.BfsCheckpoint`) from a
            previous run on the *same* instance; the search restarts at
            the recorded stratum and reproduces the uninterrupted
            result exactly.

    Raises:
        InfeasibleError: the full search space holds no feasible ring.
        SearchBudgetExceeded: the time budget ran out first; carries
            ``checkpoint_path`` when a checkpoint was written.
        CheckpointError: ``resume_from`` is corrupted or belongs to a
            different instance.
        WorkerLost: a parallel worker died/hung unrecoverably.

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
    workers = resolve_workers(workers)
    if cache is None:
        cache = SolverCache(instance.universe, instance.rings)
    checked = 0

    fingerprint = None
    if checkpoint_path is not None or resume_from is not None:
        from ..resilience.checkpoint import instance_fingerprint

        fingerprint = instance_fingerprint(instance)
    if resume_from is not None:
        lower, checked = _resume(
            instance, resume_from, fingerprint, lower, cache, deadline
        )
    wrote_checkpoint = False

    def _checkpoint_boundary(next_size: int) -> None:
        """Persist progress after a fully scanned stratum."""
        nonlocal wrote_checkpoint
        if checkpoint_path is None:
            return
        from ..resilience.checkpoint import BfsCheckpoint, save_checkpoint

        save_checkpoint(
            checkpoint_path,
            BfsCheckpoint(
                fingerprint=fingerprint,
                next_size=next_size,
                candidates_checked=checked,
                elapsed=time.perf_counter() - start,
                cache_keys=cache.worlds_keys(),
            ),
        )
        wrote_checkpoint = True
        if events.enabled():
            events.emit(
                events.CheckpointSaved(size=next_size - 1, candidates=checked)
            )

    def _with_checkpoint(exc: SearchBudgetExceeded) -> SearchBudgetExceeded:
        if wrote_checkpoint:
            exc.checkpoint_path = checkpoint_path
        return exc

    with trace.span(
        "bfs.select",
        target=instance.target_token,
        mixin_pool=len(sigma),
        budget=time_budget,
        workers=workers,
    ) as select_span:
        for size in range(lower, upper + 1):
            with trace.span("bfs.stratum", size=size) as stratum_span:
                scanned_in_size = 0
                stream = subset_combinations(sigma, size)
                if workers:
                    if supervision is not None:
                        from ..resilience.supervisor import supervised_scan

                        outcome, index, winner = supervised_scan(
                            instance, stream, workers, deadline=deadline,
                            policy=supervision,
                        )
                    else:
                        outcome, index, winner = scan_candidates(
                            instance, stream, workers, deadline=deadline
                        )
                    if stratum_span is not None:
                        stratum_span.attrs["candidates"] = index + (
                            1 if outcome == "found" else 0
                        )
                    if outcome == "budget":
                        raise _with_checkpoint(_trip_budget(
                            time_budget, checked + index + 1, size, index + 1,
                            deadline,
                        ))
                    if outcome == "found":
                        checked += index + 1
                        return _finish(
                            select_span, instance.make_ring(winner),
                            frozenset(winner), checked, start,
                        )
                    checked += index
                    if events.enabled():
                        events.emit(
                            events.StratumExhausted(size=size, candidates=index)
                        )
                    _checkpoint_boundary(size + 1)
                    continue
                for batch in chunked(stream, KERNEL_BATCH_SIZE):
                    # One kernel pass resolves the chunk up to and
                    # including its first feasible candidate (None =
                    # batching off or the kernel tripped the deadline);
                    # the in-order replay below returns at that
                    # candidate and keeps the seed's deadline,
                    # fault-hook and event semantics.
                    verdicts = prefilter_chunk(
                        instance, cache, batch, deadline=deadline
                    )
                    for local_index, mixin_tuple in enumerate(batch):
                        if deadline is not None and time.perf_counter() > deadline:
                            raise _with_checkpoint(_trip_budget(
                                time_budget, checked, size, scanned_in_size,
                                deadline,
                            ))
                        checked += 1
                        scanned_in_size += 1
                        candidate = instance.make_ring(mixin_tuple)
                        verdict = (
                            None if verdicts is None else verdicts[local_index]
                        )
                        try:
                            feasible = _replay_candidate(
                                instance, candidate, verdict,
                                cache=cache, deadline=deadline,
                            )
                        except SearchBudgetExceeded as exc:
                            _annotate_trip(exc, size, scanned_in_size, deadline)
                            raise _with_checkpoint(exc)
                        if feasible:
                            if stratum_span is not None:
                                stratum_span.attrs["candidates"] = scanned_in_size
                            return _finish(
                                select_span, candidate, frozenset(mixin_tuple),
                                checked, start,
                            )
                if stratum_span is not None:
                    stratum_span.attrs["candidates"] = scanned_in_size
                if events.enabled():
                    events.emit(
                        events.StratumExhausted(
                            size=size, candidates=scanned_in_size
                        )
                    )
                _checkpoint_boundary(size + 1)
        raise InfeasibleError(
            f"no feasible ring for token {instance.target_token!r} under "
            f"({instance.c}, {instance.ell})-diversity"
        )


def _resume(
    instance: DamsInstance,
    resume_from,
    fingerprint: str,
    lower: int,
    cache: SolverCache,
    deadline: float | None,
) -> tuple[int, int]:
    """Validate a checkpoint and return the (start stratum, checked) pair."""
    from ..resilience.checkpoint import (
        BfsCheckpoint,
        CheckpointError,
        load_checkpoint,
    )

    checkpoint = (
        resume_from
        if isinstance(resume_from, BfsCheckpoint)
        else load_checkpoint(resume_from)
    )
    if checkpoint.fingerprint != fingerprint:
        raise CheckpointError(
            "checkpoint belongs to a different DA-MS instance "
            f"(fingerprint {checkpoint.fingerprint[:12]}… != "
            f"{fingerprint[:12]}…)"
        )
    # Pre-warm the shared-world cache with the entries the interrupted
    # run had built; the keys come from the checkpoint, the worlds are
    # recomputed (they are derived data, not trusted from disk).
    for key in checkpoint.cache_keys:
        cache.base_worlds(frozenset(key), deadline=deadline)
    if events.enabled():
        events.emit(events.CheckpointResumed(size=checkpoint.next_size))
    return max(lower, checkpoint.next_size), checkpoint.candidates_checked


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


def _annotate_trip(
    exc: SearchBudgetExceeded,
    size: int,
    scanned_in_size: int,
    deadline: float | None,
) -> None:
    """Attach stratum context to a budget trip raised mid-candidate."""
    exc.size = size
    exc.scanned_in_size = scanned_in_size
    if exc.margin_s is None and deadline is not None:
        exc.margin_s = deadline - time.perf_counter()
    if events.enabled():
        events.emit(
            events.DeadlineTripped(
                size=size,
                scanned_in_size=scanned_in_size,
                margin_s=exc.margin_s if exc.margin_s is not None else 0.0,
            )
        )


def _candidate_feasible(
    instance: DamsInstance,
    candidate: Ring,
    cache: SolverCache | None = None,
    deadline: float | None = None,
) -> bool:
    """Lines 5-22 of Algorithm 2 for a single candidate ring.

    Raises:
        SearchBudgetExceeded: the deadline passed mid-check (the seed
            only noticed between candidates; see the module docstring).
    """
    return _replay_candidate(
        instance, candidate, None, cache=cache, deadline=deadline
    )


def _replay_candidate(
    instance: DamsInstance,
    candidate: Ring,
    verdict: str | None,
    cache: SolverCache | None = None,
    deadline: float | None = None,
) -> bool:
    """One candidate of the in-order replay after a kernel pre-filter.

    Fires the ``bfs.candidate`` fault hook (once per candidate, in
    enumeration order — exactly as the per-candidate path does), then
    applies the kernel ``verdict``: resolved verdicts emit the matching
    :class:`~repro.obs.events.CandidateScanned` event directly; ``None``
    (batching off, or the kernel hit the deadline mid-chunk) runs the
    exact per-candidate check.
    """
    plan = faults.active()
    if plan is not None:
        plan.check("bfs.candidate")
    if verdict is None:
        return _check_candidate(
            instance, candidate, cache=cache, deadline=deadline
        )
    size = len(candidate.tokens) - 1
    if verdict == "feasible":
        if events.enabled():
            events.emit(events.CandidateScanned(size=size, filtered_at=None))
        return True
    if events.enabled():
        events.emit(events.CandidateScanned(size=size, filtered_at=verdict))
    return False


def _check_candidate(
    instance: DamsInstance,
    candidate: Ring,
    cache: SolverCache | None = None,
    deadline: float | None = None,
) -> bool:
    """The exact per-candidate tail (ht gate, matcher, DTRS sweep)."""
    universe = instance.universe
    obs_on = events.enabled()
    size = len(candidate.tokens) - 1  # mixin count: the stratum this is in
    # Line 6-8: the candidate's own HT multiset first — cheapest filter.
    if not ht_counts_satisfy(
        universe.ht_counts(candidate.tokens), candidate.c, candidate.ell
    ):
        if obs_on:
            events.emit(events.CandidateScanned(size=size, filtered_at="ht"))
        return False

    if cache is None:
        cache = SolverCache(universe, instance.rings)
    key = cache.related_key(candidate.tokens)
    related = cache.related_rings(key)
    closure = related + [candidate]

    # Lines 9-16: non-eliminated over the closure — one matching, one
    # augmenting-path repair per (ring, token) query.
    matcher = IncrementalMatcher(closure)
    if not all(matcher.non_eliminated(ring.rid) for ring in closure):
        if obs_on:
            events.emit(
                events.CandidateScanned(size=size, filtered_at="eliminated")
            )
        return False

    # Lines 17-22: every ring's DTRSs must satisfy that ring's own
    # claimed requirement (the candidate's is (c_tau, l_tau)).  The
    # base worlds of the related prefix come from the cache; only the
    # candidate's own row is new work.
    try:
        worlds = cache.base_worlds(key, deadline=deadline).extend(
            candidate, deadline=deadline
        )
        for ring in closure:
            for dtrs in worlds.dtrss_of(ring.rid, universe, deadline=deadline):
                if not ht_counts_satisfy(
                    universe.ht_counts(dtrs.tokens), ring.c, ring.ell
                ):
                    if obs_on:
                        events.emit(
                            events.CandidateScanned(size=size, filtered_at="dtrs")
                        )
                    return False
    except DeadlineExceeded:
        raise SearchBudgetExceeded(
            "exact BFS deadline passed inside a candidate's DTRS sweep",
            size=size,
        ) from None
    if obs_on:
        events.emit(events.CandidateScanned(size=size, filtered_at=None))
    return True
