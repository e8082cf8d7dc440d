"""Opt-in multiprocessing fan-out for the exact pipeline.

Two fan-outs live here:

* the BFS candidate stream — :func:`scan_candidates` chunks the
  lexicographic size-k mixin stream across a process pool and returns
  the *first feasible candidate in enumeration order*, so the parallel
  winner (and therefore the reported optimum, mixin set and
  ``candidates_checked``) is byte-identical to the serial solver's;
* the chain-reaction per-ring sweep — :func:`parallel_map_rings` splits
  the possible-consumed-token queries of an attack across workers, each
  holding its own :class:`~repro.core.perf.matching.IncrementalMatcher`.

Workers are plain forked processes (no shared state); each builds its
own :class:`~repro.core.perf.cache.SolverCache` once per pool and keeps
it across chunks.  Determinism does not depend on scheduling: results
are consumed in submission order and the first hit wins.

Observability: when the controller has a metrics recorder installed,
each BFS worker wraps every candidate check in a private
:class:`~repro.obs.metrics.MemoryRecorder` and ships the per-candidate
snapshots back with the chunk outcome (the pool's result queue is the
event queue).  The controller folds them in submission order up to the
winning candidate, so merged counter totals equal a serial run's — see
:mod:`repro.obs.events` for the protocol and the one documented
exception (per-process cache counters).  Workers never trace; any
tracer inherited across the fork is uninstalled at pool init.

Everything defaults off (``workers <= 1`` means serial) — on small
instances process startup dwarfs the work, and the caching layer alone
usually clears the budget.
"""

from __future__ import annotations

import multiprocessing
import time
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from ...obs import metrics, trace
from ...resilience import faults
from ..ring import Ring

__all__ = [
    "resolve_workers",
    "chunked",
    "scan_candidates",
    "parallel_map_rings",
    "WorkerLost",
]


class WorkerLost(RuntimeError):
    """A pool worker died or hung and its chunk could not be recovered.

    The seed behaviour was worse than an error: a crashed child left
    ``Pool.imap`` blocked on a result that would never arrive, hanging
    the controller until pool teardown.  The windowed engine in
    :mod:`repro.resilience.supervisor` detects the loss (sentinel
    timeout, tightened on observed child death) and raises this typed
    error — or, under a :class:`~repro.resilience.supervisor.RetryPolicy`
    with retries, requeues the chunk instead.

    Attributes:
        chunk_index: global index of the unrecoverable chunk.
        attempts: how many times the chunk was attempted.
    """

    def __init__(
        self, message: str, chunk_index: int | None = None, attempts: int = 1
    ) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index
        self.attempts = attempts

#: Candidates per task sent to a BFS worker.  Large enough to amortize
#: pickling, small enough that the controller can stop soon after a hit.
BFS_CHUNK_SIZE = 64

#: Rings per task in the chain-reaction sweep.
ANALYSIS_CHUNK_SIZE = 8

# Per-process worker state, installed by the pool initializer (plain
# module globals — each forked worker has its own copy).
_STATE: dict = {}


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count flag: <= 1 (or None) means serial."""
    if workers is None or workers <= 1:
        return 0
    return int(workers)


def chunked(iterable: Iterable, size: int) -> Iterator[list]:
    """Split an iterable into lists of at most ``size`` items."""
    iterator = iter(iterable)
    while chunk := list(islice(iterator, size)):
        yield chunk


def _pool(workers: int, initializer, initargs) -> multiprocessing.pool.Pool:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return context.Pool(workers, initializer=initializer, initargs=initargs)


# -- BFS candidate fan-out ------------------------------------------------


def _init_bfs_worker(instance, deadline, record: bool) -> None:
    from .cache import SolverCache

    # Forked workers inherit the controller's recorder/tracer globals;
    # uninstall both — worker counts travel back as explicit snapshots,
    # never through an orphaned in-process sink.
    metrics.set_recorder(None)
    trace.set_tracer(None)
    _STATE["instance"] = instance
    _STATE["cache"] = SolverCache(instance.universe, instance.rings)
    _STATE["deadline"] = deadline
    _STATE["record"] = record


def _scan_chunk(
    task: tuple[list[tuple[str, ...]], int, int],
) -> tuple[str, int, tuple[str, ...] | None, list[dict] | None]:
    """Scan one chunk: (outcome, index, mixins-or-None, snapshots-or-None).

    ``task`` is ``(chunk, chunk_index, attempt)`` — the global chunk
    index and retry attempt exist so the ``parallel.worker_chunk``
    fault site can target one chunk's first attempt deterministically
    (worker-death chaos) while its requeued retry survives.

    Outcomes: ("found", i, mixins, snaps) | ("none", n, None, snaps) |
    ("budget", i, None, snaps).  ``snaps`` holds one metrics snapshot
    per candidate whose check started (None when recording is off); on
    "budget" the last snapshot is the tripping candidate's partial
    counts, mirroring what a serial run would have accumulated.
    """
    from ..bfs import SearchBudgetExceeded, _replay_candidate
    from .kernels import prefilter_chunk

    chunk, chunk_index, attempt = task
    plan = faults.active()
    if plan is not None:
        plan.check("parallel.worker_chunk", index=chunk_index, attempt=attempt)
    instance = _STATE["instance"]
    cache = _STATE["cache"]
    deadline = _STATE["deadline"]
    record = _STATE["record"]
    snaps: list[dict] | None = [] if record else None
    # The same kernel pre-filter the serial solver runs — verdicts are
    # functions of (instance, candidate), so per-candidate work (and the
    # counters the replay emits below) is identical to a serial scan of
    # the same prefix no matter how candidates landed on workers.  The
    # verdicts stop at the chunk's first feasible candidate, where the
    # scan below returns.  The pre-filter runs outside the per-candidate
    # recorders: kernel/cache counters are per-process
    # (scheduling-dependent) by design.
    verdicts = prefilter_chunk(instance, cache, chunk, deadline=deadline)
    for local_index, mixin_tuple in enumerate(chunk):
        # Resolved verdicts apply in O(1) and never consult the clock
        # internally, so the replay keeps the serial loop's explicit
        # per-candidate deadline pre-check.
        if deadline is not None and time.perf_counter() > deadline:
            return ("budget", local_index, None, snaps)
        candidate = instance.make_ring(mixin_tuple)
        verdict = None if verdicts is None else verdicts[local_index]
        if record:
            with metrics.recording() as rec:
                try:
                    feasible = _replay_candidate(
                        instance, candidate, verdict,
                        cache=cache, deadline=deadline,
                    )
                except SearchBudgetExceeded:
                    snaps.append(rec.snapshot())
                    return ("budget", local_index, None, snaps)
            snaps.append(rec.snapshot())
        else:
            try:
                feasible = _replay_candidate(
                    instance, candidate, verdict,
                    cache=cache, deadline=deadline,
                )
            except SearchBudgetExceeded:
                return ("budget", local_index, None, None)
        if feasible:
            return ("found", local_index, mixin_tuple, snaps)
    return ("none", len(chunk), None, snaps)


def scan_candidates(
    instance,
    candidate_stream: Iterable[tuple[str, ...]],
    workers: int,
    deadline: float | None = None,
    chunk_size: int = BFS_CHUNK_SIZE,
    hang_timeout: float | None = None,
) -> tuple[str, int, tuple[str, ...] | None]:
    """Find the first feasible candidate of a (lexicographic) stream.

    Returns:
        ("found", global_index, mixins): a feasible candidate exists;
            its 0-based position in the stream and its mixin tuple — by
            construction the same candidate the serial scan returns.
        ("none", total, None): the stream was exhausted; ``total``
            candidates were scanned.
        ("budget", global_index, None): a worker hit the deadline while
            checking the candidate at ``global_index``.

    Worker metrics snapshots are folded into the controller's recorder
    in submission order, truncated at the winning (or tripping)
    candidate — the merged totals match a serial scan of the same
    prefix (see :mod:`repro.obs.events`).

    A chunk whose worker dies or answers nothing within ``hang_timeout``
    seconds (default :data:`~repro.resilience.supervisor.DEFAULT_HANG_TIMEOUT`)
    raises :class:`WorkerLost` instead of blocking forever; use
    :func:`repro.resilience.supervisor.supervised_scan` to requeue the
    chunk and keep scanning instead.

    Raises:
        WorkerLost: a worker died or hung and took its chunk with it.
    """
    from ...resilience.supervisor import (
        DEFAULT_HANG_TIMEOUT,
        RetryPolicy,
        windowed_scan,
    )

    policy = RetryPolicy(
        max_retries=0,
        hang_timeout=DEFAULT_HANG_TIMEOUT if hang_timeout is None else hang_timeout,
    )
    return windowed_scan(
        instance,
        candidate_stream,
        workers,
        deadline=deadline,
        chunk_size=chunk_size,
        policy=policy,
    )


# -- chain-reaction fan-out ------------------------------------------------


def _init_analysis_worker(rings, forced) -> None:
    from .matching import IncrementalMatcher

    metrics.set_recorder(None)
    trace.set_tracer(None)
    _STATE["matcher"] = IncrementalMatcher(rings, forced)


def _analysis_chunk(rids: list[str]) -> dict[str, frozenset[str]]:
    matcher = _STATE["matcher"]
    return {rid: matcher.possible_tokens(rid) for rid in rids}


def parallel_map_rings(
    rings: Sequence[Ring],
    forced: Mapping[str, str] | None,
    workers: int,
    chunk_size: int = ANALYSIS_CHUNK_SIZE,
) -> dict[str, frozenset[str]]:
    """Possible-consumed-token sets for every ring, fanned across workers."""
    rids = [ring.rid for ring in rings]
    possible: dict[str, frozenset[str]] = {}
    with _pool(workers, _init_analysis_worker, (list(rings), dict(forced or {}))) as pool:
        for chunk_result in pool.imap(_analysis_chunk, chunked(rids, chunk_size)):
            possible.update(chunk_result)
    return possible
