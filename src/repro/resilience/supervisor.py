"""Supervised calls into a process pool.

:func:`supervised_call` submits one call via ``apply_async`` and keeps
its result handle, so it can

* **detect** a lost call — a sentinel timeout, tightened to a short
  grace period the moment a child-process death is observed on the
  pool — and surface it as the typed :class:`WorkerLost` instead of
  blocking forever on a result that will never arrive;
* **recover** from it — resubmit the call with exponential backoff,
  bounded by :class:`RetryPolicy.max_retries`.

The shard router (:mod:`repro.service.router`) dispatches every worker
call through it.  The backoff ``sleep`` and the ``clock`` are
injectable so chaos tests run in virtual time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..obs import events

__all__ = [
    "RetryPolicy",
    "WorkerLost",
    "supervised_call",
]


class WorkerLost(RuntimeError):
    """A pool worker died or hung and its call could not be recovered.

    Attributes:
        chunk_index: the index the failed call was submitted under.
        attempts: how many times the call was attempted.
    """

    def __init__(
        self, message: str, chunk_index: int | None = None, attempts: int = 1
    ) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index
        self.attempts = attempts


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the supervisor waits, retries and backs off.

    Attributes:
        max_retries: requeues allowed per call before giving up with
            :class:`WorkerLost` (0 = detect only, never retry).
        base_delay: first backoff sleep in seconds.
        multiplier: backoff growth factor per extra attempt.
        hang_timeout: seconds a submitted call may stay unanswered
            before it is declared lost (the sentinel timeout).
        death_grace: once a child-process death is observed, the
            outstanding call's deadline is tightened to at most this
            many seconds away — fast recovery without waiting out the
            full sentinel.
        poll_interval: granularity of the result wait loop.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    hang_timeout: float = 30.0
    death_grace: float = 1.0
    poll_interval: float = 0.02

    def backoff(self, attempt: int) -> float:
        """Backoff before submitting attempt ``attempt + 1``."""
        return self.base_delay * self.multiplier**attempt


def supervised_call(
    pool,
    func: Callable,
    make_args: Callable[[int], tuple],
    policy: RetryPolicy,
    index: int = 0,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.perf_counter,
    on_retry: Callable[[int, str], None] | None = None,
):
    """One supervised RPC against a process pool.

    Submit ``func(*make_args(attempt))`` via ``apply_async``, watch
    the handle under ``policy``'s sentinel timeout, tighten the
    deadline to ``death_grace`` the moment a child death is observed on
    the pool, and requeue with exponential backoff on timeout or a
    worker-raised exception.  ``make_args`` receives the attempt number so retries
    can attach recovery context (the router sends a full state sync on
    attempt > 0 — a respawned worker starts from the original
    ``initargs`` and must be caught up).

    ``index`` identifies the call in :class:`WorkerLost` /
    retry events (the router passes its global dispatch sequence, the
    same value its ``shard.batch`` fault site sees).  ``on_retry`` is
    called with ``(next_attempt, reason)`` before each backoff sleep.

    Returns the call's result; raises :class:`WorkerLost` after
    ``policy.max_retries + 1`` failed attempts.
    """
    attempt = 0
    handle = pool.apply_async(func, make_args(attempt))
    expires = clock() + policy.hang_timeout
    death_seen = False
    while True:
        while not handle.ready():
            if not death_seen:
                procs = getattr(pool, "_pool", None) or ()
                if any(proc.exitcode is not None for proc in procs):
                    death_seen = True
                    expires = min(expires, clock() + policy.death_grace)
            if clock() > expires:
                break
            handle.wait(policy.poll_interval)
        if handle.ready():
            try:
                return handle.get()
            except Exception as exc:
                reason = f"worker error: {type(exc).__name__}"
        else:
            reason = "no answer before timeout"
        if attempt >= policy.max_retries:
            if events.enabled():
                events.emit(
                    events.WorkerChunkLost(chunk_index=index, attempts=attempt + 1)
                )
            raise WorkerLost(
                f"call {index} lost after {attempt + 1} attempt(s) ({reason})",
                chunk_index=index,
                attempts=attempt + 1,
            )
        if events.enabled():
            events.emit(events.WorkerRetry(chunk_index=index, attempt=attempt + 1))
        if on_retry is not None:
            on_retry(attempt + 1, reason)
        sleep(policy.backoff(attempt))
        attempt += 1
        handle = pool.apply_async(func, make_args(attempt))
        expires = clock() + policy.hang_timeout
        death_seen = False
