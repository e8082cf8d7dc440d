"""Typed solver progress events.

The exact pipeline reports progress in a small, closed vocabulary of
events — one frozen dataclass per thing that happens — instead of
ad-hoc counter bumps scattered through solver code.  ``emit(event)``
forwards an event to the active metrics recorder (as the canonical
counters/gauges the event defines) and drops an instant marker into
the active trace.  The very hottest sites (per augmenting-path repair
inside :class:`~repro.core.perf.matching.IncrementalMatcher`) bypass
the event object and bump their canonical counters directly; the names
are still declared here.  The exact search publishes per chunk, not
per candidate: one :class:`CandidatesScanned` tally per replayed chunk
and one :class:`KernelBatchScanned` per kernel pre-filter call, which
also carries the chunk's solver-cache lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from . import metrics, trace

__all__ = [
    "Event",
    "CandidatesScanned",
    "StratumExhausted",
    "WorldsBuilt",
    "DtrsSweep",
    "KernelStateBuilt",
    "KernelBatchScanned",
    "DeadlineTripped",
    "RingGenerated",
    "ReserveChecked",
    "NeighborInference",
    "AttackAnalyzed",
    "FaultInjected",
    "DegradationStepped",
    "LadderFailClosed",
    "RungServed",
    "WorkerRetry",
    "WorkerChunkLost",
    "RequestAdmitted",
    "RequestRejected",
    "BatchExecuted",
    "MemoServed",
    "EpochAdvanced",
    "emit",
    "enabled",
]


class Event(Protocol):
    """An observable step: knows how to record itself on a Recorder."""

    def record(self, recorder: metrics.Recorder) -> None: ...


@dataclass(frozen=True, slots=True)
class CandidatesScanned:
    """One chunk of a size-``size`` BFS stratum replayed in enumeration
    order: how many candidates each gate stopped ("ht", "eliminated",
    "dtrs") and how many were feasible (0 or 1 — the replay stops at
    the first).  Published once per chunk, on every exit, so a chunk
    cut short by a deadline or an injected fault counts the candidates
    it replayed."""

    size: int
    ht: int
    eliminated: int
    dtrs: int
    feasible: int

    @classmethod
    def tally(cls, size: int, verdicts: list[str]) -> "CandidatesScanned":
        """The event for ``verdicts``, the replayed prefix of a chunk."""
        return cls(
            size=size,
            ht=verdicts.count("ht"),
            eliminated=verdicts.count("eliminated"),
            dtrs=verdicts.count("dtrs"),
            feasible=verdicts.count("feasible"),
        )

    def record(self, recorder: metrics.Recorder) -> None:
        scanned = self.ht + self.eliminated + self.dtrs + self.feasible
        recorder.count("bfs.candidates", scanned)
        recorder.count(f"bfs.candidates.size{self.size}", scanned)
        if self.feasible:
            recorder.count("bfs.feasible", self.feasible)
        for gate, stopped in (
            ("ht", self.ht), ("eliminated", self.eliminated), ("dtrs", self.dtrs)
        ):
            if stopped:
                recorder.count(f"bfs.filtered.{gate}", stopped)


@dataclass(frozen=True, slots=True)
class StratumExhausted:
    """A whole size-k stratum scanned without a feasible candidate."""

    size: int
    candidates: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("bfs.strata_exhausted")


@dataclass(frozen=True, slots=True)
class WorldsBuilt:
    """A fresh token-RS world enumeration (the exponential step)."""

    rings: int
    worlds: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("worlds.built")
        recorder.count("worlds.enumerated", self.worlds)


@dataclass(frozen=True, slots=True)
class DtrsSweep:
    """One ``dtrss_of`` query: memo outcome plus how many DTRSs came back."""

    memo_hit: bool
    found: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("dtrs.sweeps")
        recorder.count("dtrs.memo_hits" if self.memo_hit else "dtrs.memo_misses")
        if not self.memo_hit:
            recorder.count("dtrs.found", self.found)


@dataclass(frozen=True, slots=True)
class KernelStateBuilt:
    """A columnar kernel state (slices + HT masks) derived from a cached
    base world set."""

    rings: int
    worlds: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("kernel.states")
        recorder.count("kernel.state_worlds", self.worlds)


@dataclass(frozen=True, slots=True)
class KernelBatchScanned:
    """One batched pre-filter over a chunk of same-stratum candidates.

    ``resolved`` counts the verdicts the kernel computed: the chunk's
    candidates up to and including its first feasible one (all of them
    when none is feasible).  The candidates past that one are never
    scanned.  ``worlds_hits`` / ``worlds_misses`` are the chunk's
    :class:`~repro.core.perf.cache.SolverCache` base-world lookups.  A
    chunk cut short by a deadline or an exception (``aborted``) still
    reports its lookups, but counts as no batch.
    """

    candidates: int
    resolved: int
    worlds_hits: int
    worlds_misses: int
    aborted: bool

    def record(self, recorder: metrics.Recorder) -> None:
        if self.worlds_hits:
            recorder.count("cache.worlds_hits", self.worlds_hits)
        if self.worlds_misses:
            recorder.count("cache.worlds_misses", self.worlds_misses)
        if self.aborted:
            return
        recorder.count("kernel.batches")
        recorder.count("kernel.candidates", self.candidates)
        recorder.count("kernel.resolved", self.resolved)
        recorder.observe("kernel.batch_size", self.candidates)


@dataclass(frozen=True, slots=True)
class DeadlineTripped:
    """The search budget ran out: where, and by how much.

    ``margin_s`` is ``deadline - now`` at the trip (negative =
    overshoot past the budget).
    """

    size: int
    scanned_in_size: int
    margin_s: float

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("bfs.deadline_trips")
        recorder.gauge("bfs.deadline_margin_s", self.margin_s)
        recorder.gauge("bfs.deadline_size", self.size)
        recorder.gauge("bfs.deadline_scanned_in_size", self.scanned_in_size)


@dataclass(frozen=True, slots=True)
class RingGenerated:
    """TokenMagic produced a ring (any selector, any mode)."""

    algorithm: str
    size: int
    elapsed_s: float

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("tokenmagic.rings")
        recorder.count(f"tokenmagic.rings.{self.algorithm}")
        recorder.observe("tokenmagic.generate_s", self.elapsed_s)
        recorder.observe("tokenmagic.ring_size", self.size)


@dataclass(frozen=True, slots=True)
class ReserveChecked:
    """One eta-reserve admission check (Section 4's reserve rule)."""

    ok: bool

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("registry.reserve_checks")
        if not self.ok:
            recorder.count("registry.reserve_violations")


@dataclass(frozen=True, slots=True)
class NeighborInference:
    """A Theorem 4.1 consumed-token closure over a ring registry."""

    rings: int
    consumed: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("registry.closure_checks")
        recorder.gauge("registry.consumed_tokens", self.consumed)


@dataclass(frozen=True, slots=True)
class AttackAnalyzed:
    """A chain-reaction attack finished over a ring set."""

    kind: str
    rings: int
    deanonymized: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count(f"attack.{self.kind}_runs")
        recorder.count("attack.rings_analyzed", self.rings)
        recorder.count("attack.deanonymized", self.deanonymized)


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """An active :class:`~repro.resilience.faults.FaultPlan` fired."""

    site: str
    action: str

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.faults")
        recorder.count(f"resilience.faults.{self.site}")


@dataclass(frozen=True, slots=True)
class DegradationStepped:
    """The ladder stepped down to ``rung`` because of ``trigger``."""

    rung: str
    trigger: str | None

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.degradations")
        recorder.count(f"resilience.degradations.{self.rung}")


@dataclass(frozen=True, slots=True)
class LadderFailClosed:
    """Every rung failed verification — the ladder refused to emit."""

    rung: str

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.fail_closed")


@dataclass(frozen=True, slots=True)
class RungServed:
    """The ladder produced a verified ring at ``rung``."""

    rung: str
    degraded: bool

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.rung_served")
        recorder.count(f"resilience.rung_served.{self.rung}")


@dataclass(frozen=True, slots=True)
class WorkerRetry:
    """A lost/hung worker call was requeued (attempt is 1-based)."""

    chunk_index: int
    attempt: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.retries")


@dataclass(frozen=True, slots=True)
class WorkerChunkLost:
    """A worker call exhausted its retries — WorkerLost is about to raise."""

    chunk_index: int
    attempts: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("resilience.worker_lost")


@dataclass(frozen=True, slots=True)
class RequestAdmitted:
    """The selection service accepted a request into its queue."""

    queue_depth: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("service.admitted")
        recorder.gauge("service.queue_depth", self.queue_depth)


@dataclass(frozen=True, slots=True)
class RequestRejected:
    """The service refused a request with a typed ``code``
    ("queue_full", "stale_epoch", "bad_request", ...)."""

    code: str

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("service.rejected")
        recorder.count(f"service.rejected.{self.code}")


@dataclass(frozen=True, slots=True)
class BatchExecuted:
    """One micro-batch drained and served against a single snapshot."""

    size: int
    epoch: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("service.batches")
        recorder.observe("service.batch_size", self.size)


@dataclass(frozen=True, slots=True)
class MemoServed:
    """A request was answered from the snapshot's result memo."""

    mode: str

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("service.memo_hits")
        recorder.count(f"service.memo_hits.{self.mode}")


@dataclass(frozen=True, slots=True)
class EpochAdvanced:
    """The chain snapshot grew; warm caches were invalidated."""

    epoch: int
    rings: int

    def record(self, recorder: metrics.Recorder) -> None:
        recorder.count("service.epoch_advances")
        recorder.gauge("service.epoch", self.epoch)


def enabled() -> bool:
    """Is any sink (metrics or trace) installed?  Guard for warm paths."""
    return metrics.active() is not None or trace.active() is not None


def emit(event: Event) -> None:
    """Record ``event`` on the active recorder and mark it in the trace."""
    recorder = metrics.active()
    if recorder is not None:
        event.record(recorder)
    tracer = trace.active()
    if tracer is not None:
        trace.instant(type(event).__name__, **_attrs_of(event))


def _attrs_of(event: Event) -> dict:
    cls = type(event)
    return {name: getattr(event, name) for name in cls.__dataclass_fields__}

