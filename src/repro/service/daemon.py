"""The long-running selection daemon.

:class:`SelectionService` accepts many concurrent ``select`` requests,
micro-batches the ones that share a chain snapshot
(:mod:`repro.service.batching`), and serves every batch from that
snapshot's warm :class:`~repro.core.perf.cache.SolverCache` /
:class:`~repro.core.modules.ModuleUniverse`
(:mod:`repro.service.state`) instead of re-deriving them per call.

Determinism contract — the reason the service can exist at all:

* requests inside a batch execute **sequentially, in admission
  order**, each against the batch's single snapshot;
* the shared cache holds only derived data (component closures, base
  world enumerations), so a warm hit returns exactly what a cold
  rebuild would — ``tests/test_service_equivalence.py`` pins
  selections byte-identical to direct :func:`~repro.core.bfs.bfs_select`
  calls at equal seeds;
* selections are pure functions of (snapshot, solve parameters), so
  identical requests within one epoch are deduplicated through the
  snapshot's result memo — the hot-target pattern that makes a batched
  daemon worth running (``benchmarks/test_bench_service.py`` measures
  it); chaos requests bypass the memo so injected faults always hit
  the real solve path;
* resilience is scoped per request: each request runs its own
  degradation ladder, and a request-supplied fault plan is
  instantiated fresh around that request only — a budget trip, an
  infeasibility or an injected fault produces a typed error *response*
  for that request and leaves its batch-mates untouched.

Example::

    >>> from repro.core.ring import TokenUniverse
    >>> from repro.service import SelectRequest, SelectionService
    >>> universe = TokenUniverse({"t1": "h1", "t2": "h2", "t3": "h1",
    ...                           "t4": "h3"})
    >>> with SelectionService(universe) as service:
    ...     response = service.submit_wait(
    ...         SelectRequest(request_id="r1", target="t3", c=2.0, ell=2))
    >>> sorted(response.tokens)
    ['t2', 't3']
"""

from __future__ import annotations

import gc
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..core.bfs import SearchBudgetExceeded, bfs_select
from ..core.problem import InfeasibleError
from ..core.ring import Ring, TokenUniverse
from ..obs import events, metrics, trace
from ..obs.clock import Clock
from ..obs.telemetry import FanoutRecorder
from ..resilience import faults
from ..resilience.ladder import ConstraintViolation, ladder_select, verify_ring
from .batching import EPOCH_ANY, AdmissionQueue, Batch
from .journal import Journal, metrics_lines
from .protocol import (
    ERROR_BUDGET_EXCEEDED,
    ERROR_CONSTRAINT_VIOLATION,
    ERROR_FAULT_INJECTED,
    ERROR_INFEASIBLE,
    ERROR_INTERNAL,
    REJECT_BAD_REQUEST,
    REJECT_QUEUE_FULL,
    REJECT_STALE_EPOCH,
    SelectRequest,
    SelectResponse,
)
from .partition import TokenPartition
from .state import ChainSnapshot, DuplicateRingId, ServiceState
from .telemetry import ServiceTelemetry

__all__ = [
    "ServiceConfig",
    "PendingResult",
    "SelectionService",
    "ShardOutOfSync",
]


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Tunables of one :class:`SelectionService`.

    Attributes:
        max_queue: admission bound — requests beyond it are rejected
            with ``queue_full`` instead of buffered.
        max_batch: largest micro-batch drained at once.
        linger_s: how long a drain lingers for batch-mates once a
            request is waiting (0 = batch whatever is already queued).
        default_budget: per-request exact-search budget when the
            request does not name one (``None`` = unbounded).
        fault_plan: a fault-plan document applied to *every* request
            (a fresh :class:`~repro.resilience.faults.FaultPlan`
            instance per request); request-level plans override it.
        telemetry: run the request-lifecycle instrument
            (:class:`~repro.service.telemetry.ServiceTelemetry`) —
            on by default; responses are byte-identical either way.
        clock: seconds source for the telemetry lifecycle marks
            (``None`` = ``time.monotonic``); tests inject a
            :class:`~repro.obs.clock.ManualClock` for exact quantiles.
        partition: partition the universe into this many TokenMagic
            batches (or pass a prebuilt
            :class:`~repro.service.partition.TokenPartition`): requests
            solve against their target's batch-local (universe, rings)
            slice and commits must be batch-local.  ``None`` keeps the
            unpartitioned single-universe behaviour, byte-identical to
            before the partition existed; ``partition=1`` is the same
            thing expressed as a one-batch partition.
        journal: a :class:`~repro.service.journal.Journal` made every
            commit durable through — the write-ahead frame lands (and,
            per the journal's fsync policy, hits disk) *before* the
            in-memory state mutates, so a crash at any point loses no
            acknowledged commit.  ``None`` (the default) keeps the
            purely in-memory behaviour.
    """

    max_queue: int = 256
    max_batch: int = 32
    linger_s: float = 0.0
    default_budget: float | None = None
    fault_plan: Mapping | None = None
    telemetry: bool = True
    clock: Clock | None = None
    partition: int | TokenPartition | None = None
    journal: Journal | None = None


@dataclass(slots=True)
class PendingResult:
    """A slot the worker fills; ``wait`` blocks the submitting thread."""

    request: SelectRequest
    admitted_at: float | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    _response: SelectResponse | None = None

    def resolve(self, response: SelectResponse) -> None:
        self._response = response
        self._done.set()

    def wait(self, timeout: float | None = None) -> SelectResponse:
        """The response, blocking until the worker produced it.

        Raises:
            TimeoutError: nothing arrived within ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id!r} not served in time"
            )
        assert self._response is not None
        return self._response

    @property
    def done(self) -> bool:
        return self._done.is_set()


class SelectionService:
    """Batched, cache-warm mixin selection over a growing chain.

    Args:
        universe: the mixin universe T of the initial snapshot.
        rings: the initial ring history.
        config: see :class:`ServiceConfig`.

    Use as a context manager (starts/stops the worker thread), or call
    :meth:`start` / :meth:`stop` explicitly.  :meth:`submit` never
    blocks; :meth:`submit_wait` is the convenience wrapper.
    """

    def __init__(
        self,
        universe: TokenUniverse,
        rings: Sequence[Ring] = (),
        config: ServiceConfig | None = None,
        *,
        epoch: int = 0,
        recovered: Mapping | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        partition = self.config.partition
        if isinstance(partition, int):
            partition = TokenPartition(universe, batches=partition)
        self.partition = partition
        self.journal = self.config.journal
        #: The typed `recovered` block when this service was rebuilt
        #: from a journal replay (surfaced via stats/health/metrics).
        self.recovered: dict | None = dict(recovered) if recovered else None
        self.state = ServiceState(universe, rings, partition=partition, epoch=epoch)
        self.queue: AdmissionQueue[PendingResult] = AdmissionQueue(
            max_depth=self.config.max_queue,
            max_batch=self.config.max_batch,
            linger_s=self.config.linger_s,
        )
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._counters_lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.telemetry: ServiceTelemetry | None = (
            ServiceTelemetry(clock=self.config.clock)
            if self.config.telemetry
            else None
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SelectionService":
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-selection-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) serve what is queued."""
        self.queue.close()
        if not drain:
            self._stopping.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "SelectionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- chain growth --------------------------------------------------------

    def commit_ring(
        self, tokens: Sequence[str], c: float, ell: int, rid: str | None = None
    ) -> ChainSnapshot:
        """Append an accepted ring; advances the epoch.

        Admission — rid dedup, the ``svc:<seq>`` id of an anonymous
        commit, batch-locality, the write-ahead journal frame — is
        :meth:`~repro.service.state.ServiceState.admit_commit`.
        Recommitting a rid already on the chain returns the current
        head unchanged (counted as ``commits.replayed``).
        """
        snapshot, ring = self.state.admit_commit(
            tokens, c, ell, rid, journal=self.journal, telemetry=self.telemetry
        )
        if ring is None:
            self._bump("commits.replayed")
        return snapshot

    @property
    def epoch(self) -> int:
        return self.state.epoch

    # -- submission ----------------------------------------------------------

    def submit(self, request: SelectRequest) -> PendingResult:
        """Admit ``request`` (non-blocking).

        A target outside the universe, or a full queue, resolves the
        returned slot *immediately* with a typed rejection
        (``bad_request`` / ``queue_full``) — not an exception, so socket
        front-ends answer it like any response.
        """
        pending = PendingResult(request=request)
        if request.target not in self.state.current().universe:
            return self._refuse(
                pending,
                REJECT_BAD_REQUEST,
                f"target {request.target!r} is not a token of the universe",
            )
        epoch_key = EPOCH_ANY if request.epoch is None else request.epoch
        if not self.queue.offer(pending, epoch_key):
            return self._refuse(
                pending,
                REJECT_QUEUE_FULL,
                f"admission queue at capacity ({self.queue.max_depth}); retry later",
            )
        if self.telemetry is not None:
            pending.admitted_at = self.telemetry.admitted(self.queue.depth())
        if events.enabled():
            events.emit(events.RequestAdmitted(queue_depth=self.queue.depth()))
        return pending

    def _refuse(self, pending: PendingResult, code: str, detail: str) -> PendingResult:
        """Resolve ``pending`` with an admission rejection ``code``."""
        self._bump(f"rejected.{code}")
        if self.telemetry is not None:
            self.telemetry.admission_rejected(code)
        if events.enabled():
            events.emit(events.RequestRejected(code=code))
        pending.resolve(
            SelectResponse(
                request_id=pending.request.request_id,
                status="rejected",
                epoch=self.state.epoch,
                code=code,
                detail=detail,
            )
        )
        return pending

    def submit_wait(
        self, request: SelectRequest, timeout: float | None = None
    ) -> SelectResponse:
        """Submit and block for the response (for tests and examples)."""
        return self.submit(request).wait(timeout)

    def queue_depth(self) -> int:
        """Currently admitted-but-unserved requests."""
        return self.queue.depth()

    def execute_requests(
        self, requests: Sequence[SelectRequest], batch_id: int = 0
    ) -> list[SelectResponse]:
        """Serve ``requests`` synchronously as one micro-batch.

        The shard workers of :mod:`repro.service.router` run the
        service without its worker thread and push dispatched batches
        through this path: same snapshot resolution, same per-request
        fault scoping, same memo/cache behaviour as the queued path —
        a batch assembled by the router executes exactly like one the
        admission queue drained.
        """
        items = [PendingResult(request=request) for request in requests]
        batch = Batch(batch_id=batch_id, epoch_key=EPOCH_ANY, items=list(items))
        self._execute_batch(batch)
        return [item.wait(timeout=0) for item in items]

    def stats(self) -> dict:
        """A JSON-ready snapshot (the ``stats`` op's payload).

        A backward-compatible superset of the PR-5 counter dump: the
        flat keys are unchanged, and with telemetry enabled the
        payload also carries ``telemetry`` (latency histograms with
        exact window quantiles, rolling rates, gauges, captured solver
        counters) and ``resilience`` (ladder rungs taken,
        supervised-scan retries, injected faults — the counters that
        previously only reached bench artifacts).  ``gc`` is the
        process's cyclic collector, one ``{collections, collected,
        uncollectable}`` row per generation 0..2 from one
        :func:`gc.get_stats` read; the exact solver leaves no reference
        cycle, so serving selects adds nothing to ``collected``.
        """
        with self._counters_lock:
            counters = dict(sorted(self.counters.items()))
        queue_depth = self.queue.depth()
        payload = {
            "epoch": self.state.epoch,
            "rings": len(self.state.current().rings),
            "queue_depth": queue_depth,
            "offered": self.queue.offered,
            "refused": self.queue.refused,
            "epochs_advanced": self.state.epochs_advanced,
            "caches_invalidated": self.state.caches_invalidated,
            "delta": dict(self.state.delta_counters),
            "counters": counters,
            "gc": gc.get_stats(),
        }
        if self.journal is not None:
            payload["journal"] = self.journal.stats()
        if self.recovered is not None:
            payload["recovered"] = dict(self.recovered)
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.snapshot(queue_depth)
            payload["resilience"] = self.telemetry.resilience_counters()
        return payload

    def health(self) -> dict:
        """The ``health`` op's payload: ready/degraded/draining.

        Draining reflects a closed admission queue (shutdown started,
        queued work still being served).  Degraded semantics come from
        the telemetry window — see
        :meth:`repro.service.telemetry.ServiceTelemetry.health`;
        without telemetry only ready/draining can be distinguished.
        """
        draining = self.queue.closed
        queue_depth = self.queue.depth()
        if self.telemetry is None:
            status = "draining" if draining else "ready"
            payload = {
                "health": status,
                "reasons": [],
                "queue_depth": queue_depth,
                "max_queue": self.queue.max_depth,
            }
        else:
            payload = self.telemetry.health(
                queue_depth=queue_depth,
                max_queue=self.queue.max_depth,
                draining=draining,
            )
        if self.recovered is not None:
            payload["recovered"] = dict(self.recovered)
        return payload

    def metrics_text(self) -> str:
        """The ``metrics`` op's body: Prometheus text exposition."""
        with self._counters_lock:
            counters = dict(sorted(self.counters.items()))
        counters.update(
            (f"delta.{name}", value)
            for name, value in sorted(self.state.delta_counters.items())
        )
        if self.telemetry is None:
            from ..obs.telemetry import render_prometheus

            body = render_prometheus(
                {}, prefix="repro_service", extra_counters=counters
            )
        else:
            body = self.telemetry.prometheus(
                queue_depth=self.queue.depth(), service_counters=counters
            )
        return body + metrics_lines(
            None if self.journal is None else self.journal.stats(),
            self.recovered,
        )

    def drain_summary(self) -> str | None:
        """A one-line telemetry summary for shutdown reporting."""
        if self.telemetry is None:
            return None
        return self.telemetry.drain_summary()

    # -- the worker loop -----------------------------------------------------

    def _run(self) -> None:
        while not self._stopping.is_set():
            batch = self.queue.drain_batch(timeout=0.05)
            if batch is None:
                if self.queue.closed and self.queue.depth() == 0:
                    return
                continue
            self._execute_batch(batch)

    def _execute_batch(self, batch: Batch[PendingResult]) -> None:
        snapshot = self.state.current()
        warm = snapshot.cache_built
        telemetry = self.telemetry
        # Tee solver/resilience events into the service's own recorder
        # for the duration of the batch, *alongside* whatever recorder
        # the CLI installed — this is how ladder rungs, retries and
        # injected faults reach the `stats` op.  Only the single worker
        # thread swaps the slot, and it restores the previous recorder
        # before the batch's last response resolves a submitter.
        previous = metrics.active()
        if telemetry is not None:
            metrics.set_recorder(FanoutRecorder(previous, telemetry.solver))
        try:
            with trace.span(
                "service.batch",
                batch_id=batch.batch_id,
                size=len(batch),
                epoch=snapshot.epoch,
            ):
                if telemetry is not None:
                    telemetry.batch_started(len(batch), snapshot.epoch)
                if events.enabled():
                    events.emit(
                        events.BatchExecuted(size=len(batch), epoch=snapshot.epoch)
                    )
                rec = metrics.active()
                if rec is not None:
                    rec.observe("service.batch_size", len(batch))
                    rec.gauge("service.queue_depth", self.queue.depth())
                self._bump("batches")
                for pending in batch.items:
                    if telemetry is not None:
                        started_at = telemetry.request_started(pending.admitted_at)
                    response = self._serve_one(
                        pending.request, snapshot, batch, warm
                    )
                    if telemetry is not None:
                        # Every lifecycle mark lands before the slot
                        # resolves, so a serialized submitter always
                        # observes a completed request span.
                        telemetry.request_finished(
                            response, pending.admitted_at, started_at
                        )
                    pending.resolve(response)
                    warm = True  # the first request of a cold epoch warms it
        finally:
            if telemetry is not None:
                metrics.set_recorder(previous)

    def _serve_one(
        self,
        request: SelectRequest,
        snapshot: ChainSnapshot,
        batch: Batch[PendingResult],
        warm: bool,
    ) -> SelectResponse:
        if request.epoch is not None and request.epoch != snapshot.epoch:
            self._bump(f"rejected.{REJECT_STALE_EPOCH}")
            if events.enabled():
                events.emit(events.RequestRejected(code=REJECT_STALE_EPOCH))
            return SelectResponse(
                request_id=request.request_id,
                status="rejected",
                epoch=snapshot.epoch,
                batch_id=batch.batch_id,
                batch_size=len(batch),
                code=REJECT_STALE_EPOCH,
                detail=(
                    f"request pinned to epoch {request.epoch} but the chain "
                    f"is at epoch {snapshot.epoch}; re-resolve and resubmit"
                ),
            )
        started = time.perf_counter()
        plan_doc = (
            request.fault_plan
            if request.fault_plan is not None
            else self.config.fault_plan
        )
        with trace.span(
            "service.request",
            request_id=request.request_id,
            target=request.target,
            mode=request.mode,
            epoch=snapshot.epoch,
            batch_id=batch.batch_id,
        ):
            try:
                # A fresh per-request plan: hit counters start at zero for
                # every request, so chaos stays scoped to its request.
                # Chaos requests also bypass the result memo — an
                # injected fault must hit the real solve path, and a
                # memoized answer must never mask one.
                if plan_doc is not None:
                    with faults.injecting(faults.FaultPlan.from_dict(plan_doc)):
                        response = self._solve(
                            request, snapshot, batch, warm, memo_ok=False
                        )
                else:
                    response = self._solve(
                        request, snapshot, batch, warm, memo_ok=True
                    )
            except SearchBudgetExceeded as exc:
                response = self._error(
                    request, snapshot, batch, ERROR_BUDGET_EXCEEDED, exc
                )
            except InfeasibleError as exc:
                response = self._error(
                    request, snapshot, batch, ERROR_INFEASIBLE, exc
                )
            except ConstraintViolation as exc:
                response = self._error(
                    request, snapshot, batch, ERROR_CONSTRAINT_VIOLATION, exc
                )
            except faults.InjectedFault as exc:
                response = self._error(
                    request, snapshot, batch, ERROR_FAULT_INJECTED, exc
                )
            except Exception as exc:  # noqa: BLE001 - batch-mate isolation
                response = self._error(
                    request, snapshot, batch, ERROR_INTERNAL, exc
                )
        elapsed = time.perf_counter() - started
        rec = metrics.active()
        if rec is not None:
            rec.observe("service.request_s", elapsed)
        self._bump("requests")
        self._bump(f"status.{response.status}")
        if response.degraded:
            self._bump("degraded")
        return response

    def _memo_key(self, request: SelectRequest, budget: float | None):
        """The solve-relevant request fields, per mode.

        The exact rung is deterministic regardless of seed, so exact
        requests memoize across seeds; ladder requests include the seed
        because the degraded rungs draw from it.
        """
        key = (
            request.mode,
            request.target,
            request.c,
            request.ell,
            budget,
            request.max_mixins,
        )
        if request.mode == "ladder":
            key += (request.seed,)
        return key

    def _solve(
        self,
        request: SelectRequest,
        snapshot: ChainSnapshot,
        batch: Batch[PendingResult],
        warm: bool,
        memo_ok: bool = True,
    ) -> SelectResponse:
        # Partitioned snapshots solve against the target's batch-local
        # (universe, rings) slice; unpartitioned, the view *is* the
        # snapshot and nothing changes.
        view = snapshot.solve_view(request.target)
        instance = view.instance(request.target, request.c, request.ell)
        budget = (
            request.time_budget
            if request.time_budget is not None
            else self.config.default_budget
        )
        memo = view.result_memo() if memo_ok else None
        memo_key = self._memo_key(request, budget) if memo_ok else None
        if memo is not None:
            stored = memo.get(memo_key)
            if stored is not None:
                # Identical request against the same batch state: replay
                # the first solve's answer (pure function of both), with
                # this request's own identity and batch coordinates.
                # The epoch is re-stamped because a retained batch memo
                # can outlive the epoch it was stored under (commits
                # carry untouched batches across epochs).
                self._bump("memo.hits")
                if events.enabled():
                    events.emit(events.MemoServed(mode=request.mode))
                return replace(
                    stored,
                    request_id=request.request_id,
                    epoch=snapshot.epoch,
                    batch_id=batch.batch_id,
                    batch_size=len(batch),
                    warm_cache=warm,
                    attrs={**stored.attrs, "memo": True},
                )
        response = self._solve_fresh(
            request, instance, snapshot, view, batch, warm, budget
        )
        if memo is not None and response.ok:
            memo[memo_key] = response
            self._bump("memo.stores")
        return response

    def _solve_fresh(
        self,
        request: SelectRequest,
        instance,
        snapshot: ChainSnapshot,
        view: ChainSnapshot,
        batch: Batch[PendingResult],
        warm: bool,
        budget: float | None,
    ) -> SelectResponse:
        cache = view.solver_cache()
        if request.mode == "exact":
            solved = bfs_select(
                instance,
                time_budget=budget,
                max_mixins=request.max_mixins,
                cache=cache,
            )
            # The same Definition 5 re-check as every ladder answer, on
            # world sets built afresh: a ring the solver's cached path
            # got wrong is refused, never served.
            try:
                verify_ring(instance, solved.ring.tokens)
            except ConstraintViolation as exc:
                raise ConstraintViolation("exact", exc.failed) from None
            return SelectResponse(
                request_id=request.request_id,
                status="ok",
                epoch=snapshot.epoch,
                tokens=tuple(solved.ring.tokens),
                mixins=tuple(solved.mixins),
                rung="exact",
                claimed_c=request.c,
                claimed_ell=request.ell,
                degraded=False,
                candidates_checked=solved.candidates_checked,
                elapsed=solved.elapsed,
                batch_id=batch.batch_id,
                batch_size=len(batch),
                warm_cache=warm,
            )
        # The decomposition is handed over unbuilt: only the degraded
        # rungs read it, so a select the exact rung serves never builds
        # one, and commits have none to extend.
        outcome = ladder_select(
            instance,
            modules=view.module_universe,
            time_budget=budget,
            max_mixins=request.max_mixins,
            rng=random.Random(request.seed),
            cache=cache,
        )
        tokens = outcome.result.tokens
        return SelectResponse(
            request_id=request.request_id,
            status="ok",
            epoch=snapshot.epoch,
            tokens=tuple(tokens),
            mixins=tuple(set(tokens) - {request.target}),
            rung=outcome.rung,
            claimed_c=outcome.claimed_c,
            claimed_ell=outcome.claimed_ell,
            degraded=outcome.degraded,
            candidates_checked=None,
            elapsed=outcome.result.elapsed,
            batch_id=batch.batch_id,
            batch_size=len(batch),
            warm_cache=warm,
        )

    def _error(
        self,
        request: SelectRequest,
        snapshot: ChainSnapshot,
        batch: Batch[PendingResult],
        code: str,
        exc: Exception,
    ) -> SelectResponse:
        self._bump(f"error.{code}")
        return SelectResponse(
            request_id=request.request_id,
            status="error",
            epoch=snapshot.epoch,
            batch_id=batch.batch_id,
            batch_size=len(batch),
            code=code,
            detail=str(exc),
        )

    def _bump(self, name: str, value: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + value


# -- shard-worker entry point (repro.service.router) -------------------------
#
# Each shard of a ShardRouter is one forked pool process running a
# SelectionService *without its worker thread*: the router dispatches
# whole micro-batches (plus commits and stats/metrics/health probes)
# through `_shard_call`, and the worker serves them synchronously via
# `SelectionService.execute_requests`.  The worker's ServiceState is
# partitioned, so a commit advances only the touched batch's warm state
# and carries every other batch's slice unchanged.
#
# Pool workers that die are respawned by the pool with the *original*
# initargs, so a respawned worker is silently back at the initial
# chain.  Every dispatch therefore carries the router's epoch; a
# mismatch raises ShardOutOfSync, which the router's supervised retry
# answers by attaching a full sync (ring log + epoch) to the resend.


class ShardOutOfSync(RuntimeError):
    """A shard worker's chain state lags the router's (needs a sync).

    Raised inside the worker and re-raised by the pool in the router
    process; the supervised dispatch path treats it like any other
    worker failure — bounded retry — but attaches the sync payload the
    respawned worker needs to rebuild state before re-serving.
    """

    def __init__(self, shard: int, have: int, want: int) -> None:
        super().__init__(
            f"shard {shard} is at epoch {have} but the router is at "
            f"epoch {want}; sync required"
        )
        self.shard = shard
        self.have = have
        self.want = want


#: Per-process shard-worker state, installed by `_init_shard_worker`
#: (plain module globals — each forked worker has its own copy).
_SHARD: dict = {}


def _init_shard_worker(
    shard_index: int,
    owned_batches: tuple[int, ...],
    universe: TokenUniverse,
    rings: tuple[Ring, ...],
    batches: int,
    config_kwargs: dict,
    fault_doc: Mapping | None,
    epoch0: int = 0,
) -> None:
    # Forked workers inherit the router's recorder/tracer globals;
    # uninstall both — shard observability travels back as explicit
    # stats/metrics payloads, never through an orphaned in-process sink.
    metrics.set_recorder(None)
    trace.set_tracer(None)
    service = SelectionService(
        universe,
        rings,
        ServiceConfig(partition=batches, **config_kwargs),
        epoch=epoch0,
    )
    _SHARD.clear()
    _SHARD.update(
        index=shard_index,
        owned=tuple(owned_batches),
        service=service,
        plan=None if fault_doc is None else faults.FaultPlan.from_dict(fault_doc),
    )


def _shard_sync(service: SelectionService, sync: Mapping) -> SelectionService:
    """Rebuild the worker's chain state from a router-supplied sync."""
    service.state = ServiceState(
        service.state.current().universe,
        tuple(sync["rings"]),
        partition=service.partition,
        epoch=int(sync["epoch"]),
    )
    return service


def _shard_call(payload: Mapping):
    """The single pool entry point: serve one router dispatch."""
    shard = _SHARD
    service: SelectionService = shard["service"]
    op = payload["op"]
    if op == "ping":
        return {"shard": shard["index"], "epoch": service.state.epoch}
    want = int(payload["epoch"])
    if want != service.state.epoch:
        sync = payload.get("sync")
        if sync is None:
            raise ShardOutOfSync(shard["index"], service.state.epoch, want)
        _shard_sync(service, sync)
        if service.state.epoch != want:
            raise ShardOutOfSync(shard["index"], service.state.epoch, want)
    if op == "batch":
        plan = shard["plan"]
        if plan is not None:
            plan.check(
                "shard.batch",
                index=int(payload["seq"]),
                attempt=int(payload["attempt"]),
            )
        return service.execute_requests(
            payload["requests"], batch_id=int(payload["seq"])
        )
    if op == "commit":
        ring: Ring = payload["ring"]
        try:
            snapshot = service.state.commit(ring)
        except DuplicateRingId:
            # A retried commit the worker already applied: idempotent.
            snapshot = service.state.current()
        else:
            if service.telemetry is not None:
                service.telemetry.epoch_advanced(snapshot.epoch, len(snapshot.rings))
        return {"epoch": snapshot.epoch, "rings": len(snapshot.rings)}
    if op == "stats":
        stats = service.stats()
        stats["shard"] = shard["index"]
        stats["batches"] = list(shard["owned"])
        return stats
    if op == "metrics":
        labels = {"shard": str(shard["index"])}
        with service._counters_lock:
            counters = dict(sorted(service.counters.items()))
        counters.update(
            (f"delta.{name}", value)
            for name, value in sorted(service.state.delta_counters.items())
        )
        if service.telemetry is None:
            from ..obs.telemetry import render_prometheus

            return render_prometheus(
                {},
                prefix="repro_service",
                extra_counters=counters,
                labels=labels,
                type_lines=bool(payload.get("type_lines", True)),
            )
        return service.telemetry.prometheus(
            queue_depth=None,
            service_counters=counters,
            labels=labels,
            type_lines=bool(payload.get("type_lines", True)),
        )
    if op == "health":
        health = service.health()
        health["shard"] = shard["index"]
        return health
    raise ValueError(f"unknown shard op {op!r}")
